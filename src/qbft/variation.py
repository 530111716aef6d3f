"""Sign-change counting and the limit-polynomial calculus.

The variation V[f] of a window function is the number of sign changes read
along increasing x after dropping samples below a relative zero threshold.
A kernel K is variation diminishing when V[K * f] <= V[f] for every
admissible f; the q-derivative goes the other way (it can only create sign
changes, provided f vanishes at one end of its domain).

The series side: omega_series inverts the spectrum of a kernel into the
coefficient sequence w of its reciprocal multiplier E, and the q_n / Q_n
polynomial families built from w converge to E's zero structure.  Their
real-rootedness is what ultimately forces the variation-diminishing
property, so it gets its own check via companion-matrix eigenvalues.  The
series side reads its coefficients and arguments through mpmathify at its
working precision (_finite) and refuses values that are not finite
numbers, and orders that are not nonnegative integers, with InvalidParams.
"""

import mpmath
from mpmath import mp, mpf, mpmathify

from .core import (
    DegenerateLeading, IllConditioned, InvalidParams, PreconditionError,
    WindowError, GridFunction, QGrid, constants,
    parse_number, qpochhammer_finite, q_derivative,
)
from .transform import convolve, fourier, spectrum

DEFAULT_ZERO_TOL = "1e-30"


class SignPattern:
    """Kept samples of a window function, ordered by increasing x."""

    def __init__(self, exponents, signs, changes):
        self.exponents = exponents
        self.signs = signs
        self.changes = changes

    def __repr__(self):
        return f"SignPattern(kept={len(self.signs)}, changes={self.changes})"


def sign_changes(f, zero_tol=None):
    """Count sign changes along increasing x, ignoring near-zero samples.

    The threshold is relative to the largest magnitude in the window.  When
    every sample drops (including the all-zero function) the pattern is
    empty and the count is zero.  A negative threshold, which would keep
    exact zeros as negative samples, raises InvalidParams.
    """
    tol = parse_number(zero_tol if zero_tol is not None else DEFAULT_ZERO_TOL,
                       "zero_tol")
    if tol < 0:
        raise InvalidParams(f"zero_tol must be nonnegative, got {zero_tol!r}")
    with mp.workdps(30):
        # each sample rounded to 30 digits from its integers, as abs() of
        # the decoded sample rounds it: the full-precision value is not needed
        vals = [mpf(pair) for pair in zip(*f.samples.split())]
        mx = max((abs(v) for v in vals), default=mp.zero)
        if mx == 0:
            return SignPattern([], [], 0)
        cut = tol * mx
        exps = []
        signs = []
        # increasing x means decreasing exponent
        for n, v in zip(reversed(f.grid.exponents()), reversed(vals)):
            if abs(v) > cut:
                exps.append(n)
                signs.append(1 if v > 0 else -1)
        changes = sum(1 for i in range(1, len(signs)) if signs[i] != signs[i - 1])
        return SignPattern(exps, signs, changes)


class VdReport:
    """Per-function variation comparison for one kernel."""

    def __init__(self, rows, passed):
        self.rows = rows  # list of {"name", "v_in", "v_out", "ok"}
        self.passed = passed


def vd_check(kernel, functions, plan, zero_tol=None, names=None):
    """Convolve the kernel with each function and compare variations.

    kernel and functions are window samples.  The kernel is checked and
    transformed first, so a kernel that cannot be transformed raises before
    any function is read, even when there is none.  Each comparison is
    convolve(f, kernel, plan), whose record is memoized by the two spectra:
    a function already convolved with the kernel through the plan, by an
    earlier vd_check or by convolve, is not convolved again.  Passes only
    if no function gains sign changes.
    """
    if names is not None and len(names) != len(functions):
        raise InvalidParams(
            f"{len(names)} names given for {len(functions)} functions")
    # the kernel's gates run, and its rows are computed, before any function's
    spectrum(kernel, plan)
    rows = []
    passed = True
    for i, f in enumerate(functions):
        name = names[i] if names else f"f{i}"
        v_in = sign_changes(f, zero_tol).changes
        conv = convolve(f, kernel, plan)
        v_out = sign_changes(conv, zero_tol).changes
        ok = v_out <= v_in
        passed = passed and ok
        rows.append({"name": name, "v_in": v_in, "v_out": v_out, "ok": ok})
    return VdReport(rows, passed)


def dq_variation_check(f, params, zero_tol=None):
    """Variation comparison across the q-derivative.

    Requires f to vanish (below the zero threshold) at one end of its
    window; then differentiation cannot lose sign changes and the check
    returns (V[f], V[D_q f], ok).
    """
    pattern = sign_changes(f, zero_tol)
    kept = pattern.exponents
    if f.grid.n_max in kept and f.grid.n_min in kept:
        raise PreconditionError(
            "derivative variation bound needs f to vanish at one window end")
    v_in = pattern.changes
    df = q_derivative(f, params)
    v_out = sign_changes(df, zero_tol).changes
    return v_in, v_out, v_out >= v_in


# ---------------------------------------------------------------------------
# series and polynomial side

def _finite(values, what):
    """values read through mpmathify at the working precision, so a float
    keeps its 53 bits; a value that is not a finite number raises
    InvalidParams."""
    out = []
    for v in values:
        try:
            x = mpmathify(v)
        except (TypeError, ValueError):
            raise InvalidParams(f"{what} {v!r} is not a number") from None
        if not mp.isfinite(x):
            raise InvalidParams(f"{what} {v!r} is not finite")
        out.append(x)
    return out

def _order(n, what):
    if not isinstance(n, int) or n < 0:
        raise InvalidParams(f"{what} must be a nonnegative integer, got {n!r}")

def _leading(w, n):
    """w_0..w_n of the coefficients w, as _finite reads them."""
    _order(n, "polynomial order n")
    w = list(w)
    if len(w) < n + 1:
        raise InvalidParams(f"need at least {n + 1} coefficients, got {len(w)}")
    return _finite(w[:n + 1], "coefficient")


class EvenSeries:
    """Truncated even power series: coefficients[j] multiplies z^(2j)."""

    def __init__(self, coefficients):
        self.coefficients = list(coefficients)

    def order(self):
        return len(self.coefficients) - 1

    def __call__(self, z):
        with mp.workdps(mp.dps + 5):
            z2 = _finite([z], "argument")[0] ** 2
            return +mpmath.fsum(c * z2 ** j for j, c in
                                enumerate(_finite(self.coefficients, "coefficient")))


class EvenPolynomial(EvenSeries):
    """Even polynomial of exact degree 2n in z (degree n in u = z^2)."""


def omega_series(G, plan, m):
    """Recover the reciprocal-multiplier coefficients w_0..w_m of a kernel.

    Transforms the kernel samples, fits an even series of order 2m+1 to the
    spectrum at 2(m+1) consecutive small arguments, and inverts the series.
    The fit nodes start at the smallest arguments that still carry the
    z^(4m) signal above the transform's noise floor; starting at the very
    smallest window arguments would put the high coefficients below noise.
    w_0 is normalized to 1 (unit kernel mass).
    """
    _order(m, "series order m")
    params = plan.params
    spec = fourier(G, plan)
    lq = params.log10_inv_q
    need = 2 * (m + 1)
    out = plan.out_grid
    if len(out) < need:
        raise WindowError(f"output window too small for {need} fit nodes")
    signal_start = int((params.precision_digits - 20) // (max(1, 2 * m) * lq))
    n0 = min(out.n_max - need + 1, signal_start)
    n0 = max(n0, out.n_min)
    nodes = list(range(n0, n0 + need))
    solve_dps = 2 * params.precision_digits + 80
    with mp.workdps(solve_dps):
        q = params.q
        A = mp.matrix(need, need)
        rhs = mp.matrix(need, 1)
        for i, l in enumerate(nodes):
            z2 = q ** (2 * l)
            for j in range(need):
                A[i, j] = z2 ** j
            rhs[i] = spec.value_at(l)
        try:
            phi = mp.lu_solve(A, rhs)
        except ZeroDivisionError:
            raise IllConditioned(
                "spectrum fit matrix is numerically singular at this order; "
                "raise precision or lower m") from None
        resid = mp.zero
        for i in range(need):
            row = mpmath.fsum(A[i, j] * phi[j] for j in range(need))
            resid = max(resid, abs(row - rhs[i]) / max(mpf(1), abs(rhs[i])))
        if resid > mpf(10) ** (-params.precision_digits // 2):
            raise IllConditioned(
                f"spectrum fit lost more than half the working digits "
                f"(residual {mp.nstr(resid, 3)})")
        if phi[0] == 0:
            raise IllConditioned("fitted spectrum vanishes at zero")
        w = [1 / phi[0]]
        for k in range(1, m + 1):
            acc = mpmath.fsum(phi[i] * w[k - i] for i in range(1, k + 1))
            w.append(-acc / phi[0])
        w0 = w[0]
        w = [+(v / w0) for v in w]
    return EvenSeries(w)


def _pochs(params, n):
    """((q^(2nu+2); q^2)_i, (q^2; q^2)_i) for i = 0..n at working precision."""
    q = params.q
    nu = params.nu
    a = [qpochhammer_finite(q ** (2 * nu + 2), q * q, i) for i in range(n + 1)]
    b = [qpochhammer_finite(q * q, q * q, i) for i in range(n + 1)]
    return a, b

def qn_polynomial(w, n, params):
    """Finite-window polynomial q_n built from the coefficients w.

    Coefficient of z^(2i) is rho_n (-1)^i q^(i(i+1)) w_(n-i)
    / ((q^(2nu+2); q^2)_i (q^2; q^2)_i), with rho_n the product of the
    operator symbols q^(-2i) - (1+q^(2nu)) + q^(2nu+2i).
    """
    with params.working(15):
        w = _leading(w, n)
        q = params.q
        nu = params.nu
        rho = mp.one
        for i in range(1, n + 1):
            rho *= q ** (-2 * i) - (1 + q ** (2 * nu)) + q ** (2 * nu + 2 * i)
        pa, pb = _pochs(params, n)
        coeffs = []
        for i in range(n + 1):
            c = rho * (-1) ** i * q ** (i * (i + 1)) * w[n - i]
            coeffs.append(+(c / (pa[i] * pb[i])))
    return EvenPolynomial(coeffs)

def Qn_polynomial(w, n, params):
    """Normalized limit polynomial Q_n built from the coefficients w.

    Coefficient of z^(2j) is sigma_nu (-1)^j q^(j^2) w_j
    / ((q^(2nu+2); q^2)_(n-j) (q^2; q^2)_(n-j)).
    """
    with params.working(15):
        w = _leading(w, n)
        q = params.q
        sig = constants(params).sigma_nu
        pa, pb = _pochs(params, n)
        coeffs = []
        for j in range(n + 1):
            c = sig * (-1) ** j * q ** (j * j) * w[j]
            coeffs.append(+(c / (pa[n - j] * pb[n - j])))
    return EvenPolynomial(coeffs)

def lq_map(coefficients, params):
    """Damping map on a coefficient sequence: gamma_n goes to gamma_n q^(n^2).

    Indices are monomial degrees of the series the sequence represents.
    """
    with params.working(10):
        q = params.q
        return [+(c * q ** (n * n))
                for n, c in enumerate(_finite(coefficients, "coefficient"))]


class RootReport:
    """Roots of an even polynomial in the substituted variable u = z^2."""

    def __init__(self, roots_u, all_real, max_imag):
        self.roots_u = roots_u
        self.all_real = all_real
        self.max_imag = max_imag


def real_roots_check(p, params, tol_imag="1e-20"):
    """Decide whether an even polynomial has only real zeros in z.

    Substitutes u = z^2 and finds all u-roots as eigenvalues of the
    companion matrix.  Real zeros in z require every u-root to be real and
    nonnegative (a negative real u gives purely imaginary z).
    """
    tol = parse_number(tol_imag, "tol_imag")
    with params.working(25):
        coeffs = _finite(p.coefficients, "coefficient")
        mxc = max((abs(c) for c in coeffs), default=mp.zero)
        if mxc == 0 or abs(coeffs[-1]) < mpf("1e-30") * mxc:
            raise DegenerateLeading("leading coefficient is numerically zero")
        n = len(coeffs) - 1
        if n == 0:
            return RootReport([], True, mp.zero)
        lead = coeffs[-1]
        monic = [c / lead for c in coeffs]
        comp = mp.matrix(n, n)
        for i in range(n):
            comp[i, n - 1] = -monic[i]
            if i > 0:
                comp[i, i - 1] = mp.one
        eig = mp.eig(comp, left=False, right=False)
        if isinstance(eig, tuple):  # 1x1 input: mpmath returns (E, EL, ER)
            eig = eig[0]
        roots = [+u for u in eig]
        max_imag = max(abs(mp.im(u)) for u in roots)
        all_real = True
        for u in roots:
            scale = max(mp.one, abs(u))
            if abs(mp.im(u)) > tol * scale or mp.re(u) < -tol * scale:
                all_real = False
        return RootReport(roots, all_real, +max_imag)
