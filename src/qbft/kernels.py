"""Variation-diminishing kernel constructions.

A composite kernel is the transform of 1/E where E(t) = exp(c t^2) times a
finite product of zero factors (1 + t^2/a_k^2); the Gauss kernel family h_c
is a separate closed-form object whose transform is a q-exponential.  Both
produce positive, mass-one kernels whose convolution never increases the
sign-change count of a window function.

Lattice integrability of 1/E is a real constraint, not a formality: with
c = 0 the weighted head terms behave like q^(l(2nu+2-2Z)), so Z zero
factors give an L^1 profile only when 2Z > 2nu+2.  Below that the transform
sum still exists pointwise on the I/O window but the object has no kernel
calculus (no mass, no chain), and composite_kernel refuses it.

A composite kernel is kept as a record, one per plan and spec
(_kernel_record): its window store with its mass, mass defect and minimum,
keyed by the plan's identity and the spec's strings, at most
KERNEL_CACHE_CAP of them.  Repeated kernels and the shorter prefixes a
chain compares against read their store from it, and since the stores are
shared, so do transform's lattice records of those kernels.  What depends
on the call (the integrability gate, gap_tol and the chain comparison)
runs on every call, and each report gets its own kernel GridFunction.
"""

import functools
import json
from collections.abc import Sequence

import mpmath
from mpmath import mp, mpf, mpmathify

from .core import (
    DECAY_RAPID, DECAY_UNKNOWN, DomainError, IntegrabilityError, InvalidParams,
    NoWitness, PrecisionExhausted, WindowError, GridFunction, QGrid, constants,
    PackedSamples, decimal_str, lattice_exponent, qpochhammer_infinite,
    q_bessel_operator, parse_number, unsplit_mpf,
)
from .bessel import g_a_lattice, i_nu, lattice_weights
from .transform import multiply_spectrum, norm, spectrum, transform_profile


class KernelSpec:
    """Recipe for a composite kernel: Gaussian weight c and zero scales.

    zeros must be positive and nondecreasing; tail_sum is the convergence
    functional sum(1/a_k^2) of the zero set.
    """

    def __init__(self, c, zeros):
        if isinstance(zeros, (str, bytes)) or not isinstance(zeros, Sequence):
            raise InvalidParams(f"zeros must be a list of scales, got {zeros!r}")
        self.c_str = str(c) if not isinstance(c, float) else repr(c)
        self.zeros_str = tuple(str(a) if not isinstance(a, float) else repr(a)
                               for a in zeros)
        with mp.workdps(40):
            cv = parse_number(self.c_str, "c")
            if cv < 0:
                raise InvalidParams("Gaussian weight c must be nonnegative")
            prev = mp.zero
            for a in self.zeros_str:
                av = parse_number(a, "zero")
                if av <= 0:
                    raise InvalidParams("zero scales must be positive")
                if av < prev:
                    raise InvalidParams("zero scales must be nondecreasing")
                prev = av

    @property
    def c(self):
        return mpmathify(self.c_str)

    @property
    def zeros(self):
        return tuple(mpmathify(a) for a in self.zeros_str)

    def tail_sum(self):
        with mp.workdps(mp.dps + 5):
            return +mpmath.fsum(1 / (a * a) for a in self.zeros)

    def prefix(self, m):
        return KernelSpec(self.c_str, self.zeros_str[:m])

    def reciprocal_profile(self, plan):
        """1/E as a profile for transform_profile: l -> 1/E(q^l).

        q, c and the zeros are materialized once at the plan's working
        precision, the precision transform_profile evaluates profiles at.
        """
        with mp.workdps(plan.dps):
            q = plan.params.q
            c = self.c
            zs = self.zeros
        def profile(l):
            t2 = q ** (2 * l)
            v = mp.e ** (-c * t2) if c != 0 else mp.one
            for a in zs:
                v /= (1 + t2 / (a * a))
            return v
        return profile

    def __repr__(self):
        return f"KernelSpec(c={self.c_str}, zeros={self.zeros_str})"


class KernelReport:
    """Kernel samples plus the evidence gathered while building them."""

    def __init__(self, spec, kernel, mass, mass_defect, min_value,
                 chain, monotone_chain_ok, gap_tol):
        self.spec = spec
        self.kernel = kernel
        self.mass = mass
        self.mass_defect = mass_defect
        self.min_value = min_value
        self.chain = chain  # list of {"prefix", "worst_gap", "at", "skipped"}
        self.monotone_chain_ok = monotone_chain_ok
        self.gap_tol = gap_tol


def E_eval(t, spec, params):
    """E(t) = exp(c t^2) prod_k (1 + t^2 / a_k^2), the reciprocal multiplier."""
    with params.working(15):
        tv = parse_number(t, "t")
        t2 = tv * tv
        val = mp.e ** (spec.c * t2) if spec.c != 0 else mp.one
        for a in spec.zeros:
            val *= (1 + t2 / (a * a))
        return +val

def _is_divergent(spec, params):
    with mp.workdps(30):
        return spec.c == 0 and 2 * len(spec.zeros_str) <= 2 * params.nu + 2

KERNEL_CACHE_CAP = 32
"""Most composite-kernel records _kernel_record keeps, each a window store
of at most MAX_PLAN_POINTS samples of about 36 bytes at a plan's 75 digits
and three mpf, besides the plan of its key, which it keeps alive."""

@functools.lru_cache(maxsize=KERNEL_CACHE_CAP)
def _kernel_record(plan, c_str, zeros_str):
    """The composite kernel of KernelSpec(c_str, zeros_str) through plan,
    memoized: (window store, mass, mass_defect, min_value).

    The store is transform_profile's window samples of 1/E.  The mass is
    c (1-q) sum q^(n(2nu+2)) K(q^n) over the window at the plan's working
    precision, the defect its distance to 1/E(0) = 1, and the minimum the
    least sample.  The plan is keyed by identity, as transform._record keys
    it, and the spec by its strings; the store is never mutated, so every
    report and chain comparison of the kernel shares it.
    """
    spec = KernelSpec(c_str, zeros_str)
    params = plan.params
    samples = transform_profile(plan, spec.reciprocal_profile(plan)).samples
    with mp.workdps(plan.dps):
        q = params.q
        c = constants(params, plan.dps).c_q_nu
        grid = samples.grid
        kernel_values = samples.values
        weights = unsplit_mpf(*lattice_weights(params, grid.n_min, grid.n_max))
        mass = c * (1 - q) * mpmath.fsum(w * v for w, v in zip(weights, kernel_values))
        mass = +mass
        mass_defect = +abs(mass - 1)
        min_value = +min(kernel_values)
    return samples, mass, mass_defect, min_value

def composite_kernel(spec, plan, chain=True, gap_tol=None):
    """Transform 1/E into kernel samples on the plan's output window.

    Reports the kernel's mass against the independent normalization
    1/E(0) = 1, its minimum sample, and, when the spec has several zeros,
    the pointwise comparison of the kernel against each shorter-prefix
    kernel (skipping prefixes that fail the integrability gate).

    The samples, mass, defect and minimum come from the memoized record of
    (plan, spec strings), _kernel_record, and so does each compared
    prefix's store: a repeated kernel, or one that is another's prefix,
    computes no row.  The integrability gate and the gap_tol parse run on
    every call, before the memo is read, so a divergent spec is refused
    each time and never enters it.  report.kernel is a new GridFunction
    over the record's store; assigning its .values repacks its own samples
    and leaves the record's untouched.
    """
    params = plan.params
    if _is_divergent(spec, params):
        z = len(spec.zeros_str)
        raise IntegrabilityError(
            f"1/E with c=0 and {z} zero factor(s) is not lattice-integrable "
            f"at nu={params.nu_str}; supply more zero factors")
    gap_tol = mpf("1e-25") if gap_tol is None else parse_number(gap_tol, "gap_tol")
    samples, mass, mass_defect, min_value = _kernel_record(
        plan, spec.c_str, spec.zeros_str)
    chain_rows = []
    chain_ok = None
    if chain and len(spec.zeros_str) >= 2:
        chain_ok = True
        kernel_values = samples.values
        for m in range(1, len(spec.zeros_str)):
            sub = spec.prefix(m)
            if _is_divergent(sub, params):
                chain_rows.append({"prefix": m, "skipped": True,
                                   "worst_gap": None, "at": None})
                continue
            sub_samples = _kernel_record(plan, sub.c_str, sub.zeros_str)[0]
            with mp.workdps(plan.dps):
                worst = None
                worst_at = None
                for n, v, w in zip(samples.grid.exponents(), kernel_values,
                                   sub_samples.values):
                    gap = +(v - w)
                    if worst is None or gap < worst:
                        worst = gap
                        worst_at = n
            chain_rows.append({"prefix": m, "skipped": False,
                               "worst_gap": worst, "at": worst_at})
            if worst < -gap_tol:
                chain_ok = False
    return KernelReport(spec, GridFunction.packed(samples, DECAY_RAPID), mass,
                        mass_defect, min_value, chain_rows, chain_ok, gap_tol)


def _gauss_constants(c, params):
    """The x-free parts of h_c at the caller's precision: q^2, c^2, -q^(-2nu)
    and the ratio of its four c-only q-Pochhammer products."""
    cv = parse_number(c, "c")
    if cv <= 0:
        raise DomainError("Gauss kernel width must be positive")
    q = params.q
    nu = params.nu
    q2 = q * q
    c2 = cv * cv
    num = (qpochhammer_infinite(-q ** (2 * nu + 2) * c2, q2)
           * qpochhammer_infinite(-q ** (-2 * nu) / c2, q2))
    den = (qpochhammer_infinite(-c2, q2)
           * qpochhammer_infinite(-q2 / c2, q2))
    return q2, c2, -q ** (-2 * nu), num / den

def _gauss_at(xv, consts):
    q2, c2, s, ratio = consts
    return +(ratio / qpochhammer_infinite(s * xv * xv / c2, q2))

def gauss_kernel(x, c, params):
    """Gauss kernel h_c(x), mass-one for every width c > 0.

    Evaluated through the reciprocal-product form of the q-exponential, which
    stays valid where the series form of e does not converge.  Its transform
    is e(-c^2 t^2; q^2).
    """
    with params.working(15):
        consts = _gauss_constants(c, params)
        return _gauss_at(parse_number(x, "x"), consts)

def gauss_kernel_grid(c, params, grid=None):
    """Gauss kernel sampled on a window, tagged rapid.

    The c-only products are computed once for the whole window, at the same
    precision gauss_kernel uses, so each sample equals gauss_kernel(q^n, c).
    """
    grid = grid or QGrid()
    with params.working(10):
        q = params.q
        xs = [q ** n for n in grid.exponents()]
    with params.working(15):
        consts = _gauss_constants(c, params)
        vals = [_gauss_at(x, consts) for x in xs]
    return GridFunction(grid, vals, DECAY_RAPID)


GAUSS_ROW_CACHE_CAP = 32
"""Most Gauss multiplier rows _gauss_multiplier keeps, each at most
MAX_PLAN_POINTS samples of about 36 bytes at a plan's 75 digits."""

@functools.lru_cache(maxsize=GAUSS_ROW_CACHE_CAP)
def _gauss_multiplier(params, n, lo, hi, dps):
    """The spectral multiplier 1/(-q^(2n) t^2; q^2)_inf of h_(q^n) at t = q^l,
    for l = lo..hi, at dps digits, packed on the lattice [lo, hi] as the
    split integers multiply_spectrum reads, memoized.

    One infinite product at the small-t end l = hi, then the telescoping
    (-q^(2n+2l); q^2)_inf = (1 + q^(2n+2l)) (-q^(2n+2l+2); q^2)_inf swept
    toward l = lo at dps + 10 digits, and the reciprocals taken at dps.  A
    step rounds the power, the sum and the product, at most about 3 units of
    10^-(dps+10), so over L = hi - lo + 1 points the products' relative error
    is at most 3L 10^-(dps+10) plus the starting product's tolerance
    10^-(dps+12).  For L <= MAX_PLAN_POINTS = 2000 that is below 10^-(dps+6).
    """
    with mp.workdps(dps + 10):
        q = params.q
        q2 = q * q
        p = qpochhammer_infinite(-q2 ** (n + hi), q2)
        prods = [p]
        for l in range(hi - 1, lo - 1, -1):
            p = (1 + q2 ** (n + l)) * p
            prods.append(p)
    with mp.workdps(dps):
        return PackedSamples(QGrid(lo, hi), [1 / p for p in reversed(prods)])

def approx_identity_run(f, plan, ns=(2, 4, 6, 8)):
    """Distances ||f - f * h_(q^n)||_1 for shrinking Gauss widths q^n.

    The convolutions go through the spectral multiplier e(-q^(2n) t^2; q^2)
    of the Gauss kernel, one telescoped row per n, applied to f's spectrum,
    which is computed once for all widths and read from its memoized
    record.  The row enters multiply_spectrum packed, as its integers, from
    a memo keyed on the plan's params, n, lattice and dps
    (_gauss_multiplier).
    For an approximate identity the distances must shrink as n grows.
    """
    params = plan.params
    results = []
    ov_lo = max(f.grid.n_min, plan.out_grid.n_min)
    ov_hi = min(f.grid.n_max, plan.out_grid.n_max)
    if ov_lo > ov_hi:
        raise WindowError("input and output windows do not overlap")
    f_ov = f.values[ov_lo - f.grid.n_min:ov_hi - f.grid.n_min + 1]
    lo = ov_lo - plan.out_grid.n_min
    spec = spectrum(f, plan)
    for n in ns:
        row = _gauss_multiplier(params, n, plan.lat_lo, plan.lat_hi, plan.dps)
        conv = multiply_spectrum(plan, spec, row)
        with mp.workdps(plan.dps):
            diff = GridFunction(
                QGrid(ov_lo, ov_hi),
                [a - b for a, b in zip(f_ov, conv.values[lo:])],
                DECAY_RAPID)
        results.append((n, norm(diff, 1, params)))
    return results


def order_diagnostic(G, params, candidates=None, points=16, slack="1e-8"):
    """Estimate the largest g_a enveloping G at infinity.

    Scans candidate scales a = q^m and checks that G/g_a is non-increasing
    over the `points` largest grid points of G's window; returns the largest
    passing a with its ratio profile.  A candidate whose g_a is 0 or refused
    at a scanned point is skipped.  Raises NoWitness when no candidate
    passes, which callers should treat as a diagnostic outcome.  points must
    be an integer >= 2, since a shorter profile passes every candidate;
    anything else raises InvalidParams, and a window of one point
    WindowError.
    """
    if not (isinstance(points, int) and points >= 2):
        raise InvalidParams(f"points must be an integer >= 2, got {points!r}")
    if len(G.grid) < 2:
        raise WindowError("order_diagnostic needs a window of at least 2 points")
    if candidates is None:
        candidates = [params.q ** m for m in range(-8, 13)]
    points = min(points, len(G.grid))
    slack = parse_number(slack, "slack")
    kcache = {}
    def k_at(e):
        if e not in kcache:
            try:
                kcache[e] = g_a_lattice(e, 1, params)
            except (PrecisionExhausted, WindowError):
                kcache[e] = 0  # a refused g_a is skipped like a zero one
        return kcache[e]
    best = None
    best_profile = None
    with params.working(10):
        exps = list(range(G.grid.n_min, G.grid.n_min + points))
        for a in candidates:
            m = lattice_exponent(a, params, "candidate scale")
            scale = unsplit_mpf(*lattice_weights(params, m, m))[0]
            ratios = []
            ok = True
            for n in exps:
                ga = scale * k_at(n + m)
                if ga == 0:
                    ok = False
                    break
                ratios.append(G.value_at(n) / ga)
            if not ok:
                continue
            # exps run from large x to small x; require non-increasing in x
            for i in range(len(ratios) - 1):
                if ratios[i] > ratios[i + 1] * (1 + slack):
                    ok = False
                    break
            if ok:
                av = mpmathify(a)
                if best is None or av > best:
                    best = +av
                    best_profile = [+r for r in ratios]
    if best is None:
        raise NoWitness(
            "no scanned scale a yields a non-increasing G/g_a tail profile")
    return best, best_profile


def factorization_check(h, a, params):
    """Both sides of the second-order factorization through i_nu.

    Left: (1 - Delta/a^2) h.  Right: -q^(2nu-1) (1-q)^2 / (a^2 x^(2nu+1)
    i_nu(ax)) times the inverse-shifted q-derivative of
    x^(2nu+1) i_nu(ax) i_nu(aqx) D_q[h / i_nu(a.)].
    Returns (lhs, rhs) on the window shrunk by one exponent at each edge.
    """
    if len(h.grid) < 3:
        raise WindowError("factorization check needs at least three grid points")
    ja = lattice_exponent(a, params, "a")
    with params.working(25):
        q = params.q
        nu = params.nu
        av = params.q ** ja
        ivals = {n: i_nu(q ** (n + ja), params) for n in
                 range(h.grid.n_min, h.grid.n_max + 2)}
        def u(n):
            return h.value_at(n) / ivals[n]
        def dqu(n):
            return (u(n) - u(n + 1)) / ((1 - q) * q ** n)
        def w(n):
            return q ** (mpf(n) * (2 * nu + 1)) * ivals[n] * ivals[n + 1] * dqu(n)
        lhs_gf = q_bessel_operator(h, params)
        out_lo = h.grid.n_min + 1
        out_hi = h.grid.n_max - 1
        lhs = []
        rhs = []
        pref = -q ** (2 * nu - 1) * (1 - q) ** 2
        for n in range(out_lo, out_hi + 1):
            lhs.append(+(h.value_at(n) - lhs_gf.value_at(n) / (av * av)))
            ldw = (w(n - 1) - w(n)) / ((1 - q) * q ** (n - 1))
            rhs.append(+(pref * ldw / (av * av * q ** (mpf(n) * (2 * nu + 1))
                                       * ivals[n])))
    grid = QGrid(out_lo, out_hi)
    return (GridFunction(grid, lhs, DECAY_UNKNOWN),
            GridFunction(grid, rhs, DECAY_UNKNOWN))


# ---------------------------------------------------------------------------
# report serialization

def kernel_report_to_json(report, params):
    d = params.precision_digits + 10
    payload = {
        "spec": {"c": report.spec.c_str, "zeros": list(report.spec.zeros_str)},
        "mass": decimal_str(report.mass, d),
        "mass_defect": decimal_str(report.mass_defect, 10),
        "min_value": decimal_str(report.min_value, d),
        "monotone_chain_ok": report.monotone_chain_ok,
        "gap_tol": decimal_str(report.gap_tol, 5),
        "chain": [
            {"prefix": row["prefix"], "skipped": row["skipped"],
             "worst_gap": None if row["worst_gap"] is None
             else decimal_str(row["worst_gap"], 10),
             "at": row["at"]}
            for row in report.chain],
        "n_min": report.kernel.grid.n_min,
        "n_max": report.kernel.grid.n_max,
        "values": [decimal_str(v, d) for v in report.kernel.values],
    }
    return json.dumps(payload, indent=1)
