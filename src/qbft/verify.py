"""One-shot verification suite for the library's primary guarantees.

Each criterion is a self-contained check that returns its verdict, a
measure against its stated threshold and a detail line; `run_suite` times
each check and labels its `CriterionResult` with the criterion's number.
The suite is shared by the command line (`qbft verify`) and the acceptance
tests, so there is exactly one implementation of every check.

Criterion 8 (pointwise domination within a kernel chain) fails by
measurement, not by defect: the inequality it asserts does not hold on the
small-x half of the window, where same-mass kernels must cross.  The
criterion is still computed faithfully and reported as the violation it is.
"""

import json
import time

from mpmath import mp, mpf

from .core import (
    QGrid, GridFunction, DECAY_RAPID, InvalidParams, WindowError, decimal_str,
)
from .bessel import d_nu, g_a_floored, g_a_lattice, j_nu_lattice
from .transform import (
    build_plan, convolve_direct, fourier, norm, spectrum, transform_profile,
)
from .kernels import (
    KernelSpec, approx_identity_run, composite_kernel, gauss_kernel_grid,
)
from .variation import Qn_polynomial, omega_series, real_roots_check, vd_check
from .corpus import load_corpus, reference_params, REFERENCE_GRID

ALL_NUS = ("-0.5", "0", "0.5", "1")
REFERENCE_NU = "0.5"

EXPECTED_FAIL = {8}


class CriterionResult:
    def __init__(self, ident, passed, measure, threshold, seconds, detail=""):
        self.ident = ident
        self.title = CRITERIA[ident]
        self.passed = passed
        self.measure = measure
        self.threshold = threshold
        self.seconds = seconds
        self.detail = detail
        self.expected_fail = ident in EXPECTED_FAIL

    def line(self):
        verdict = "PASS" if self.passed else "FAIL"
        extra = " (known violation)" if (not self.passed and self.expected_fail) else ""
        return (f"criterion {self.ident:2d} [{self.title}]: {verdict}  "
                f"measure={self.measure} vs {self.threshold}  "
                f"({self.seconds:.1f}s){extra}")


class SuiteReport:
    def __init__(self, results, seconds, params):
        self.results = results
        self.seconds = seconds
        self.params = params

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def lines(self):
        out = [r.line() for r in self.results]
        verdict = "ALL PASS" if self.passed else "VIOLATIONS PRESENT"
        out.append(f"suite: {verdict} ({self.seconds:.1f}s total)")
        return out

    def to_json(self):
        return json.dumps({
            "passed": self.passed,
            "seconds": round(self.seconds, 2),
            "params": {"q": self.params.q_str,
                       "precision_digits": self.params.precision_digits,
                       "tol": self.params.tol_str},
            "results": [{
                "criterion": r.ident, "title": r.title, "passed": r.passed,
                "expected_fail": r.expected_fail, "measure": str(r.measure),
                "threshold": str(r.threshold), "seconds": round(r.seconds, 2),
                "detail": r.detail,
            } for r in self.results],
        }, indent=1)


class _Context:
    """Shared plans and corpus (by member name) for one suite run; spectra
    are memoized by transform itself, per plan and source."""

    def __init__(self, precision_digits=60, tol="1e-40", window=None):
        self.window = window or REFERENCE_GRID
        self.digits = precision_digits
        self.tol = tol
        self._plans = {}
        self.corpus = {e.name: e for e in load_corpus(precision_digits, tol)}

    def params(self, nu):
        return reference_params(self.digits, self.tol).replace(nu=nu)

    def plan(self, nu):
        if nu not in self._plans:
            self._plans[nu] = build_plan(self.params(nu), self.window)
        return self._plans[nu]


def _interior(window):
    """Exponents n_min + 8 .. n_max - 8 of the window, clear of its edges,
    where the criteria that need "interior" compare spectra; WindowError
    when the band is empty, since a window shorter than 17 points has none."""
    lo, hi = window.n_min + 8, window.n_max - 8
    if lo > hi:
        raise WindowError(
            f"window [{window.n_min}, {window.n_max}] has no "
            f"interior band [n_min + 8, n_max - 8]; it needs at least "
            f"17 points")
    return range(lo, hi + 1)

def _check_window(window, idents):
    """Refuse, before anything is loaded, a window the requested criteria
    cannot check: one without an interior band (needed by "interior"
    criteria), then one that does not cover the corpus window ("corpus"
    criteria compare corpus members over their whole window)."""
    if any("interior" in _SUITE[i][2] for i in idents):
        _interior(window)
    corpus = [i for i in idents if "corpus" in _SUITE[i][2]]
    if corpus and (window.n_min > REFERENCE_GRID.n_min
                   or window.n_max < REFERENCE_GRID.n_max):
        raise WindowError(
            f"window [{window.n_min}, {window.n_max}] does not cover the corpus "
            f"window [{REFERENCE_GRID.n_min}, {REFERENCE_GRID.n_max}] that "
            f"criteria {corpus} compare over")


def _rel_sup_distance(f, g, window):
    """max |f - g| / max |f| over a common window of exponents."""
    with mp.workdps(40):
        sup = max(abs(f.value_at(n)) for n in window)
        worst = max(abs(f.value_at(n) - g.value_at(n)) for n in window)
        return +(worst / sup)


def _criterion_1(ctx):
    threshold = mpf("1e-25")
    worst = mp.zero
    t0 = time.perf_counter()
    for nu in ALL_NUS:
        plan = ctx.plan(nu)
        for entry in ctx.corpus.values():
            back = fourier(spectrum(entry.f, plan), plan)
            r = _rel_sup_distance(entry.f, back, entry.f.grid.exponents())
            if r > worst:
                worst = r
    # the time bound is part of the verdict, so this criterion keeps a clock
    ok = worst <= threshold and time.perf_counter() - t0 < 60
    return (ok, decimal_str(worst, 6), f"<= {decimal_str(threshold, 6)}",
            "48 double transforms, sup-norm relative; time bound 60s")

def _criterion_2(ctx):
    threshold = mpf("1e-25")
    worst = mp.zero
    for nu in ALL_NUS:
        params = ctx.params(nu)
        for entry in ctx.corpus.values():
            if not entry.plancherel:
                continue
            # the corpus member vanishes off its window, so norm() over the
            # window is its exact whole-line norm; the spectrum spreads over
            # the entire lattice, so its norm must be summed there
            with mp.workdps(ctx.digits + 10):
                n_f = norm(entry.f, 2, params)
                n_t = norm(spectrum(entry.f, ctx.plan(nu)), 2, params)
                r = abs(n_f - n_t) / n_f
            if r > worst:
                worst = r
    return (worst <= threshold, decimal_str(worst, 6), f"<= {decimal_str(threshold, 6)}",
            "2-norm of f vs its whole-lattice spectrum, all four nu")

def _criterion_3(ctx):
    threshold = mpf("1e-25")
    worst = mp.zero
    for nu in ALL_NUS:
        params = ctx.params(nu)
        dps = ctx.digits + 30
        with mp.workdps(dps):
            q = params.q
            nuv = params.nu
            co = 1 + q ** (2 * nuv)

            def stencil(u, n):
                """Delta u at q^n and the same three-point sum of |u|."""
                return (q ** (-2 * n) * (u[n - 1] - co * u[n] + q ** (2 * nuv) * u[n + 1]),
                        q ** (-2 * n) * (abs(u[n - 1]) + co * abs(u[n])
                                         + q ** (2 * nuv) * abs(u[n + 1])))

            for a_exp in (2, 0, -2):
                a2 = q ** (2 * a_exp)
                # eigenfunction side: the operator acts as -a^2 on j(a.)
                v = {n: j_nu_lattice(a_exp + n, params, dps)
                     for n in range(-13, 26)}
                for n in range(-12, 25):
                    delta, mass = stencil(v, n)
                    r = abs(delta + a2 * v[n]) / (mass + a2 * abs(v[n]))
                    if r > worst:
                        worst = r
                # resolvent side: (1 - Delta/a^2) g_a vanishes on the lattice
                a = q ** a_exp
                w = {n: g_a_lattice(n, a, params)
                     for n in range(-5, 12)}
                for n in range(-4, 11):
                    delta, mass = stencil(w, n)
                    r = abs(w[n] - delta / a2) / (abs(w[n]) + mass / a2)
                    if r > worst:
                        worst = r
    return (worst <= threshold, decimal_str(worst, 6), f"<= {decimal_str(threshold, 6)}",
            "stencil residuals against local scale, a in {q^2, 1, q^-2}")

def _ga_samples(params, a_exp, grid):
    """Per-point adaptive g_a on a grid, flooring certified-tiny values."""
    with params.working(15):
        a = params.q ** a_exp
        vals = [mp.zero if g_a_floored(n + a_exp, params)
                else g_a_lattice(n, a, params)
                for n in grid.exponents()]
    return GridFunction(grid, vals, DECAY_RAPID)

def _criterion_4(ctx):
    thr_pair = mpf("1e-20")
    interior = _interior(ctx.window)
    positive = True
    worst_pair = mp.zero
    for nu in ALL_NUS:
        params = ctx.params(nu)
        plan = ctx.plan(nu)
        # the pair check samples g_a over the whole plan lattice: g_a levels
        # off to a positive constant at small x, and for slow measure weights
        # (nu near -1) the mass beyond the window still moves the quadrature
        # at every small-x output point
        full = QGrid(plan.lat_lo, plan.lat_hi)
        for a_exp in (2, 0, -2):
            g = _ga_samples(params, a_exp, full)
            if a_exp == 0:
                # per-point kernel positivity on the window, which the plan
                # lattice contains; a floored sample's positivity is
                # certified by the bound
                for n in ctx.window.exponents():
                    if not g_a_floored(n, params) and g.value_at(n) <= 0:
                        positive = False
            spec = fourier(g, plan)
            with mp.workdps(ctx.digits + 10):
                q = params.q
                a2 = q ** (2 * a_exp)
                d = max(abs(spec.value_at(k) - 1 / (1 + q ** (2 * k) / a2))
                        for k in interior)
            if d > worst_pair:
                worst_pair = d
    return (positive and worst_pair <= thr_pair,
            f"positivity={positive}, pair={decimal_str(worst_pair, 6)}",
            f"positive and <= {decimal_str(thr_pair, 6)}",
            "per-point kernel positivity on the window; F(g_a) vs Lorentz profile")

def _criterion_5(ctx):
    threshold = mpf("1e-20")
    worst_spread = mp.zero
    all_positive = True
    values = []
    for nu in ALL_NUS:
        mean, spread = d_nu(ctx.params(nu), with_spread=True)
        values.append((nu, mean))
        if spread > worst_spread:
            worst_spread = spread
        if not mean > 0:
            all_positive = False
    ok = all_positive and worst_spread <= threshold
    detail = ", ".join(f"d({nu})={decimal_str(v, 8)}" for nu, v in values)
    return (ok, f"spread={decimal_str(worst_spread, 6)}, positive={all_positive}",
            f"<= {decimal_str(threshold, 6)} and positive", detail)

CONVOLUTION_PAIRS = [
    ("lorentz_1", "lorentz_q2"),
    ("lorentz_1", "gauss_1"),
    ("step_one_flip", "lorentz_1"),
    ("step_three_flips", "gauss_half"),
    ("const_plus", "lorentz_qm2"),
    ("alternating_burst", "lorentz_1"),
]

def _criterion_6(ctx):
    threshold = mpf("1e-20")
    interior = _interior(ctx.window)
    plan = ctx.plan(REFERENCE_NU)
    worst = mp.zero
    for name_f, name_g in CONVOLUTION_PAIRS:
        f = ctx.corpus[name_f]
        g = ctx.corpus[name_g]
        lhs = fourier(convolve_direct(f.f, g.f, plan), plan)
        ff = spectrum(f.f, plan)
        fg = spectrum(g.f, plan)
        with mp.workdps(plan.dps):
            scale = max(abs(ff.value_at(k) * fg.value_at(k)) for k in interior)
            d = max(abs(lhs.value_at(k) - ff.value_at(k) * fg.value_at(k))
                    for k in interior)
            r = +(d / scale)
        if r > worst:
            worst = r
    return (worst <= threshold, decimal_str(worst, 6), f"<= {decimal_str(threshold, 6)}",
            "spectrum of the definitional convolution vs product "
            "of spectra, six corpus pairs")

def _vd_kernels(ctx):
    """The five kernels of the variation check, as window samples."""
    plan = ctx.plan(REFERENCE_NU)
    params = ctx.params(REFERENCE_NU)
    # neither 1/E is integrable at this nu; their transforms exist pointwise
    g_q = transform_profile(plan, KernelSpec("0", (params.q_str,))
                            .reciprocal_profile(plan))
    g_1 = transform_profile(plan, KernelSpec("0", ("1",)).reciprocal_profile(plan))
    h = gauss_kernel_grid("0.5", params, ctx.window)
    comp12 = composite_kernel(KernelSpec("0", ("1", "2")), plan, chain=False).kernel
    comp25 = composite_kernel(KernelSpec("0.25", ("1",)), plan, chain=False).kernel
    return [("g_q", g_q), ("g_1", g_1), ("gauss_0.5", h),
            ("composite_0_(1,2)", comp12), ("composite_0.25_(1)", comp25)]

def _criterion_7(ctx):
    plan = ctx.plan(REFERENCE_NU)
    violations = 0
    checks = 0
    worst_excess = 0
    for kname, kernel in _vd_kernels(ctx):
        report = vd_check(kernel, [e.f for e in ctx.corpus.values()], plan,
                          names=list(ctx.corpus))
        for row in report.rows:
            checks += 1
            excess = row["v_out"] - row["v_in"]
            if excess > worst_excess:
                worst_excess = excess
            if not row["ok"]:
                violations += 1
    return (violations == 0, f"{violations} violations in {checks} checks",
            "zero violations", f"worst variation excess {worst_excess}")

def _criterion_8(ctx):
    plan = ctx.plan(REFERENCE_NU)
    report = composite_kernel(KernelSpec("0", ("1", "2", "4")), plan, chain=True)
    compared = [row for row in report.chain if not row["skipped"]]
    skipped = [row["prefix"] for row in report.chain if row["skipped"]]
    with mp.workdps(20):
        worst = min((row["worst_gap"] for row in compared), default=mp.zero)
    detail = (f"prefixes skipped by integrability: {skipped}; "
              + "; ".join(f"vs prefix {row['prefix']}: worst gap "
                          f"{decimal_str(row['worst_gap'], 6)} at n={row['at']}"
                          for row in compared))
    return (report.monotone_chain_ok is True, f"worst gap {decimal_str(worst, 6)}",
            ">= -1e-25 pointwise", detail)

def _criterion_9(ctx):
    threshold = mpf("1e-10")
    plan = ctx.plan(REFERENCE_NU)
    params = ctx.params(REFERENCE_NU)
    kernel = composite_kernel(KernelSpec("0", ("1", "2")), plan, chain=False).kernel
    w = omega_series(kernel, plan, 4).coefficients
    with mp.workdps(40):
        targets = [mpf(1), mpf("1.25"), mpf("0.25")]
        worst = max(abs(w[j] - targets[j]) / targets[j] for j in range(3))
    roots_ok = True
    max_imag = mp.zero
    for n in (1, 2):
        rep = real_roots_check(Qn_polynomial(w, n, params), params, "1e-20")
        roots_ok = roots_ok and rep.all_real
        if rep.max_imag > max_imag:
            max_imag = rep.max_imag
    return (
        worst <= threshold and roots_ok,
        f"coeff rel err {decimal_str(worst, 6)}, real-rooted={roots_ok}",
        f"<= {decimal_str(threshold, 6)} and real-rooted",
        f"recovered w = ({', '.join(decimal_str(v, 12) for v in w[:3])}); "
        f"max imaginary part {decimal_str(max_imag, 6)}")

def _criterion_10(ctx):
    plan = ctx.plan(REFERENCE_NU)
    runs = approx_identity_run(ctx.corpus["lorentz_1"].f, plan, (2, 4, 6, 8))
    with mp.workdps(30):
        dists = [d for _, d in runs]
        strict = all(dists[i] > dists[i + 1] for i in range(len(dists) - 1))
        positive = all(d > 0 for d in dists)
    ok = strict and positive
    detail = ", ".join(f"n={n}: {decimal_str(d, 6)}" for n, d in runs)
    return (ok, "strictly decreasing" if ok else "not decreasing",
            "strict decrease over n=2,4,6,8", detail)


# Each criterion's title, check and window needs: "interior" for a check
# over the interior band, "corpus" for one over the whole corpus window.
_SUITE = {
    1: ("transform inversion on the corpus", _criterion_1, {"corpus"}),
    2: ("norm preservation on the rapid-decay subset", _criterion_2, {"corpus"}),
    3: ("eigenfunction and resolvent residuals", _criterion_3, set()),
    4: ("kernel positivity and the Lorentz transform pair", _criterion_4, {"interior"}),
    5: ("constancy and positivity of d_nu", _criterion_5, set()),
    6: ("convolution theorem across independent routes", _criterion_6,
        {"interior", "corpus"}),
    7: ("variation diminishing under five kernels", _criterion_7, set()),
    8: ("pointwise domination within a kernel chain", _criterion_8, set()),
    9: ("spectrum inversion and limit-polynomial real-rootedness", _criterion_9, set()),
    10: ("approximate-identity contraction", _criterion_10, set()),
}

CRITERIA = {i: title for i, (title, _, _) in _SUITE.items()}


def run_suite(only=None, precision_digits=60, tol="1e-40", window=None,
              progress=None):
    """Run the requested criteria (default: all ten) and collect a report.

    Each check returns (passed, measure, threshold, detail); the suite times
    the call and builds its `CriterionResult`, and `progress`, when given,
    receives each result's line as it completes.  Before anything is
    loaded, an `only` that is not a non-empty list of criterion numbers
    (ints, not bools), then a number given twice, raises InvalidParams, and
    a window the requested criteria cannot check raises WindowError (see
    _check_window).
    """
    if only is not None:
        if not isinstance(only, list) or not only:
            raise InvalidParams(
                f"criteria must be a non-empty list of numbers, got {only!r}")
        bad = [i for i in only if type(i) is not int or i not in _SUITE]
        if bad:
            raise InvalidParams(f"unknown criteria: {bad}")
    idents = sorted(only or _SUITE)
    dup = sorted({a for a, b in zip(idents, idents[1:]) if a == b})
    if dup:
        raise InvalidParams(f"duplicate criteria: {dup}")
    _check_window(window or REFERENCE_GRID, idents)
    ctx = _Context(precision_digits, tol, window)
    results = []
    t0 = time.perf_counter()
    for i in idents:
        t1 = time.perf_counter()
        passed, measure, threshold, detail = _SUITE[i][1](ctx)
        res = CriterionResult(i, passed, measure, threshold,
                              time.perf_counter() - t1, detail)
        results.append(res)
        if progress:
            progress(res.line())
    return SuiteReport(results, time.perf_counter() - t0,
                       ctx.params(REFERENCE_NU))
