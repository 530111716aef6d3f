"""Special-function layer: the oscillatory series, its all-positive companion,
the positive kernel family, and the Wronskian-type constant tying them together.

Reference values are frozen from independent computations: exact-rational
series summation (Fraction arithmetic, printed at >=100 digits) for the series
values, and a separate fixed-precision direct quadrature for the kernel values.
They are stored as strings and materialized inside an explicit precision
context, never at import time.
"""

import contextlib
import functools
import inspect
import io
import itertools
import json
import math
import pickle
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpmathify

from qbft import bessel, core
from qbft.core import (
    DECAY_INTEGRABLE,
    ConstancyViolation,
    DomainError,
    GridFunction,
    InvalidParams,
    NonConvergent,
    PrecisionExhausted,
    QGrid,
    QParams,
    WindowError,
    constants,
    exact_dot,
    jackson_integral_infinite,
    lambda_shift,
    q_bessel_operator,
    q_derivative,
    split_mpf,
    unsplit_mpf,
)
from qbft.bessel import (
    bound_constant,
    d_nu,
    decay_bound_log10,
    envelope_scale,
    g_a,
    g_a_floored,
    g_a_lattice,
    i_nu,
    j_nu,
    j_nu_lattice,
    j_nu_lattice_row,
    k_nu,
    quadrature_range,
    triple_kernel,
)
from qbft.cli import main
from qbft.transform import build_plan, fourier

# Independent oracles, q = 1/2.  "HALF"/"ZERO"/"ONE" name the order nu.
J_HALF_X1 = ("0.64484593838907510295718032880451682604418403538969573548977"
             "9938181550877358419231705201893989772501098469")
J_HALF_XQM3 = ("-0.000036096625839272076359587243402182694224703224428485144"
               "6423225469754741405807685516431749841123017864713685")
J_HALF_XQ2 = ("0.97629278037588493169060652399332822721993243165285102403098"
              "0441029687233782583070176287227611664283381454")
I_HALF_X1 = ("1.40758951315651921251308029991900099591412396992184751593489"
             "802135707259394598444258412379219858747043920")
J_ZERO_X1 = ("0.58665286961127967697267173926937091299764085869450964301717"
             "490094395835421340940883567014908773480891066315412")
I_ZERO_X1 = ("1.47656101969506905989751868702620725099048617912053171220716"
             "74306033265557053492941398347315993215704188313765")
K_HALF_X1 = ("0.28882648486387530609399935615501325376144419437039652639200"
             "772681064841726094962552850232889695478355287576643")
K_HALF_XQ3 = ("10.62997302139782384670592131305197479958791544816104262008"
              "9736566602587312049453997240618416975736690161415186")


def rel_err(got, want):
    w = mpmathify(want)
    return abs(got - w) / abs(w)


@functools.lru_cache(maxsize=None)
def _kernel_at(nu_str, m):
    """Memoized kernel samples shared across the module's tests."""
    from qbft.core import QParams
    p = QParams().replace(nu=nu_str)
    with mp.workdps(90):
        return +k_nu(p.q ** m, p)


@pytest.fixture(scope="module")
def kernel_window(params):
    """Kernel sampled over a window wide enough that the transform identities
    close well below tolerance on both ends."""
    grid = QGrid(-18, 70)
    vals = [_kernel_at("0.5", n) for n in grid.exponents()]
    return grid, vals


class TestOscillatorySeries:
    def test_value_at_zero_is_exactly_one(self, params):
        assert j_nu("0", params).value == 1

    def test_matches_independent_oracle_half_order(self, params):
        with mp.workdps(80):
            assert rel_err(j_nu("1", params).value, J_HALF_X1) < mpf("1e-40")

    def test_matches_independent_oracle_order_zero(self, params):
        with mp.workdps(80):
            got = j_nu("1", params.replace(nu="0")).value
            assert rel_err(got, J_ZERO_X1) < mpf("1e-40")

    def test_lattice_value_above_one_matches_oracle(self, params):
        with mp.workdps(80):
            assert rel_err(j_nu_lattice(-3, params), J_HALF_XQM3) < mpf("1e-40")

    def test_lattice_value_inside_unit_interval_matches_oracle(self, params):
        with mp.workdps(80):
            assert rel_err(j_nu_lattice(2, params), J_HALF_XQ2) < mpf("1e-40")

    def test_ladder_and_lattice_paths_agree(self, params):
        with mp.workdps(80):
            via_ladder = j_nu("8", params).value  # 8 = q^-3
            assert rel_err(via_ladder, j_nu_lattice(-3, params)) < mpf("1e-50")

    def test_sign_oscillates_past_the_first_zero(self, params):
        assert j_nu_lattice(2, params) > 0
        assert j_nu_lattice(-3, params) < 0

    def test_envelope_bound_at_deep_point(self, params):
        with mp.workdps(70):
            b = bound_constant(params)
            assert abs(j_nu_lattice(-6, params)) <= b * params.q ** 48

    def test_envelope_bound_across_the_lattice(self, params):
        with mp.workdps(70):
            b = bound_constant(params)
            q = params.q
            nu = params.nu
            for s in range(-9, 10):
                v = abs(j_nu_lattice(s, params))
                if s >= 0:
                    assert v <= b
                else:
                    assert v <= b * q ** (s * s - (2 * nu + 1) * s)

    def test_log_envelope_dominates_values(self, params):
        with mp.workdps(70):
            for s in range(-9, 4):
                bound = mpf(10) ** decay_bound_log10(s, params)
                assert abs(j_nu_lattice(s, params)) <= bound

    @pytest.mark.parametrize("q, nu", [("0.8", "-0.9"), ("0.9", "-0.5"), ("0.95", "-0.5")])
    def test_log_envelope_holds_near_q_one(self, q, nu):
        # here log10 bound_constant is 3.9, 6.5 and 13.6, above the floor of 2
        p = QParams(q=q, nu=nu)
        for s in (-20, -40):
            with mp.workdps(30):
                got = float(mp.log10(abs(j_nu_lattice(s, p))))
            assert got <= decay_bound_log10(s, p), s

    @pytest.mark.parametrize("q", ["0.1", "0.3", "0.5", "0.6", "0.7", "0.8",
                                   "0.9", "0.95", "0.99"])
    def test_log_bound_constant_is_an_upper_bound(self, q):
        # never below log10 of the constants' quotient at 15 digits, and
        # above it by no more than the rounding margin
        for nu in ("-0.9", "-0.5", "0", "0.25", "0.5", "1", "2"):
            k = constants(QParams(q=q, nu=nu), 15)
            with mp.workdps(15):
                quotient = math.log10(k.B_q_nu / k.c_q_nu)
            got = bessel._log10_bound_constant(q, nu)
            assert max(2.0, quotient) <= got <= max(2.0, quotient * (1 + 1e-8)), nu

    def test_log_bound_constant_refuses_near_q_one_as_the_constants_do(self):
        # the constants refuse q = 0.99999 before their first factor, and
        # their quotient at q = 0.998 is past the float range
        for q, nu in (("0.99999", "0.5"), ("0.99999", "-0.9")):
            with pytest.raises(NonConvergent, match="pochhammer truncation"):
                constants(QParams(q=q, nu=nu), 15)
            with pytest.raises(NonConvergent, match="pochhammer truncation"):
                bessel._log10_bound_constant(q, nu)
        k = constants(QParams(q="0.998", nu="0.5"), 15)
        with mp.workdps(15):
            assert math.log10(k.B_q_nu / k.c_q_nu) == math.inf
        assert bessel._log10_bound_constant("0.998", "0.5") == math.inf
        assert bessel._log10_bound_constant("0.995", "0.5") < 308

    def test_negative_argument_rejected(self, params):
        with pytest.raises(DomainError):
            j_nu("-1", params)

    def test_non_integer_lattice_exponent_rejected(self, params):
        with pytest.raises(DomainError):
            j_nu_lattice(1.5, params)
        with pytest.raises(DomainError):
            j_nu_lattice("2", params)

    def test_certificate_accounts_for_cancellation(self, params):
        ev = j_nu("8", params)
        assert ev.terms_used >= 1
        assert ev.max_term_magnitude >= abs(ev.value)
        assert ev.digits_lost() + params.precision_digits + 10 <= ev.precision_used
        assert "BesselEval" in repr(ev)
        # the series memo shares ev with every later j_nu("8", params)
        with pytest.raises(AttributeError):
            ev.value = mpf(0)
        assert j_nu("8", params) is ev
        back = pickle.loads(pickle.dumps(ev))
        assert (back.value._mpf_, back.terms_used, back.max_term_magnitude._mpf_,
                back.precision_used) == (ev.value._mpf_, ev.terms_used,
                                         ev.max_term_magnitude._mpf_, ev.precision_used)

    def test_precision_escalates_for_deep_cancellation(self, params):
        ev = j_nu(str(2 ** 12), params)  # q^-12: two ladder rungs are too small
        assert ev.precision_used >= 4 * params.precision_digits
        with mp.workdps(80):
            assert rel_err(ev.value, j_nu_lattice(-12, params)) < mpf("1e-55")

    def test_ladder_exhaustion_is_reported(self, params):
        with pytest.raises(PrecisionExhausted):
            j_nu(str(2 ** 30), params)

    def test_lattice_value_near_q_one_matches_ladder(self):
        # near q = 1 the terms grow even at x = 1, where the envelope allows
        # no cancellation; the measured loss must move the lattice rung
        from qbft.core import QParams
        p = QParams(q="0.99", nu="0", precision_digits=110)
        with mp.workdps(130):
            assert rel_err(j_nu_lattice(0, p), j_nu("1", p).value) < mpf("1e-100")

    def test_lattice_values_deterministic_and_rung_coherent(self, params):
        first = j_nu_lattice(-4, params)
        assert j_nu_lattice(-4, params) == first
        with mp.workdps(80):
            assert rel_err(j_nu_lattice(-4, params, 100), first) < mpf("1e-55")

    def test_lattice_value_does_not_depend_on_call_order(self):
        # the 100-digit call redoes rung 120 at rung 180; the 60-digit call
        # needs rung 120 alone.  "0.990" is the same q under another key.
        after = QParams(q="0.99", nu="0.5")
        cold = QParams(q="0.990", nu="0.5")
        j_nu_lattice(-3, after, 100)
        assert j_nu_lattice(-3, after, 60)._mpf_ == j_nu_lattice(-3, cold, 60)._mpf_


def row_values(s_lo, s_hi, params, digits=None):
    """j_nu_lattice_row's split row decoded to a list of mpf."""
    return unsplit_mpf(*j_nu_lattice_row(s_lo, s_hi, params, digits))


class TestLatticeRow:
    """Recurrence rows against the series oracle, which they never feed."""

    @pytest.fixture
    def series_calls(self, monkeypatch):
        """Fresh row memo; records every exponent the row asks the series for."""
        bessel._certified_row.cache_clear()
        calls = []
        series = bessel.j_nu_lattice
        def spy(s, params, digits=None):
            calls.append(s)
            return series(s, params, digits)
        monkeypatch.setattr(bessel, "j_nu_lattice", spy)
        yield calls
        bessel._certified_row.cache_clear()

    @staticmethod
    def perturb_first_sweep(monkeypatch, index):
        """Make the first of the two sweeps wrong at one entry by 1e-40."""
        sweep = bessel._sweep
        seen = []
        def perturbed(s_lo, s_hi, params, depth, dps):
            out = sweep(s_lo, s_hi, params, depth, dps)
            if not seen:
                m, e = out[index]
                out[index] = (m + m // 10 ** 40, e)
            seen.append(depth)
            return out
        monkeypatch.setattr(bessel, "_sweep", perturbed)

    @pytest.mark.parametrize("q", ["0.5", "0.7", "0.9"])
    @pytest.mark.parametrize("nu", ["-0.9", "0", "0.5", "2"])
    def test_matches_series_oracle(self, q, nu, series_calls):
        p = QParams(q=q, nu=nu)
        row = row_values(-6, 12, p)
        # only the anchor s = 0 came from the series
        assert series_calls == [0]
        with mp.workdps(p.precision_digits):
            for s, v in zip(range(-6, 13), row):
                assert +v == +j_nu_lattice(s, p), (q, nu, s)

    def test_disagreeing_entry_falls_back_to_series(self, monkeypatch, series_calls):
        p = QParams(q="0.6", nu="0.5")
        self.perturb_first_sweep(monkeypatch, 7)
        row = row_values(-4, 9, p, 70)
        assert sorted(series_calls) == [0, 3]
        assert row[7] == j_nu_lattice(3, p, 70)
        with mp.workdps(70):
            for s, v in zip(range(-4, 10), row):
                if s != 3:
                    assert +v == +j_nu_lattice(s, p, 70), s

    def test_leaves_series_cache_to_anchor_and_fallbacks(self, monkeypatch, series_calls):
        p = QParams(q="0.55", nu="0.25")
        series = bessel._lattice_series
        series.cache_clear()
        self.perturb_first_sweep(monkeypatch, 2)
        j_nu_lattice_row(3, 20, p)
        assert series.cache_info().misses == 2
        # anchor clamped to s_lo = 3, fallback at s = 5: both are now hits
        for s in (3, 5):
            j_nu_lattice(s, p)
        assert series.cache_info().misses == 2

    def test_series_cache_is_bounded(self):
        series = bessel._lattice_series
        assert series.cache_info().maxsize == bessel.LATTICE_CACHE_CAP
        p = QParams(q="0.45", nu="0.75")
        for s in range(-3, 12):
            j_nu_lattice(s, p)
            assert series.cache_info().currsize <= bessel.LATTICE_CACHE_CAP

    def test_rows_are_memoized(self, series_calls):
        p = QParams(q="0.5", nu="1")
        first = j_nu_lattice_row(-5, 15, p)
        info = bessel._certified_row.cache_info()
        again = j_nu_lattice_row(-5, 15, p)
        assert bessel._certified_row.cache_info().hits == info.hits + 1
        assert bessel._certified_row.cache_info().currsize == info.currsize
        assert again == first
        assert series_calls == [0]

    def test_floored_row_zeroes_below_the_envelope_floor(self, params):
        floor = -(params.precision_digits + 50)
        mans, exps = j_nu_lattice_row(-24, 4, params)
        first = -24 + sum(1 for m in mans if m == 0)
        assert -24 < first < 0
        assert all(decay_bound_log10(s, params) < floor for s in range(-24, first))
        assert decay_bound_log10(first, params) >= floor
        assert exps[:first + 24] == (0,) * (first + 24)
        assert (mans[first + 24:], exps[first + 24:]) == bessel._certified_row(
            first, 4, params, params.precision_digits)
        # the row's integers are the mpf values' own: odd or zero mantissas
        assert split_mpf(unsplit_mpf(mans, exps)) == (list(mans), list(exps))

    def test_bad_ranges_rejected(self, params):
        # the bounds are checked before the floored head is skipped, so
        # bounds deep below the envelope floor are refused as well
        for lo, hi in [(0.5, 3), (-500.0, -400.0), (4, 3), (-400, -500)]:
            with pytest.raises(DomainError):
                j_nu_lattice_row(lo, hi, params)


class TestPositiveCompanion:
    def test_value_at_zero_is_exactly_one(self, params):
        assert i_nu("0", params) == 1

    def test_matches_independent_oracle_half_order(self, params):
        with mp.workdps(80):
            assert rel_err(i_nu("1", params), I_HALF_X1) < mpf("1e-40")

    def test_matches_independent_oracle_order_zero(self, params):
        with mp.workdps(80):
            got = i_nu("1", params.replace(nu="0"))
            assert rel_err(got, I_ZERO_X1) < mpf("1e-40")

    def test_strictly_increasing_along_the_lattice(self, params):
        with mp.workdps(70):
            vals = [i_nu(params.q ** n, params) for n in range(5, -1, -1)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_never_below_one(self, params):
        with mp.workdps(70):
            for n in (6, 2, 0, -2):
                assert i_nu(params.q ** n, params) >= 1

    def test_negative_argument_rejected(self, params):
        with pytest.raises(DomainError):
            i_nu("-2", params)


class TestPositiveKernel:
    def test_matches_independent_oracle_at_one(self, params):
        with mp.workdps(80):
            assert rel_err(_kernel_at("0.5", 0), K_HALF_X1) < mpf("1e-40")

    def test_matches_independent_oracle_inside_unit_interval(self, params):
        with mp.workdps(80):
            assert rel_err(_kernel_at("0.5", 3), K_HALF_XQ3) < mpf("1e-40")

    def test_strictly_positive_across_the_grid(self, params):
        for m in (-8, -5, -2, 0, 3, 8, 14, 20):
            assert _kernel_at("0.5", m) > 0

    def test_small_argument_profile_flattens_to_constant(self):
        # x^(2 nu) K(x) approaches d_nu / (1 - q^(2 nu)) as x -> 0; at order
        # one that limit is exactly 1 and the residual shrinks like x^2.
        from qbft.core import QParams
        p1 = QParams().replace(nu="1")
        with mp.workdps(80):
            q = p1.q
            limit = d_nu(p1) / (1 - q ** 2)
            errs = []
            for m in (10, 12, 14):
                v = (q ** m) ** 2 * _kernel_at("1", m)
                errs.append(abs(v - limit) / limit)
            assert errs[0] < mpf("1e-3")
            assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("nu_str", ["0.5", "1"])
    def test_extrapolated_small_argument_limit(self, nu_str):
        from qbft.core import QParams
        p = QParams().replace(nu=nu_str)
        with mp.workdps(80):
            q = p.q
            nu = p.nu
            v1 = (q ** 16) ** (2 * nu) * _kernel_at(nu_str, 16)
            v2 = (q ** 20) ** (2 * nu) * _kernel_at(nu_str, 20)
            # the residual's leading exponent is min(2 nu, 2) in x
            ratio = q ** (min(2 * nu, mpf(2)) * (20 - 16))
            extrapolated = (v2 - ratio * v1) / (1 - ratio)
            target = d_nu(p) / (1 - q ** (2 * nu))
            assert abs(extrapolated - target) / target < mpf("1e-6")

    def test_transform_recovers_lorentz_profile(self, params, kernel_window):
        grid, vals = kernel_window
        f = GridFunction(grid, vals, DECAY_INTEGRABLE)
        plan = build_plan(params, grid)
        spec = fourier(f, plan)
        with mp.workdps(80):
            q = params.q
            for n in (0, 2, -2):
                want = 1 / (1 + q ** (2 * n))
                assert abs(spec.value_at(n) - want) / want < mpf("1e-38")

    def test_weighted_mass_is_one(self, params, kernel_window):
        grid, vals = kernel_window
        with mp.workdps(80):
            q = params.q
            nu = params.nu
            integrand = GridFunction(
                grid,
                [v * q ** (n * (2 * nu + 1)) for n, v in zip(grid.exponents(), vals)],
                DECAY_INTEGRABLE)
            total = constants(params).c_q_nu * jackson_integral_infinite(
                integrand, params)
            assert abs(total - 1) < mpf("1e-38")


class TestScaledKernelFamily:
    @pytest.mark.parametrize("a_exp,x_exp", [(2, 3), (-1, 0), (1, -2)])
    def test_lattice_scale_matches_rescaled_kernel(self, params, a_exp, x_exp):
        with mp.workdps(80):
            q = params.q
            nu = params.nu
            a = q ** a_exp
            direct = g_a(q ** x_exp, a, params)
            scaled = a ** (2 * (nu + 1)) * _kernel_at("0.5", x_exp + a_exp)
            assert rel_err(direct, scaled) < mpf("1e-50")

    @pytest.mark.parametrize("a_exp", [0, 2])
    def test_difference_equation_holds_pointwise(self, params, a_exp):
        with mp.workdps(90):
            q = params.q
            a = q ** a_exp
            grid = QGrid(-6, 12)
            f = GridFunction.from_callable(grid, lambda n: g_a(q ** n, a, params))
            dg = q_bessel_operator(f, params)
            for n in range(dg.grid.n_min, dg.grid.n_max + 1):
                resid = f.value_at(n) - dg.value_at(n) / (a * a)
                assert abs(resid) <= mpf("1e-60") * abs(f.value_at(n))

    def test_rejects_nonpositive_scale(self, params):
        with pytest.raises(DomainError):
            g_a("1", "0", params)


class TestQuadratureRange:
    """The one truncation rule behind g_a, k_nu and triple_kernel."""

    @staticmethod
    def head_bound(ks, l, params):
        total = -l * (2 * params.nu_float + 2) * params.log10_inv_q
        return total + sum(decay_bound_log10(k + l, params) for k in ks)

    @pytest.mark.parametrize("nu", ["-0.5", "0.5", "2"])
    @pytest.mark.parametrize("ks,start", [((0,), -4), ((-7,), -4), ((5,), -20),
                                          ((0, 3, 6), -4), ((-4, -1, 2), -4)])
    def test_head_and_tail_certified_below_the_floor(self, nu, ks, start):
        p = QParams(nu=nu)
        est = envelope_scale(max(0, -min(ks)), p)
        floor = -(est + p.precision_digits + 10)
        l_lo, l_hi = quadrature_range(ks, est, start, p)
        assert l_lo <= start < l_hi
        assert self.head_bound(ks, l_lo, p) <= floor
        # the head stops at the first certified term, not beyond it
        assert l_lo == start or self.head_bound(ks, l_lo + 1, p) > floor
        # tail: the weight q^(l(2nu+2)) at l_hi is below the floor
        assert -l_hi * (2 * p.nu_float + 2) * p.log10_inv_q < floor

    def test_uncertified_head_raises(self, params):
        # the head of a column at k = 5000 lies 5000 steps below l = -4
        with pytest.raises(PrecisionExhausted):
            quadrature_range((5000,), 3.0, -4, params)

    def test_envelope_scale(self, params):
        lq = params.log10_inv_q
        assert envelope_scale(0, params) == envelope_scale(-3, params) == 3.0
        assert envelope_scale(4, params) == pytest.approx((16 + 2 * 4 + 8) * lq)

    @pytest.mark.parametrize("a_exp", [0, -2])
    def test_g_a_floor_is_honest(self, params, a_exp):
        k = -1
        while not g_a_floored(k, params):
            k -= 1
        assert k < -1
        with mp.workdps(30):
            a = params.q ** a_exp
            # g_a(q^n) with a = q^j is floored by its effective exponent n + j
            value = g_a_lattice(k - a_exp, a, params)
            assert 0 < value < mpf(10) ** -(params.precision_digits + 40)

    def test_range_is_not_widened_by_callers(self):
        for fn in (g_a_lattice, g_a, k_nu):
            assert "window" not in inspect.signature(fn).parameters

    def test_precision_beyond_the_top_rung_is_refused_up_front(self, params):
        # m = 40 needs about 630 digits, past 8 x 60; k = -32 needs 448
        start = time.perf_counter()
        with pytest.raises(PrecisionExhausted, match="top rung of 480"):
            g_a_lattice(-40, 1, params)
        assert time.perf_counter() - start < 1

    def test_row_longer_than_the_weight_memo_is_refused_up_front(self, params):
        start = time.perf_counter()
        with pytest.raises(WindowError, match="bound of 12000 points"):
            g_a_lattice(13000, 1, params)
        assert time.perf_counter() - start < 1


def closed_form_weights(params, a, lo, hi):
    """The weights for l = lo..hi at the working precision, each from its
    closed formula: q^(l(2nu+2)), over 1 + q^(2l)/a^2 unless a is None."""
    q = mpmathify(params.q_str)
    e = 2 * mpmathify(params.nu_str) + 2
    if a is None:
        return [q ** (mpf(l) * e) for l in range(lo, hi + 1)]
    return [q ** (mpf(l) * e) / (1 + q ** (2 * l) / (a * a)) for l in range(lo, hi + 1)]


def quadrature_row(s_lo, s_hi, params, dps):
    """The j row the per-point quadratures read, decoded to mpf: the
    certified row itself, with no floored head."""
    return unsplit_mpf(*bessel._certified_row(s_lo, s_hi, params, dps))


def rounded_products_sum(ks, est, start, dps, a, power, params):
    """The per-point sum with every column's product rounded and then fsum:
    (value, scale times the sum of the terms' magnitudes)."""
    l_lo, l_hi = quadrature_range(ks, est, start, params)
    lo = min(ks) + l_lo
    row = quadrature_row(lo, max(ks) + l_hi, params, dps)
    with mp.workdps(dps):
        c = constants(params, dps).c_q_nu
        terms = closed_form_weights(params, a, l_lo, l_hi)
        for k in ks:
            terms = [t * j for t, j in zip(terms, row[k + l_lo - lo:])]
        scale = (c if power == 1 else c * c) * (1 - params.q)
        return (+(scale * mpmath.fsum(terms)),
                +(scale * mpmath.fsum(abs(t) for t in terms)))


class TestQuadratureSum:
    """The per-point sums take their last column inside one exact dot; they
    stay within a sliver of the rounded-products-plus-fsum formula."""

    @pytest.mark.parametrize("nu", ["-0.5", "1"])
    @pytest.mark.parametrize("q", ["0.5", "0.7"])
    def test_agrees_with_rounded_products(self, q, nu, monkeypatch):
        p = QParams(q=q, nu=nu)
        calls = []
        quadrature = bessel._quadrature

        def recorded(*args):
            value = quadrature(*args)
            calls.append((value, args))
            return value

        monkeypatch.setattr(bessel, "_quadrature", recorded)
        with mp.workdps(p.precision_digits + 20):
            a = p.q ** 2
            xs = [p.q ** k for k in (0, 2, -1)]
        for k in (-2, 3):
            g_a_lattice(k, 1, p)
            g_a_lattice(k, a, p)
        triple_kernel(*xs, p)
        assert len(calls) == 5
        for value, args in calls:
            old, magnitude = rounded_products_sum(*args)
            with mp.workdps(args[3]):
                assert abs(value - old) <= mpf(10) ** -(p.precision_digits + 20) * magnitude


# the parameter space the README promises, sampled at two decimals
Q_STRS = st.decimals("0.1", "0.9", places=2).map(str)
NU_STRS = st.decimals("-0.99", "2", places=2).map(str)
EXPONENTS = st.integers(-12, 40)


class TestPromisedParameterSpace:
    """The per-point quadratures over q in [0.1, 0.9], nu in (-1, 2] and
    lattice exponents k in [-12, 40]: each gives a value or a typed refusal,
    and a refusal comes before the work it refuses."""

    @staticmethod
    def points(p, ks):
        with mp.workdps(p.precision_digits + 20):
            return [p.q ** k for k in ks]

    @given(q=Q_STRS, nu=NU_STRS, k=EXPONENTS)
    @settings(max_examples=12, deadline=None)
    def test_k_nu_is_positive_or_refused_fast(self, q, nu, k):
        p = QParams(q=q, nu=nu)
        x, = self.points(p, (k,))
        start = time.perf_counter()
        try:
            value = k_nu(x, p)
        except (WindowError, PrecisionExhausted):
            assert time.perf_counter() - start < 2
        else:
            assert value > 0

    @given(q=Q_STRS, nu=NU_STRS, ks=st.tuples(EXPONENTS, EXPONENTS, EXPONENTS))
    @settings(max_examples=12, deadline=None)
    def test_triple_kernel_is_symmetric(self, q, nu, ks):
        p = QParams(q=q, nu=nu)
        def outcome(xs):
            try:
                return triple_kernel(*xs, p)
            except (WindowError, PrecisionExhausted) as refusal:
                return type(refusal)
        outs = [outcome(xs) for xs in itertools.permutations(self.points(p, ks))]
        refusals = [o for o in outs if isinstance(o, type)]
        if refusals:
            assert refusals == outs[:1] * 6
            return
        # D is homogeneous of degree -(2nu+2), and its terms sit at the scale
        # of the weight at l = -min(ks); where D is far below that scale it is
        # a cancellation of such terms, and agrees across orders on it only
        with mp.workdps(p.precision_digits + 20):
            scale = max(abs(outs[0]), p.q ** (-min(ks) * (2 * p.nu + 2)))
            tol = mpf(10) ** -p.precision_digits * scale
            assert all(abs(v - outs[0]) <= tol for v in outs)


class TestWeightTable:
    """Bounded memos of the lattice weights behind g_a, triple_kernel, norm
    and the plans, in blocks, and of the term ratios j_nu's and i_nu's
    series share; a stored entry has the bits of a fresh one."""

    # each memo with the number of weights one of its entries holds
    MEMOS = {"_weight_block": bessel.WEIGHT_BLOCK, "_term_ratio": 1}

    @pytest.mark.parametrize("nu", ["-0.5", "0", "1"])
    def test_g_a_cold_equals_warm(self, nu, cold_memos):
        p = QParams(nu=nu)
        with mp.workdps(p.precision_digits + 40):
            point = {k: p.q ** k for k in (-2, -1, 0, 2, 3, 4)}
        calls = ([functools.partial(g_a_lattice, k, a, p)
                  for k in (-3, 0, 4) for a in ("0.25", "1", "4")]
                 + [functools.partial(k_nu, point[k], p) for k in (-1, 3)]
                 + [functools.partial(triple_kernel, *(point[k] for k in ks), p)
                    for ks in ((-2, 0, 3), (2, -1, 4))]
                 # x = q^-2 and a = q^3, each in every type a caller may pass
                 + [functools.partial(g_a, x, a, p) for x, a in zip(
                     ("4", 4, 4.0, mpf(4), Fraction(4), Decimal("4")),
                     ("0.125", Decimal("0.125"), 0.125, Fraction(1, 8), 0.125,
                      mpf("0.125")))]
                 + [functools.partial(k_nu, x, p)
                    for x in (8, 0.25, Fraction(1, 4), Decimal("0.25"))])
        cold = []
        for call in calls:
            cold_memos()
            cold.append(call())
        warm = [call() for call in calls]
        # every sum is in the quadrature memo now, and reads the same
        memo = bessel._quadrature.cache_info()
        again = [call() for call in calls]
        assert bessel._quadrature.cache_info().hits == memo.hits + len(calls)
        assert ([v._mpf_ for v in cold] == [v._mpf_ for v in warm]
                == [v._mpf_ for v in again])
        # k_nu(x) is g_a(x, 1): one entry
        cold_memos()
        assert k_nu(point[2], p)._mpf_ == g_a(point[2], 1, p)._mpf_
        assert bessel._quadrature.cache_info() == (1, 1, bessel.QUADRATURE_CACHE_CAP, 1)
        # a refusal is raised again on every call and never stored
        for _ in range(2):
            with pytest.raises(PrecisionExhausted):
                g_a_lattice(-40, "1", p)
        assert bessel._quadrature.cache_info()[1:] == (3, bessel.QUADRATURE_CACHE_CAP, 1)

    def test_a_float_and_an_mpf_of_equal_value_keep_their_own_bits(self, cold_memos):
        # 0.1 == mpf(0.1) and they hash alike, but the float is read through
        # its repr, "0.1", and the mpf in binary
        p = QParams(q="0.1")
        cold = {}
        for a in (0.1, mpf(0.1)):
            cold_memos()
            cold[type(a)] = g_a("0.001", a, p)._mpf_
        assert cold[float] != cold[mpf]
        for order in ((0.1, mpf(0.1)), (mpf(0.1), 0.1)):
            cold_memos()
            for _ in range(2):
                assert [g_a("0.001", a, p)._mpf_ for a in order] == [
                    cold[type(a)] for a in order]

    @pytest.mark.parametrize("x, a, error, message", [
        ("0.3", "1", DomainError, "x = 0.3 is not a lattice point q^n"),
        ("0.25", "0", DomainError, "scale a must be positive"),
        ("0.25", -2, DomainError, "scale a must be positive"),
        (float("nan"), "1", InvalidParams, "x: nan is not a finite number"),
        ("0.25", float("nan"), InvalidParams, "a: nan is not a finite number"),
        ("abc", "1", InvalidParams, "x: cannot parse 'abc' as a real number"),
        ("0.25", "abc", InvalidParams, "a: cannot parse 'abc' as a real number"),
        ([1], "1", InvalidParams, "x: cannot parse [1] as a real number"),
        ("0.25", [1], InvalidParams, "a: cannot parse [1] as a real number"),
    ])
    def test_refusals_are_raised_each_time_and_never_stored(
            self, params, x, a, error, message, cold_memos):
        g_a("0.25", "1", params)
        memos = (core._exponent, bessel._g_a_arguments, bessel._quadrature)
        sizes = [memo.cache_info().currsize for memo in memos]
        for _ in range(2):
            with pytest.raises(error) as refusal:
                g_a(x, a, params)
            assert type(refusal.value) is error and str(refusal.value) == message
        assert [memo.cache_info().currsize for memo in memos] == sizes

    def test_triple_kernel_keeps_each_order_s_bits(self, cold_memos):
        p = QParams(q="0.6", nu="0.25")
        with mp.workdps(p.precision_digits + 40):
            xyz = [p.q ** k for k in (-2, 1, 5)]
        orders = list(itertools.permutations(xyz))
        cold = []
        for order in orders:
            cold_memos()
            cold.append(triple_kernel(*order, p)._mpf_)
        # backwards, so each order finds the exponents of the orders after it
        warm = [triple_kernel(*order, p)._mpf_ for order in reversed(orders)][::-1]
        assert warm == cold
        assert [triple_kernel(*order, p)._mpf_ for order in orders] == cold
        assert core._exponent.cache_info().currsize == 3

    def test_i_nu_and_d_nu_cold_equal_warm(self, cold_memos):
        # i_nu at 100 digits and j_nu_lattice at s >= 0 both run at 120 dps,
        # so each series also reads ratios the other stored
        p = QParams(q="0.6", nu="0.25")
        orders = (p, p.replace(nu="1.25"), p.replace(precision_digits=100))
        xs = [mpf(3), mpf("0.6") ** 4]
        def lattice(s):
            bessel._lattice_series.cache_clear()
            return [j_nu_lattice(s, p)]
        def series(x):
            ev = j_nu(x, p)
            return [ev.value, mpf(ev.terms_used), ev.max_term_magnitude]
        calls = ([functools.partial(lambda x, o: [i_nu(x, o)], x, o)
                  for x in xs for o in orders]
                 + [functools.partial(lattice, s) for s in (0, 2, 5)]
                 + [functools.partial(series, x) for x in ("2.5", "7")]
                 + [lambda: [d_nu(p)], lambda: [d_nu(orders[1])],
                    lambda: [k_nu(xs[1], orders[1])]])
        cold = []
        for call in calls:
            cold_memos()
            cold.append(call())
        # backwards, so every call finds the ratios of the calls after it
        warm = [call() for call in reversed(calls)][::-1]
        # every series and quadrature is in its memo now
        misses = [memo.cache_info().misses for memo in (bessel._series, bessel._quadrature)]
        again = [call() for call in calls]
        assert [memo.cache_info().misses
                for memo in (bessel._series, bessel._quadrature)] == misses
        def raw(rows):
            return [[v._mpf_ for v in row] for row in rows]
        assert raw(cold) == raw(warm) == raw(again)
        for memo, cap in ((bessel._series, bessel.SERIES_CACHE_CAP),
                          (bessel._quadrature, bessel.QUADRATURE_CACHE_CAP),
                          (bessel._g_a_arguments, bessel.QUADRATURE_CACHE_CAP),
                          (core._exponent, core.PARAMETER_CACHE_CAP)):
            assert 0 < memo.cache_info().currsize <= memo.cache_info().maxsize == cap

    def test_weights_are_the_plain_expression(self, params, cold_memos):
        with mp.workdps(90):
            q = params.q
            nu = params.nu
            want = [q ** (mpf(l) * (2 * nu + 2)) for l in range(-7, 30)]
            bessel.lattice_weights(params, 0, 12)
            got = bessel.lattice_weights(params, -7, 29)
        assert got == split_mpf(want)

    def test_precision_is_part_of_the_key(self, cold_memos):
        p = QParams(q="0.6")
        with mp.workdps(40):
            low = bessel.lattice_weights(p, 1, 3)
        with mp.workdps(90):
            high = bessel.lattice_weights(p, 1, 3)
        assert (low[0][0], low[1][0]) != (high[0][0], high[1][0])
        # one block at each precision
        assert bessel._weight_block.cache_info().currsize == 2

    def test_never_holds_more_than_the_cap(self, cold_memos):
        for name, per_entry in self.MEMOS.items():
            assert (getattr(bessel, name).cache_info().maxsize
                    == bessel.WEIGHT_TABLE_CAP // per_entry)
        p = QParams(q="0.6", nu="0.25")
        cap = bessel.WEIGHT_TABLE_CAP
        for lo, hi, dps in [(0, 20, 50), (10, 35, 50), (-5, 5, 70), (0, 39, 50),
                            (-9, cap + 9, 30), (3, 60, 50), (-9, 9, 50)]:
            with mp.workdps(dps):
                got = bessel.lattice_weights(p, lo, hi)
                q = p.q
                want = [q ** (mpf(l) * (2 * p.nu + 2)) for l in range(lo, hi + 1)]
            assert got == split_mpf(want)
            assert bessel._weight_block.cache_info().currsize * bessel.WEIGHT_BLOCK <= cap
        for k in range(0, 8):
            g_a_lattice(k, "2", p)
        for name, per_entry in self.MEMOS.items():
            assert getattr(bessel, name).cache_info().currsize * per_entry <= cap
        # the argument memos: past their caps, each drops its oldest entry
        cap = core.PARAMETER_CACHE_CAP
        with mp.workdps(60):
            points = [mp.nstr(mpf("0.6") ** k, 50) for k in range(cap + 9)]
        assert [core.lattice_exponent(x, p) for x in points] == list(range(cap + 9))
        assert core._exponent.cache_info().currsize == cap
        cap = bessel.QUADRATURE_CACHE_CAP
        for a in range(1, cap + 10):
            bessel._g_a_arguments(3, int, a, p)
        assert bessel._g_a_arguments.cache_info().currsize == cap


def ten_term_i_nu(x, params):
    """i_nu summed as it was before its early exit: on past the first term
    below 10^-(dps+3) of the total until ten such terms in a row, with the
    term ratios computed inline."""
    with params.working(20):
        q = mpmathify(params.q_str)
        nu = mpmathify(params.nu_str)
        x2 = mpmathify(x) ** 2
        term = mp.one
        total = mp.zero
        n = 0
        below = 0
        floor = mpf(10) ** (-mp.dps - 3)
        while below < 10:
            total += term
            q2 = q * q
            num, den = q2 ** (n + 1), (1 - q ** (2 * nu + 2 + 2 * n)) * (1 - q2 ** (n + 1))
            term *= num * x2 / den
            n += 1
            below = below + 1 if term < floor * total else 0
        return +total


class TestPositiveCompanionExit:
    @given(q=Q_STRS, nu=NU_STRS, k=st.integers(-5, 20))
    @settings(max_examples=30, deadline=None)
    def test_early_exit_keeps_every_bit(self, q, nu, k):
        p = QParams(q=q, nu=nu)
        with mp.workdps(p.precision_digits + 40):
            x = mpmathify(q) ** k
        assert i_nu(x, p)._mpf_ == ten_term_i_nu(x, p)._mpf_


def forty_term_j_nu(x, params):
    """j_nu as it was before its early exit: each ladder rung sums on past
    the first term below 10^-(dps+3) of the larger of the largest term and
    the total until forty such terms in a row, with the term ratios
    computed inline; the rungs and the certificate are j_nu's."""
    d = params.precision_digits
    for rung in (d, 2 * d, 4 * d, 8 * d):
        with mp.workdps(rung + 10):
            q = mpmathify(params.q_str)
            nu = mpmathify(params.nu_str)
            x2 = mpmathify(x) ** 2
            term = mp.one
            total = mp.zero
            max_term = mp.one
            floor = mpf(10) ** (-mp.dps - 3)
            n = 0
            below = 0
            while below < 40:
                total += term
                max_term = max(max_term, abs(term))
                q2 = q * q
                num, den = q2 ** (n + 1), (1 - q ** (2 * nu + 2 + 2 * n)) * (1 - q2 ** (n + 1))
                term *= -num * x2 / den
                n += 1
                below = below + 1 if abs(term) < floor * max(max_term, abs(total)) else 0
            ev = bessel.BesselEval(+total, n, +max_term, mp.dps)
        if ev.digits_lost() + d + 10 <= ev.precision_used:
            return ev
    raise PrecisionExhausted(f"j_nu({x}) beyond the ladder")


class TestOscillatoryExit:
    """j_nu stops before its first term below the floor; summing on as the
    forty-term rule did moves the value by less than the certificate."""

    @staticmethod
    def outcome(evaluate, x, p):
        try:
            return evaluate(x, p)
        except PrecisionExhausted:
            return PrecisionExhausted

    def check(self, x, p):
        new = self.outcome(j_nu, x, p)
        old = self.outcome(forty_term_j_nu, x, p)
        if old is PrecisionExhausted:
            assert new is PrecisionExhausted
            return
        assert new.precision_used == old.precision_used
        assert new.max_term_magnitude._mpf_ == old.max_term_magnitude._mpf_
        assert new.terms_used == old.terms_used - 39
        with mp.workdps(new.precision_used):
            assert (abs(new.value - old.value)
                    <= mpf(10) ** -(new.precision_used + 2) * new.max_term_magnitude)

    @given(q=Q_STRS, nu=NU_STRS, k=st.integers(-12, 20))
    @settings(max_examples=25, deadline=None)
    def test_lattice_points(self, q, nu, k):
        p = QParams(q=q, nu=nu)
        with mp.workdps(p.precision_digits + 40):
            x = mpmathify(q) ** k
        self.check(x, p)

    @given(q=Q_STRS, nu=NU_STRS,
           x=st.decimals("0.01", "2000", places=4).map(str))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_points(self, q, nu, x):
        self.check(x, QParams(q=q, nu=nu))

    @given(template=st.sampled_from([("0.5", "-0.5", 60), ("0.6", "0", 90)]),
           x=st.floats(0.1, 20).map(lambda v: f"{v:.6g}"))
    @settings(max_examples=10, deadline=None)
    def test_cli_prints_what_it_printed(self, template, x):
        q, nu, d = template
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--q", q, "--nu", nu, "--digits", str(d),
                         "--format", "json", "eval", "jnu", "--x", x]) == 0
        payload = json.loads(out.getvalue())
        old = forty_term_j_nu(x, QParams(q=q, nu=nu, precision_digits=d))
        assert payload["value"] == core.decimal_str(old.value, d)
        assert payload["max_term_magnitude"] == core.decimal_str(old.max_term_magnitude, 8)
        assert payload["precision_used"] == old.precision_used


def per_entry_route(ks, est, start, dps, a, power, params):
    """The per-point sum as it was before the inputs came split: weights and
    row as mpf values, the weights each from its closed formula, every
    column but the last multiplied in, and both sides split by split_mpf
    into one core.exact_dot."""
    l_lo, l_hi = quadrature_range(ks, est, start, params)
    lo = min(ks) + l_lo
    row = quadrature_row(lo, max(ks) + l_hi, params, dps)
    with mp.workdps(dps):
        c = constants(params, dps).c_q_nu
        terms = closed_form_weights(params, a, l_lo, l_hi)
        for k in ks[:-1]:
            terms = [t * j for t, j in zip(terms, row[k + l_lo - lo:])]
        last = ks[-1] + l_lo - lo
        total = mpf(exact_dot(*split_mpf(terms),
                              *split_mpf(row[last:last + len(terms)]), mp.prec))
        scale = c if power == 1 else c * c
        return +(scale * (1 - mpmathify(params.q_str)) * total)


class TestSplitInputs:
    """The per-point quadratures read their weights and j rows already
    split; the bits are those of the per-entry mpf route."""

    @staticmethod
    def recording(monkeypatch):
        calls = []
        quadrature = bessel._quadrature

        def recorded(*args):
            value = quadrature(*args)
            calls.append((value, args))
            return value

        monkeypatch.setattr(bessel, "_quadrature", recorded)
        return calls

    @pytest.mark.parametrize("case, q, nu", [
        (c, q, nu) for c, (q, nu) in enumerate(
            itertools.product(["0.5", "0.7"], ["-0.5", "0", "1"]))])
    def test_g_a_and_k_nu_match_the_per_entry_route(self, case, q, nu,
                                                    monkeypatch, cold_memos):
        # across the six cases every (k, j) pair comes up once or more
        p = QParams(q=q, nu=nu)
        ks = (-8, -1, 0, 6, 30)
        with mp.workdps(p.precision_digits + 40):
            points = {k: p.q ** k for k in range(-10, 33)}
        calls = self.recording(monkeypatch)
        def run():
            out = [g_a_lattice(k, points[(i + case) % 5 - 2], p)
                   for i, k in enumerate(ks)]
            out += [k_nu(points[k], p) for k in (-1, 6)]
            return [v._mpf_ for v in out]
        cold = run()
        assert run() == cold
        straddles = 0
        for value, args in calls:
            assert value._mpf_ == per_entry_route(*args)._mpf_
            l_lo, l_hi = quadrature_range(*args[:3], p)
            straddles += l_lo // bessel.WEIGHT_BLOCK != l_hi // bessel.WEIGHT_BLOCK
        assert len(calls) == 14 and straddles == 14

    def test_triple_kernel_matches_the_per_entry_route(self, monkeypatch):
        p = QParams(q="0.7", nu="-0.5")
        calls = self.recording(monkeypatch)
        with mp.workdps(p.precision_digits + 40):
            triple_kernel(p.q ** 3, p.q ** -1, p.q ** 2, p)
        (value, args), = calls
        assert value._mpf_ == per_entry_route(*args)._mpf_

    def test_fresh_k_after_a_warm_a_computes_no_weight_block(self, cold_memos):
        p = QParams(q="0.5", nu="0")
        g_a_lattice(7, "0.25", p)
        blocks = bessel._weight_block.cache_info()
        rows = bessel._certified_row.cache_info()
        g_a_lattice(6, "0.25", p)
        assert bessel._certified_row.cache_info().misses == rows.misses + 1
        assert bessel._weight_block.cache_info().misses == blocks.misses
        assert bessel._weight_block.cache_info().hits > blocks.hits

    def test_warm_g_a_parses_no_parameter_and_splits_nothing(self, monkeypatch):
        p = QParams(q="0.5", nu="0.5")
        with mp.workdps(140):
            x = mp.nstr(mpf("0.5") ** 27, 130, strip_zeros=True)
            a = mp.nstr(mpf("0.5") ** -2, 130, strip_zeros=True)
        first = g_a(x, a, p)
        xyz = [p.q ** k for k in (-2, 5, 3)]
        first_d = triple_kernel(*xyz, p)
        splits = []
        split = bessel.split_mpf
        # bessel has no unsplit_mpf to decode with: its rows leave it split
        assert not hasattr(bessel, "unsplit_mpf")
        monkeypatch.setattr(bessel, "split_mpf", lambda v: splits.append(v) or split(v))
        memos = (core.materialize, core._log_q, core._constants,
                 bessel._weight_block, bessel._certified_row)
        # sum again from the warm inputs, not from the memo of the sums
        bessel._quadrature.cache_clear()
        before = [memo.cache_info().misses for memo in memos]
        assert g_a(x, a, p)._mpf_ == first._mpf_
        # three columns: two are multiplied in on their integers
        assert triple_kernel(*xyz, p)._mpf_ == first_d._mpf_
        assert [memo.cache_info().misses for memo in memos] == before
        assert splits == []


class TestWronskianConstant:
    def test_low_order_values_are_exact_rationals(self):
        from qbft.core import QParams
        with mp.workdps(80):
            d1 = d_nu(QParams().replace(nu="1"))
            assert abs(d1 - mpf(3) / 4) < mpf("1e-40")
            d2 = d_nu(QParams().replace(nu="2"))
            assert abs(d2 - mpf(45) / 64) < mpf("1e-40")

    def test_positive_with_flat_spread(self, params):
        with mp.workdps(80):
            mean, spread = d_nu(params, with_spread=True)
            assert mean > 0
            assert spread < 10 * params.tol

    def test_neighbouring_orders_linked_by_recurrence(self, params):
        with mp.workdps(80):
            q = params.q
            lhs = d_nu(params.replace(nu="1.5"))
            rhs = (1 - q ** 3) * d_nu(params)
            assert abs(lhs - rhs) / lhs < mpf("1e-40")

    def test_constancy_gate_trips_on_unreachable_tolerance(self, params):
        with pytest.raises(ConstancyViolation):
            d_nu(params.replace(tol="1e-90"))

    @pytest.mark.parametrize("nu", ["0.5" + "0" * 52 + "7", "0.5" + "0" * 50 + "7"])
    def test_order_nu_plus_one_is_exact(self, nu):
        # nu's last digit lies past the 50th: an order nu + 1 rounded there
        # mixes two orders, whose spread (9.6e-53, 9.6e-51) exceeds 10 tol
        p = QParams(nu=nu, precision_digits=90, tol="1e-85")
        mean, spread = d_nu(p, with_spread=True)
        assert spread < mpf("1e-105")
        assert bessel._next_order(p).nu_str == "1." + nu[2:]
        assert bessel._next_order(QParams(nu="-0.5")).nu_str == "0.5"
        assert bessel._next_order(QParams(nu="5e-7")).nu_str == "1.0000005"
        with pytest.raises(InvalidParams):
            bessel._next_order(QParams(nu="1e-999999999"))


class TestDerivativeRelations:
    def test_kernel_lowering_identity_via_grid_operators(self, params):
        with mp.workdps(80):
            q = params.q
            up = params.replace(nu="1.5")
            grid = QGrid(0, 9)
            f = GridFunction(grid, [_kernel_at("0.5", n) for n in grid.exponents()])
            shifted = lambda_shift(q_derivative(f, params), -1)
            for n in range(2, 9):
                lhs = shifted.value_at(n)
                rhs = -(q / (1 - q)) * q ** n * _kernel_at("1.5", n)
                assert abs(lhs - rhs) <= mpf("1e-50") * abs(rhs)

    def test_series_lowering_identity(self, params):
        with mp.workdps(80):
            q = params.q
            up = params.replace(nu="1.5")
            for n in (0, 3, -2):
                lhs = ((j_nu_lattice(n - 1, params) - j_nu_lattice(n, params))
                       / ((1 - q) * q ** (n - 1)))
                rhs = (-(q / ((1 - q) * (1 - q ** 3))) * q ** n
                       * j_nu_lattice(n, up))
                assert abs(lhs - rhs) <= mpf("1e-60") * abs(rhs)


class TestLimitsAndDecay:
    @pytest.mark.parametrize("nu_str", ["0.5", "0", "-0.25"])
    def test_weighted_kernel_vanishes_at_the_origin(self, nu_str):
        # x^(2 nu + 1) K(x) -> 0 as x -> 0; needs 2 nu + 1 > 0, see below for
        # the orders where that weight does not vanish on its own.
        from qbft.core import QParams
        p = QParams().replace(nu=nu_str)
        with mp.workdps(80):
            q = p.q
            nu = p.nu
            vals = [q ** (m * (2 * nu + 1)) * _kernel_at(nu_str, m)
                    for m in range(8, 18)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            # K grows like x^(-2 nu) for nu > 0 (and like a q-logarithm at
            # nu = 0), so the product drops like q^(m min(1, 2 nu + 1))
            assert vals[-1] < vals[0] * q ** (9 * min(1, 2 * nu + 1)) * 3

    @pytest.mark.parametrize("nu_str", ["-0.5", "-0.75"])
    def test_kernel_approaches_finite_positive_limit_at_negative_order(
            self, nu_str):
        from qbft.core import QParams
        p = QParams().replace(nu=nu_str)
        with mp.workdps(80):
            q = p.q
            vals = [_kernel_at(nu_str, m) for m in range(8, 18)]
            assert all(v > 0 for v in vals)
            assert all(a < b for a, b in zip(vals, vals[1:]))
            gaps = [b - a for a, b in zip(vals, vals[1:])]
            assert gaps[-1] < gaps[0]
            assert gaps[-1] < mpf("1e-4") * vals[-1]

    def test_wronskian_term_stays_below_its_constant(self, params):
        with mp.workdps(80):
            q = params.q
            nu = params.nu
            cap = (1 - q ** (2 * nu + 2)) * d_nu(params)
            for s in (1, 3, 6):
                x = q ** (-s)
                term = x ** (2 * (nu + 1)) * _kernel_at("0.5", -s) * i_nu(
                    x, params.replace(nu="1.5"))
                assert 0 < term < cap

    def test_shifted_kernel_companion_product_decays_quadratically(self, params):
        # The product against the companion evaluated one lattice step in
        # decays like x^-2; the unshifted product only stays bounded.
        with mp.workdps(80):
            q = params.q
            nu = params.nu
            for s in (2, 4, 6):
                x = q ** (-s)
                shifted = (x ** (2 * (nu + 1)) * _kernel_at("0.5", -s)
                           * i_nu(q * x, params))
                assert shifted * x ** 2 < 4
                unshifted = (x ** (2 * (nu + 1)) * _kernel_at("0.5", -s)
                             * i_nu(x, params))
                assert unshifted < 2 * d_nu(params)
