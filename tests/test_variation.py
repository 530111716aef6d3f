"""Sign-change counting, variation comparisons across convolution and the
q-derivative, and the series/polynomial side of the kernel calculus.

Polynomial oracles are exact-rational hand expansions (fractions.Fraction):
at q = 1/2 the q_n coefficients are dyadic rationals, so agreement is exact;
Q_n and sigma are checked against 150-term Fraction pochhammer products.
The reciprocal-multiplier recovery is checked against the closed forms
1/F(G) = (1+z^2)(1+z^2/4) for the two-zero kernel and the q-binomial series
(-z^2; q^2)_inf = sum q^(k(k-1)) z^(2k) / (q^2; q^2)_k for the Gauss kernel.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

import qbft.transform
from qbft.core import (
    DECAY_BOUNDED,
    DECAY_RAPID,
    DegenerateLeading,
    GridFunction,
    IllConditioned,
    InvalidParams,
    PreconditionError,
    QGrid,
    WindowError,
    constants,
)
from qbft.bessel import g_a
from qbft.corpus import REFERENCE_GRID, load_corpus
from qbft.transform import build_plan
from qbft.kernels import KernelSpec, composite_kernel, gauss_kernel_grid
from qbft.variation import (
    EvenPolynomial,
    EvenSeries,
    Qn_polynomial,
    dq_variation_check,
    lq_map,
    omega_series,
    qn_polynomial,
    real_roots_check,
    sign_changes,
    vd_check,
)


@pytest.fixture(scope="module")
def plan(params):
    return build_plan(params, REFERENCE_GRID)


@pytest.fixture(scope="module")
def members():
    return {e.name: e.f for e in load_corpus()}


@pytest.fixture(scope="module")
def two_zero_kernel(params, plan):
    return composite_kernel(KernelSpec("0", ("1", "2")), plan, chain=False).kernel


def window(values, n_min=0):
    return GridFunction(QGrid(n_min, n_min + len(values) - 1),
                        [mpf(v) for v in values])


def ga_grid(a_str, params):
    with mp.workdps(90):
        vals = [g_a(params.q ** n, a_str, params) for n in REFERENCE_GRID.exponents()]
    return GridFunction(REFERENCE_GRID, vals, DECAY_RAPID)


def frac(x):
    return mpf(x.numerator) / x.denominator


class TestSignChanges:
    def test_constant_sign(self):
        assert sign_changes(window([1, 1, 1])).changes == 0

    def test_two_flips(self):
        assert sign_changes(window([1, -1, 1])).changes == 2

    def test_dropped_zero_leaves_one_flip(self):
        pat = sign_changes(window([1, 0, -1]), zero_tol="1e-10")
        assert pat.changes == 1
        assert len(pat.signs) == 2

    def test_zero_function_gives_empty_pattern(self):
        pat = sign_changes(GridFunction.zero(QGrid(-3, 8)))
        assert pat.changes == 0
        assert pat.exponents == [] and pat.signs == []

    def test_threshold_is_relative_to_scale(self):
        # 1e-31 is below the default 1e-30 cut relative to max 1
        pat = sign_changes(window([1, mpf("-1e-31")]))
        assert pat.changes == 0
        assert len(pat.signs) == 1

    def test_pattern_ordered_by_increasing_x(self):
        pat = sign_changes(window([1, -1], n_min=5))
        # increasing x means decreasing exponent
        assert pat.exponents == [6, 5]
        assert pat.signs == [-1, 1]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=20),
           st.integers(0, 8), st.integers(0, 8))
    def test_raising_threshold_never_creates_changes(self, vals, i, j):
        lo, hi = sorted((i, j))
        f = window(vals)
        ladder = ["0", "0.01", "0.05", "0.1", "0.2", "0.4", "0.6", "0.8", "0.95"]
        c_lo = sign_changes(f, zero_tol=ladder[lo]).changes
        c_hi = sign_changes(f, zero_tol=ladder[hi]).changes
        assert c_hi <= c_lo


class TestNonFiniteTolerances:
    # every comparison with NaN is false, so an unparsed NaN tolerance
    # would silently change which samples count as zero; a negative one
    # keeps exact zeros as negative samples
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1e-30", -1])
    def test_zero_tol_rejected(self, params, plan, members, bad):
        f = window([0, 1, -1, 0])
        with pytest.raises(InvalidParams):
            sign_changes(f, zero_tol=bad)
        with pytest.raises(InvalidParams):
            dq_variation_check(f, params, zero_tol=bad)
        with pytest.raises(InvalidParams):
            vd_check(members["gauss_1"], [members["step_one_flip"]], plan, zero_tol=bad)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_tol_imag_rejected(self, params, bad):
        with pytest.raises(InvalidParams):
            real_roots_check(EvenPolynomial([1, -1]), params, tol_imag=bad)


class TestSeriesInputs:
    # NaN and inf would pass through every product and sum of the series
    # side; an order that is not a nonnegative integer would fail untyped
    # or give an empty polynomial
    W = [1, mpf("0.5"), mpf("0.125")]

    @pytest.mark.parametrize("call", [
        lambda p, plan, G: qn_polynomial([1, "nan"], 1, p),
        lambda p, plan, G: Qn_polynomial([1, "inf"], 1, p),
        lambda p, plan, G: lq_map([1, "nan"], p),
        lambda p, plan, G: lq_map([1, "one"], p),
        lambda p, plan, G: EvenSeries([1, 2])("inf"),
        lambda p, plan, G: EvenSeries([1, float("nan")])(1),
        lambda p, plan, G: real_roots_check(EvenPolynomial([1, "nan", 1]), p),
        lambda p, plan, G: omega_series(G, plan, 1.5),
        lambda p, plan, G: qn_polynomial(TestSeriesInputs.W, 1.5, p),
        lambda p, plan, G: qn_polynomial(TestSeriesInputs.W, -1, p),
        lambda p, plan, G: Qn_polynomial(TestSeriesInputs.W, -1, p),
    ], ids=["qn-nan", "Qn-inf", "lq-nan", "lq-text", "series-at-inf", "series-nan",
            "roots-nan", "omega-fractional-order", "qn-fractional-order",
            "qn-negative-order", "Qn-negative-order"])
    def test_refused(self, params, plan, two_zero_kernel, call):
        with pytest.raises(InvalidParams):
            call(params, plan, two_zero_kernel)

    def test_float_coefficients_keep_their_bits(self, params):
        assert lq_map([0.1], params) == [mpf(0.1)]
        assert qn_polynomial([0.1], 0, params).coefficients == (
            qn_polynomial([mpf(0.1)], 0, params).coefficients)


class TestVdCheck:
    def test_elementary_kernel_never_gains_changes(self, params, plan, members):
        names = ["const_plus", "step_one_flip", "step_three_flips",
                 "alternating_burst"]
        rep = vd_check(ga_grid("1", params), [members[n] for n in names],
                       plan, names=names)
        assert rep.passed is True
        got = {r["name"]: (r["v_in"], r["v_out"]) for r in rep.rows}
        assert got["const_plus"] == (0, 0)
        assert got["step_one_flip"][0] == 1
        assert got["step_three_flips"][0] == 3
        assert got["alternating_burst"][0] == 21
        assert all(r["v_out"] <= r["v_in"] for r in rep.rows)

    def test_composite_kernel_also_passes(self, plan, members, two_zero_kernel):
        rep = vd_check(two_zero_kernel,
                       [members["step_two_flips"], members["hump_small_x"]], plan)
        assert rep.passed is True
        assert rep.rows[0]["name"] == "f0"
        assert rep.rows[0]["v_in"] == 2

    def test_kernel_transformed_once(self, plan, members, two_zero_kernel,
                                     monkeypatch, cold_memos):
        calls = []
        matvec = qbft.transform._matvec

        def counted(plan, vec, rows=None):
            inner = list(plan.window_rows())
            rest = [r for r in range(plan.size()) if r not in inner]
            got = list(range(plan.size()) if rows is None else rows)
            calls.append("window" if got == inner else "rest" if got == rest else got)
            return matvec(plan, vec, rows)

        monkeypatch.setattr(qbft.transform, "_matvec", counted)
        functions = [members[n] for n in ("step_one_flip", "gauss_1", "lorentz_1")]
        first = vd_check(two_zero_kernel, functions, plan)
        # the kernel's spectrum, then each function's and its convolution's
        # window; each spectrum is its window, then the rest of the lattice
        assert calls == ["window", "rest"] + ["window", "rest", "window"] * len(functions)
        # a repeat call computes no row: each convolution is memoized
        del calls[:]
        assert vd_check(two_zero_kernel, functions, plan).rows == first.rows
        assert calls == []

    @pytest.mark.parametrize("count", [0, 1])
    def test_undeclared_kernel_rejected_before_any_convolution(self, plan, members,
                                                               monkeypatch, count):
        calls = []
        matvec = qbft.transform._matvec

        def counted(plan, vec, rows=None):
            calls.append(rows)
            return matvec(plan, vec, rows)

        monkeypatch.setattr(qbft.transform, "_matvec", counted)
        kernel = GridFunction(REFERENCE_GRID, members["gauss_1"].values)
        # a function that fails its own gate names another decay class
        f = GridFunction(REFERENCE_GRID, members["step_one_flip"].values, DECAY_BOUNDED)
        with pytest.raises(PreconditionError, match="'unknown'"):
            vd_check(kernel, [f] * count, plan)
        assert calls == []

    def test_names_must_match_functions(self, plan, members, two_zero_kernel):
        with pytest.raises(InvalidParams):
            vd_check(two_zero_kernel,
                     [members["step_one_flip"], members["gauss_1"]], plan,
                     names=["a"])


class TestDqVariation:
    def test_one_signed_hump(self, params, members):
        v_in, v_out, ok = dq_variation_check(members["hump_small_x"], params)
        assert (v_in, ok) == (0, True)
        assert v_out >= 0

    def test_single_flip_survives(self, params, members):
        v_in, v_out, ok = dq_variation_check(members["step_one_flip"], params)
        assert v_in == 1 and v_out >= 1 and ok

    def test_zero_function(self, params):
        assert dq_variation_check(GridFunction.zero(QGrid(0, 10)), params) == \
            (0, 0, True)

    def test_needs_a_vanishing_end(self, params):
        with pytest.raises(PreconditionError):
            dq_variation_check(window([1, 1, 1, 1]), params)

    def test_vanishing_at_the_small_x_end_only(self, params):
        # the sample at n_max, the smallest x, sits below the zero threshold
        f = window([1, -1, 2, "1e-40"])
        assert dq_variation_check(f, params)[0] == 2

    def test_vanishing_at_the_large_x_end_only(self, params):
        f = window(["-1e-40", 1, -1, 2])
        assert dq_variation_check(f, params)[0] == 2


class TestOmegaSeries:
    def test_two_zero_kernel_recovers_expanded_product(self, params, plan,
                                                       two_zero_kernel):
        # 1/F(G) = (1+z^2)(1+z^2/4) = 1 + (5/4) z^2 + (1/4) z^4
        w = omega_series(two_zero_kernel, plan, 2)
        with mp.workdps(80):
            assert w.coefficients[0] == 1
            assert abs(w.coefficients[1] - mpf(5) / 4) < mpf("1e-45")
            assert abs(w.coefficients[2] - mpf(1) / 4) < mpf("1e-28")

    def test_elementary_kernel_single_coefficient(self, params, plan):
        # Omega = 1 + z^2/a^2 for g_a, higher orders vanish
        w = omega_series(ga_grid("2", params), plan, 3)
        with mp.workdps(80):
            assert abs(w.coefficients[1] - mpf(1) / 4) < mpf("1e-35")
            assert abs(w.coefficients[2]) < mpf("1e-35")
            assert abs(w.coefficients[3]) < mpf("1e-28")

    def test_gauss_kernel_matches_q_binomial_series(self, params, plan):
        # (-z^2; q^2)_inf expanded at q = 1/2: 1, 4/3, 16/45, 64/2835
        h = gauss_kernel_grid("1", params, REFERENCE_GRID)
        w = omega_series(h, plan, 3)
        with mp.workdps(80):
            want = [mpf(1), mpf(4) / 3, mpf(16) / 45, mpf(64) / 2835]
            errs = [abs(a - b) for a, b in zip(w.coefficients, want)]
            assert errs[1] < mpf("1e-50")
            assert errs[2] < mpf("1e-40")
            assert errs[3] < mpf("1e-24")

    def test_order_zero_is_pure_normalization(self, params, plan, two_zero_kernel):
        w = omega_series(two_zero_kernel, plan, 0)
        assert w.coefficients == [mpf(1)]
        assert w.order() == 0

    def test_negative_order_rejected(self, params, plan, two_zero_kernel):
        with pytest.raises(InvalidParams):
            omega_series(two_zero_kernel, plan, -1)

    def test_window_too_small_for_fit(self, params, members):
        tiny = build_plan(params, QGrid(0, 3))
        f = GridFunction.zero(QGrid(0, 3), DECAY_RAPID)
        with pytest.raises(WindowError):
            omega_series(f, tiny, 2)

    def test_excessive_order_reported_ill_conditioned(self, params, plan,
                                                      two_zero_kernel):
        with pytest.raises(IllConditioned):
            omega_series(two_zero_kernel, plan, 16)


def exact_pochs():
    """Fraction-valued (q^3; q^2)_i and (q^2; q^2)_i ladders at q = 1/2."""
    q = Fraction(1, 2)
    q2, q3 = q * q, q ** 3
    def poch(a, n):
        prod, ap = Fraction(1), a
        for _ in range(n):
            prod *= (1 - ap)
            ap *= q2
        return prod
    return q, poch, q2, q3


class TestPolynomialFamilies:
    W = [Fraction(1), Fraction(5, 4), Fraction(1, 4)]

    def wm(self):
        return [frac(c) for c in self.W]

    def test_qn_matches_hand_expansion(self, params):
        q, poch, q2, q3 = exact_pochs()
        rho1 = Fraction(4) - Fraction(3, 2) + q ** 3
        rho2 = rho1 * (Fraction(16) - Fraction(3, 2) + q ** 5)
        want1 = [rho1 * self.W[1], -rho1 * q2 * self.W[0] / (poch(q3, 1) * poch(q2, 1))]
        want2 = [rho2 * self.W[2],
                 -rho2 * q2 * self.W[1] / (poch(q3, 1) * poch(q2, 1)),
                 rho2 * q ** 6 * self.W[0] / (poch(q3, 2) * poch(q2, 2))]
        assert want1 == [Fraction(105, 32), Fraction(-1)]
        assert want2 == [Fraction(9765, 1024), Fraction(-2325, 128), Fraction(1)]
        with mp.workdps(80):
            p1 = qn_polynomial(self.wm(), 1, params)
            p2 = qn_polynomial(self.wm(), 2, params)
            for got, want in [(p1.coefficients, want1), (p2.coefficients, want2)]:
                assert all(abs(g - frac(wv)) < mpf("1e-70")
                           for g, wv in zip(got, want))

    def test_qn_order_zero_is_first_coefficient(self, params):
        p = qn_polynomial(self.wm(), 0, params)
        assert p.coefficients == [mpf(1)]

    def test_Qn_matches_hand_expansion(self, params):
        q, poch, q2, q3 = exact_pochs()
        sig = Fraction(1)
        ap = q3
        for _ in range(150):
            sig *= (1 - ap)
            ap *= q2
        bp = q2
        for _ in range(150):
            sig *= (1 - bp)
            bp *= q2
        with mp.workdps(80):
            assert abs(constants(params).sigma_nu - frac(sig)) < mpf("1e-70")
            want1 = [sig * self.W[0] / (poch(q3, 1) * poch(q2, 1)),
                     -sig * q * self.W[1]]
            want2 = [sig * self.W[0] / (poch(q3, 2) * poch(q2, 2)),
                     -sig * q * self.W[1] / (poch(q3, 1) * poch(q2, 1)),
                     sig * q ** 4 * self.W[2]]
            P1 = Qn_polynomial(self.wm(), 1, params)
            P2 = Qn_polynomial(self.wm(), 2, params)
            for got, want in [(P1.coefficients, want1), (P2.coefficients, want2)]:
                assert all(abs(g - frac(wv)) < mpf("1e-70")
                           for g, wv in zip(got, want))

    def test_Qn_order_zero_is_sigma(self, params):
        with mp.workdps(60):
            P0 = Qn_polynomial([mpf(1)], 0, params)
            assert abs(P0.coefficients[0] - constants(params).sigma_nu) < mpf("1e-55")

    def test_large_n_approaches_damped_series(self, params):
        # pochhammer denominators converge to sigma, leaving (-1)^j q^(j^2) w_j
        wm = self.wm() + [mp.zero] * 38
        with mp.workdps(80):
            P40 = Qn_polynomial(wm, 40, params)
            q = params.q
            for j in range(3):
                want = (-1) ** j * q ** (j * j) * wm[j]
                assert abs(P40.coefficients[j] - want) < mpf("1e-20") * abs(want)

    def test_too_few_coefficients_rejected(self, params):
        with pytest.raises(InvalidParams):
            qn_polynomial(self.wm(), 3, params)
        with pytest.raises(InvalidParams):
            Qn_polynomial(self.wm(), 5, params)

    def test_series_evaluation(self):
        s = EvenSeries([1, mpf("1.25"), mpf("0.25")])
        with mp.workdps(40):
            assert abs(s(1) - mpf("2.5")) < mpf("1e-35")
            assert s(0) == 1
        assert s.order() == 2


class TestLqMap:
    def test_power_weights(self, params):
        out = lq_map([1, 1, 1], params)
        assert out == [mpf(1), mpf("0.5"), mpf("0.0625")]

    def test_preserves_distinctness(self, params):
        a = lq_map([1, 2, 3], params)
        b = lq_map([1, 2, 4], params)
        assert a[:2] == b[:2] and a[2] != b[2]

    def test_empty_sequence(self, params):
        assert lq_map([], params) == []


class TestRealRoots:
    def test_real_pair(self, params):
        r = real_roots_check(EvenPolynomial([1, -1]), params)
        assert r.all_real is True
        with mp.workdps(40):
            assert abs(r.roots_u[0] - 1) < mpf("1e-30")

    def test_imaginary_pair(self, params):
        # 1 + z^2 vanishes only at z = +-i: u-root is negative
        r = real_roots_check(EvenPolynomial([1, 1]), params)
        assert r.all_real is False
        with mp.workdps(40):
            assert abs(r.roots_u[0] + 1) < mpf("1e-30")

    def test_complex_u_roots(self, params):
        r = real_roots_check(EvenPolynomial([1, 1, 1]), params)
        assert r.all_real is False
        with mp.workdps(40):
            assert r.max_imag > mpf("0.5")

    def test_constant_polynomial(self, params):
        r = real_roots_check(EvenPolynomial([5]), params)
        assert r.all_real is True and r.roots_u == []

    def test_vanishing_leading_coefficient(self, params):
        with pytest.raises(DegenerateLeading):
            real_roots_check(EvenPolynomial([1, 1, 0]), params)

    def test_limit_polynomials_are_real_rooted(self, params, plan,
                                               two_zero_kernel):
        w = omega_series(two_zero_kernel, plan, 2)
        with mp.workdps(120):
            for n in (1, 2):
                for build in (qn_polynomial, Qn_polynomial):
                    rep = real_roots_check(build(w.coefficients, n, params),
                                           params)
                    assert rep.all_real is True
                    assert all(mp.re(u) > 0 for u in rep.roots_u)

    def test_recovered_multiplier_locates_kernel_zeros(self, params, plan,
                                                       two_zero_kernel):
        # u-roots of the fitted Omega are -a_k^2, recovering the zeros 1, 2;
        # they are negative, so Omega itself fails the real-z convention
        w = omega_series(two_zero_kernel, plan, 2)
        with mp.workdps(120):
            rep = real_roots_check(EvenPolynomial(w.coefficients), params)
            assert rep.all_real is False
            roots = sorted(rep.roots_u, key=lambda u: mp.re(u))
            assert abs(roots[0] + 4) < mpf("1e-25")
            assert abs(roots[1] + 1) < mpf("1e-25")
