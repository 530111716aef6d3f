"""Lattice arithmetic layer: pochhammers, Jackson integrals, operators."""

import json
import time

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpmathify

from qbft import core
from qbft.core import exact_dot, round_split, split_mpf, split_products, unsplit_mpf
from qbft import (
    DECAY_RAPID, DivergentTail, DomainError, InvalidParams, NonConvergent,
    PreconditionError, WindowError,
    GridFunction, QGrid, QParams, constants, decimal_str,
    gridfunction_from_json, gridfunction_to_json,
    jackson_integral_finite, jackson_integral_infinite,
    lambda_shift, q_bessel_operator, q_derivative, q_exponential,
    qpochhammer_finite, qpochhammer_infinite,
)

# Reference values computed from exact rational arithmetic (fractions.Fraction
# products/series converted to decimal at the end), kept to ~60 digits.  They
# stay strings so each test materializes them at its own working precision.
POCH_Q9_40 = "1.46974015866975017808177748602138894854316164566051336751431e-6"
POCH22_INF = "0.6885375371203397154565143572935081846755498193783357353401572325775332"
POCH32_INF = "0.8388448835902151954199122154059485044679064687853334981608998332635441"
C_Q_NU = "2.436598844264914462084458417222898205180399764074338698348196450001404"
B_Q_NU = "4.616995492606751482050609790565908219387677203872584521772470709011887"
SIGMA_NU = "0.5775761901732048425577994438584615601778238096813715682294821323698045"
QEXP_QUARTER = "1.731373309727531805768978671462215582270378951452219195664676515879458"


def rel_err(got, want):
    want = mpmathify(want)
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# parameters and grids

class TestQParams:
    def test_defaults(self):
        p = QParams()
        assert p.q_str == "0.5" and p.nu_str == "0.5"
        assert p.precision_digits == 60

    @pytest.mark.parametrize("kw", [
        {"q": "1"}, {"q": "0"}, {"q": "1.5"}, {"q": "-0.5"},
        {"nu": "-1"}, {"nu": "-2"},
        {"precision_digits": 10}, {"precision_digits": "60"},
        {"tol": "0"}, {"tol": "-1e-40"}, {"q": "banana"},
        {"nu": "inf"}, {"nu": "nan"}, {"tol": "inf"},
    ])
    def test_rejects_bad_parameters(self, kw):
        with pytest.raises(InvalidParams):
            QParams(**kw)

    def test_float_parameters_keep_decimal_meaning(self):
        p = QParams(q=0.9)
        assert p.q_str == "0.9"
        with mp.workdps(60):
            assert rel_err(p.q, mpf(9) / 10) < mpf("1e-55")

    def test_replace_and_equality(self):
        p = QParams()
        r = p.replace(nu="1")
        assert r.nu_str == "1" and r.q_str == p.q_str
        assert p == QParams() and hash(p) == hash(QParams())
        assert p != r

    def test_materializes_at_active_precision(self):
        p = QParams(q="0.9")
        with mp.workdps(120):
            err = abs(p.q - mpf(9) / 10)
        assert err < mpf("1e-115")

    def test_memoized_parameters_have_a_fresh_parse_s_bits(self):
        p = QParams(q="0.9", nu="-0.37", tol="3e-41")
        for dps in (15, 40, 77, 300, 77):
            with mp.workdps(dps):
                for got, text in ((p.q, p.q_str), (p.nu, p.nu_str), (p.tol, p.tol_str)):
                    assert got._mpf_ == mpmathify(text)._mpf_, (dps, text)
        assert core.materialize.cache_info().maxsize == core.PARAMETER_CACHE_CAP

    def test_lattice_slack_is_the_forty_digit_literal(self):
        with mp.workdps(40):
            assert core.LATTICE_SLACK._mpf_ == mpf("1e-9")._mpf_


class TestQGrid:
    def test_window_basics(self):
        g = QGrid(-3, 5)
        assert len(g) == 9
        assert list(g.exponents()) == list(range(-3, 6))
        assert 0 in g and -3 in g and 5 in g and 6 not in g
        assert g.index(-3) == 0 and g.index(5) == 8

    def test_rejects_bad_windows(self):
        with pytest.raises(WindowError):
            QGrid(3, 2)
        with pytest.raises(InvalidParams):
            QGrid(0.5, 3)
        with pytest.raises(WindowError):
            QGrid(0, 4).index(5)


class TestGridFunction:
    def test_sample_alignment(self):
        f = GridFunction(QGrid(2, 4), [mpf(7), mpf(8), mpf(9)], "integrable")
        assert f.value_at(2) == 7 and f.value_at(4) == 9
        assert len(f) == 3

    def test_rejects_mismatch(self):
        with pytest.raises(InvalidParams):
            GridFunction(QGrid(0, 2), [mpf(1)])
        with pytest.raises(InvalidParams):
            GridFunction(QGrid(0, 0), [mpf(1)], "weird")

    def test_from_callable_and_zero(self):
        f = GridFunction.from_callable(QGrid(0, 3), lambda n: mpf(n) ** 2)
        assert f.value_at(3) == 9
        z = GridFunction.zero(QGrid(-1, 1))
        assert all(v == 0 for v in z.values)

    def test_samples_are_kept_exactly(self):
        wide = 10 ** 120 + 7
        with mp.workdps(200):
            fine = mp.pi * mpf(2) ** -3000
        f = GridFunction(QGrid(0, 3), [wide, 0.1, fine, -mpf(3)])
        assert f.value_at(0) == wide and f.value_at(1) == mpf(0.1)
        assert [v._mpf_ for v in f.values[2:]] == [fine._mpf_, (-mpf(3))._mpf_]

    def test_exponents_beyond_32_bits_are_kept(self):
        with mp.workdps(30):
            huge = mpmath.ldexp(mpf(3), 2 ** 40)
            tiny = mpmath.ldexp(mpf(-5), -2 ** 40)
            f = GridFunction(QGrid(0, 2), [huge, 1, tiny])
            assert [v._mpf_ for v in f.values] == [huge._mpf_, mpf(1)._mpf_, tiny._mpf_]
            with pytest.raises(InvalidParams, match="exponent"):
                GridFunction(QGrid(0, 0), [mpmath.ldexp(mpf(1), 2 ** 70)])

    def test_values_read_a_copy_and_assign_a_repack(self):
        f = GridFunction(QGrid(0, 2), [mpf(1), mpf(2), mpf(3)])
        f.values[0] = mpf(9)
        assert f.value_at(0) == 1
        f.values = [mpf(4), mpf(5), mpf(6)]
        assert f.values == [4, 5, 6] and f.value_at(2) == 6
        with pytest.raises(InvalidParams, match="finite"):
            f.values = [mpf(4), mp.inf, mpf(6)]
        with pytest.raises(InvalidParams):
            f.values = [mpf(4)]
        assert f.values == [4, 5, 6]

    @pytest.mark.parametrize("bad", [mp.nan, mp.inf, -mp.inf, float("nan"),
                                     float("inf")],
                             ids=["nan", "inf", "-inf", "float-nan", "float-inf"])
    def test_rejects_non_finite_samples(self, bad):
        # every comparison with NaN is false, so a transform would spread it
        # over every output sample without raising
        with pytest.raises(InvalidParams, match="finite"):
            GridFunction(QGrid(0, 4), [1, bad, 2, 3, 0])

    @pytest.mark.parametrize("bad", [mpmath.mpc(1, 1), mpmath.mpc(1, 0), 1j],
                             ids=["mpc", "mpc-zero-imag", "complex"])
    def test_rejects_complex_samples(self, bad):
        # an mpc passes mp.isfinite, and sign_changes or vd_check would then
        # fail untyped on the first ordering of it
        with pytest.raises(InvalidParams, match="real"):
            GridFunction(QGrid(-6, 20), [bad if n == 3 else 0 for n in range(-6, 21)],
                         DECAY_RAPID)


# ---------------------------------------------------------------------------
# the exact dot product

# exact zeros, small integers and wide-mantissa values whose exponents spread
# far wider than 2 * prec, so mpf_sum's rules for dropping a term or a
# partial sum run; the few-valued branch makes exact cancellations
DOT_ENTRY = st.one_of(
    st.just((0, 0)),
    st.tuples(st.integers(min_value=-10 ** 6, max_value=10 ** 6), st.just(0)),
    st.tuples(st.integers(min_value=-2 ** 90, max_value=2 ** 90),
              st.integers(min_value=-1500, max_value=1500)),
    # as wide as a plan's factors: products past the 300 bits where
    # mpmath's bitcount leaves its table path
    st.tuples(st.integers(min_value=-2 ** 300, max_value=2 ** 300),
              st.integers(min_value=-1500, max_value=1500)),
    st.tuples(st.integers(min_value=-2, max_value=2),
              st.sampled_from((-1500, -400, 0, 400, 1500))))


def exact(entries):
    """mpf values m * 2 ** e, formed without rounding."""
    with mp.workprec(320):
        return [mpmath.ldexp(mpf(m), e) for m, e in entries]


def dot(a, b, prec):
    """exact_dot rounded to prec, as mpmath.fdot rounds."""
    with mp.workprec(prec):
        return mpf(exact_dot(*split_mpf(a), *split_mpf(b), prec))


class TestExactDot:
    """core.exact_dot against mpmath.fdot, its oracle, bit for bit."""

    @given(data=st.data(), prec=st.integers(min_value=10, max_value=400),
           size=st.integers(min_value=0, max_value=9))
    @settings(max_examples=200, deadline=None)
    def test_equals_fdot_bit_for_bit(self, data, prec, size):
        entries = st.lists(DOT_ENTRY, min_size=size, max_size=size)
        a = exact(data.draw(entries))
        b = exact(data.draw(entries))
        with mp.workprec(prec):
            want = mpmath.fdot(a, b)
        assert dot(a, b, prec)._mpf_ == want._mpf_
        # the same dot rounded on its integers
        man, exp = round_split(*exact_dot(*split_mpf(a), *split_mpf(b), prec), prec)
        assert split_mpf([want]) == ([man], [exp])

    def test_drop_rules_match_fdot_bit_for_bit(self):
        # a 1 that the last term uncovers by cancelling a big one survives
        # only if neither rule dropped it: as a partial sum more than
        # 2 * prec bits below the next term, or as a term more than 2 * prec
        # bits below the running sum
        prec = 60
        ones = [mp.one] * 3
        outcomes = set()
        for gap in range(2 * prec - 2, 2 * prec + 4):
            big = mpmath.ldexp(mp.one, gap)
            for name, a in (("sum below term", [mp.one, big, -big]),
                            ("term below sum", [big, mp.one, -big])):
                with mp.workprec(prec):
                    want = mpmath.fdot(a, ones)
                got = dot(a, ones, prec)
                assert got._mpf_ == want._mpf_, (name, gap)
                outcomes.add((name, int(got)))
        assert outcomes == {(name, kept) for name in ("sum below term", "term below sum")
                            for kept in (0, 1)}

    def test_shortest_sequence_sets_the_length(self):
        a = [mpf(1), mpf(2), mpf(3)]
        assert dot(a, [mpf(5), mpf(7)], 53) == 19
        assert exact_dot([], [], [], [], 53) == (0, 0)
        assert split_products(*split_mpf(a), [5, 7], [0, 0], 53) == ([5, 7], [0, 1])

    @given(data=st.data(), prec=st.integers(min_value=10, max_value=400),
           size=st.integers(min_value=0, max_value=9))
    @settings(max_examples=200, deadline=None)
    def test_products_equal_mpf_products_bit_for_bit(self, data, prec, size):
        entries = st.lists(DOT_ENTRY, min_size=size, max_size=size)
        a = exact(data.draw(entries))
        b = exact(data.draw(entries))
        with mp.workprec(prec):
            want = split_mpf([x * y for x, y in zip(a, b)])
        assert split_products(*split_mpf(a), *split_mpf(b), prec) == want

    @pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan], ids=["inf", "-inf", "nan"])
    def test_split_refuses_non_finite_values(self, bad):
        with pytest.raises(InvalidParams, match="finite"):
            split_mpf([mp.one, bad])

    def test_split_keeps_signs_and_exponents(self):
        assert split_mpf([mpf(-3), mpf("0.5"), mp.zero]) == ([-3, 1, 0], [0, -1, 0])

    def test_split_mantissas_are_odd_or_zero_and_round_trip(self):
        values = [0, 4, -6, 2 ** 80, 0.5]
        mans, exps = split_mpf(values)
        assert (mans, exps) == ([0, 1, -3, 1, 1], [0, 2, 1, 80, -1])
        with mp.workprec(100):
            assert unsplit_mpf(mans, exps) == [mpf(v) for v in values]


# ---------------------------------------------------------------------------
# pochhammer symbols and the q-exponential

class TestPochhammer:
    def test_finite_small_case_exact(self):
        # (1/2; 1/2)_2 = (1 - 1/2)(1 - 1/4) = 3/8, exact in binary
        with mp.workdps(40):
            assert qpochhammer_finite("0.5", "0.5", 2) == mpf("0.375")

    def test_finite_empty_product(self):
        assert qpochhammer_finite("0.7", "0.3", 0) == 1

    def test_finite_long_product_reference(self):
        with mp.workdps(70):
            got = qpochhammer_finite("0.9", "0.9", 40)
            assert rel_err(got, POCH_Q9_40) < mpf("1e-55")

    def test_finite_rejects_bad_length(self):
        with pytest.raises(InvalidParams):
            qpochhammer_finite("0.5", "0.5", -1)
        with pytest.raises(InvalidParams):
            qpochhammer_finite("0.5", "0.5", 1.5)

    @given(st.integers(min_value=0, max_value=12),
           st.integers(min_value=-8, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_finite_shift_identity(self, n, num):
        # (a; q)_{n+1} = (1 - a) (a q; q)_n
        with mp.workdps(45):
            a = mpf(num) / 10
            q = mpf("0.5")
            lhs = qpochhammer_finite(a, q, n + 1)
            rhs = (1 - a) * qpochhammer_finite(a * q, q, n)
            assert abs(lhs - rhs) <= mpf("1e-38") * max(1, abs(lhs))

    def test_infinite_reference_values(self):
        with mp.workdps(70):
            got = qpochhammer_infinite("0.25", "0.25")
            assert rel_err(got, POCH22_INF) < mpf("1e-60")
            got = qpochhammer_infinite("0.125", "0.25")
            assert rel_err(got, POCH32_INF) < mpf("1e-60")

    def test_infinite_needs_contracting_base(self):
        with pytest.raises(NonConvergent):
            qpochhammer_infinite("0.5", "1.0")

    def test_infinite_refuses_q_near_one_before_the_loop(self):
        # about 7.8 million factors to reach the threshold, past the cap of
        # 4 million; the loop alone took over 20 s to say so
        t0 = time.perf_counter()
        with mp.workdps(30), pytest.raises(NonConvergent, match="did not reach threshold"):
            qpochhammer_infinite("0.5", "0.99999")
        assert time.perf_counter() - t0 < 1

    def test_infinite_near_one_under_the_cap_still_converges(self):
        # about 27 000 factors at q = 0.998, so the estimate lets the loop
        # run; (a; q)_inf = (1 - a) (a q; q)_inf
        with mp.workdps(20):
            a, q = mpf("0.5"), mpf("0.998")
            got = qpochhammer_infinite(a, q)
            assert rel_err(got, (1 - a) * qpochhammer_infinite(a * q, q)) < mpf("1e-15")

    def test_infinite_deterministic(self):
        with mp.workdps(60):
            assert qpochhammer_infinite("0.3", "0.6") == \
                qpochhammer_infinite("0.3", "0.6")


class TestQExponential:
    def test_matches_reciprocal_product(self):
        with mp.workdps(70):
            got = q_exponential("0.25", "0.5")
            assert rel_err(got, QEXP_QUARTER) < mpf("1e-60")
            recip = 1 / qpochhammer_infinite("0.25", "0.5")
            assert rel_err(got, recip) < mpf("1e-60")

    def test_at_zero(self):
        with mp.workdps(40):
            assert q_exponential("0", "0.5") == 1

    def test_rejects_outside_disk(self):
        with pytest.raises(DomainError):
            q_exponential("1.0", "0.5")
        with pytest.raises(NonConvergent):
            q_exponential("0.5", "1.2")


# ---------------------------------------------------------------------------
# normalization constants

class TestConstants:
    def test_reference_values(self, params):
        c = constants(params)
        with mp.workdps(70):
            assert rel_err(c.c_q_nu, C_Q_NU) < mpf("1e-58")
            assert rel_err(c.B_q_nu, B_Q_NU) < mpf("1e-58")
            assert rel_err(c.sigma_nu, SIGMA_NU) < mpf("1e-58")

    @pytest.mark.parametrize("dps", [60, 95, 137])
    def test_working_precision_argument(self, params, dps):
        # the bundle for working precision dps is computed at dps + 20 digits
        c = constants(params, dps)
        assert c is constants(params.replace(precision_digits=dps))
        with mp.workdps(dps + 20):
            q = params.q
            nu = params.nu
            q2 = q * q
            a = qpochhammer_infinite(q ** (2 * nu + 2), q2)
            b = qpochhammer_infinite(q2, q2)
            an = qpochhammer_infinite(-q ** (2 * nu + 2), q2)
            bn = qpochhammer_infinite(-q2, q2)
            assert c.c_q_nu == +(a / b / (1 - q))
            assert c.B_q_nu == +(bn * an / b / (1 - q))
            assert c.sigma_nu == +(a * b)

    def test_memo_shared_across_tolerances(self, params):
        assert constants(params) is constants(params, params.precision_digits)
        assert constants(params, 80) is constants(params.replace(tol="1e-30"), 80)
        assert constants(params, 80) is not constants(params, 81)
        assert constants(params, 80) is not constants(params.replace(nu="0.25"), 80)


# ---------------------------------------------------------------------------
# Jackson integrals

class TestJacksonFinite:
    def test_constant_integrand(self, params):
        # integral of 1 over (0, 1] is 1 up to the window truncation q^41
        f = GridFunction.from_callable(QGrid(0, 40), lambda n: mp.one)
        with mp.workdps(60):
            value, tail = jackson_integral_finite(f, "1", params, with_tail=True)
            assert abs(value - (1 - mpf("0.5") ** 41)) < mpf("1e-55")
            assert tail > 0

    def test_linear_integrand(self, params):
        # integral of t over (0, 1] is 1/(1+q) = 2/3 at q = 1/2
        f = GridFunction.from_callable(
            QGrid(0, 60), lambda n: mpf("0.5") ** n)
        with mp.workdps(60):
            value = jackson_integral_finite(f, "1", params)
            assert abs(value - mpf(2) / 3) < mpf("1e-35")

    def test_upper_limit_inside_window(self, params):
        # from 0 to q^2: same series shifted two rungs down
        f = GridFunction.from_callable(QGrid(0, 60), lambda n: mp.one)
        with mp.workdps(60):
            value = jackson_integral_finite(f, "0.25", params)
            assert abs(value - mpf("0.25")) < mpf("1e-15")

    def test_rejects_nonlattice_and_negative_limits(self, params):
        f = GridFunction.from_callable(QGrid(0, 20), lambda n: mp.one)
        with pytest.raises(DomainError):
            jackson_integral_finite(f, "0.3", params)
        with pytest.raises(DomainError):
            jackson_integral_finite(f, "-1", params)

    def test_rejects_limit_above_window(self, params):
        f = GridFunction.from_callable(QGrid(-2, 20), lambda n: mp.one)
        with pytest.raises(WindowError):
            jackson_integral_finite(f, mpf(2) ** 5, params)

    def test_rejects_too_few_summands(self, params):
        f = GridFunction.from_callable(QGrid(0, 5), lambda n: mp.one)
        with pytest.raises(WindowError):
            jackson_integral_finite(f, "1", params)


class TestJacksonInfinite:
    def test_hand_built_vector(self, params):
        # (1-q) [ q^-2 * 2 + 1 * 3 + q * 8 ] = (8 + 3 + 4)/2 = 7.5 exactly
        vals = {-2: mpf(2), 0: mpf(3), 1: mpf(8)}
        f = GridFunction.from_callable(
            QGrid(-2, 40), lambda n: vals.get(n, mp.zero), "integrable")
        with mp.workdps(60):
            value = jackson_integral_infinite(f, params)
            assert value == mpf("7.5")

    def test_tail_estimate_covers_truncation(self, params):
        # indicator of (0, q^2]: value q^2 - q^31 on the window, true value q^2
        f = GridFunction.from_callable(
            QGrid(-4, 30), lambda n: mp.one if n >= 2 else mp.zero, "integrable")
        with mp.workdps(60):
            value, tail = jackson_integral_infinite(f, params, with_tail=True)
            expect = mpf("0.25") - mpf("0.5") ** 31
            assert abs(value - expect) < mpf("1e-50")
            assert tail >= mpf("0.5") ** 31 - mpf("1e-50")

    def test_flags_constant_over_the_full_ray(self, params):
        # integral of 1 over (0, inf) diverges at large x; the head gate
        # extrapolates growing edge summands and refuses
        f = GridFunction.from_callable(QGrid(-4, 30), lambda n: mp.one,
                                       "integrable")
        with pytest.raises(DivergentTail):
            jackson_integral_infinite(f, params)

    def test_rejects_undeclared_decay(self, params):
        f = GridFunction.from_callable(QGrid(0, 20), lambda n: mp.one)
        with pytest.raises(PreconditionError):
            jackson_integral_infinite(f, params)

    def test_flags_growing_head(self, params):
        f = GridFunction.from_callable(
            QGrid(-10, 10), lambda n: mpf(4) ** (-n), "integrable")
        with pytest.raises(DivergentTail):
            jackson_integral_infinite(f, params)


# ---------------------------------------------------------------------------
# difference operators and shifts

class TestQDerivative:
    def test_square_function(self, params):
        # D_q t^2 = (1+q) t, exact in binary at q = 1/2
        f = GridFunction.from_callable(QGrid(-5, 10), lambda n: mpf(2) ** (-2 * n))
        d = q_derivative(f, params)
        assert d.grid == QGrid(-5, 9)
        with mp.workdps(40):
            for n in d.grid.exponents():
                assert d.value_at(n) == mpf("1.5") * mpf(2) ** (-n)

    def test_constant_gives_zero(self, params):
        f = GridFunction.from_callable(QGrid(0, 10), lambda n: mpf(3))
        d = q_derivative(f, params)
        assert all(v == 0 for v in d.values)

    def test_needs_two_points(self, params):
        with pytest.raises(WindowError):
            q_derivative(GridFunction(QGrid(0, 0), [mp.one]), params)


class TestLambdaShift:
    def test_shift_semantics(self):
        f = GridFunction(QGrid(0, 2), [mpf(10), mpf(11), mpf(12)], "integrable")
        s = lambda_shift(f, 1)
        assert s.grid == QGrid(-1, 1)
        # sample at exponent n is the input sample at n + k
        assert s.value_at(-1) == f.value_at(0)
        assert s.value_at(1) == f.value_at(2)
        assert s.decay_class == f.decay_class

    def test_roundtrip_is_identity(self):
        f = GridFunction(QGrid(-2, 3), [mpf(i) for i in range(6)])
        back = lambda_shift(lambda_shift(f, 3), -3)
        assert back.grid == f.grid and back.values == f.values

    def test_rejects_noninteger(self):
        f = GridFunction(QGrid(0, 1), [mp.one, mp.one])
        with pytest.raises(InvalidParams):
            lambda_shift(f, 0.5)


class TestBesselOperator:
    def test_annihilates_constants(self, params):
        f = GridFunction.from_callable(QGrid(-3, 6), lambda n: mpf(5))
        out = q_bessel_operator(f, params)
        assert out.grid == QGrid(-2, 5)
        assert all(v == 0 for v in out.values)

    def test_needs_three_points(self, params):
        with pytest.raises(WindowError):
            q_bessel_operator(GridFunction(QGrid(0, 1), [mp.one, mp.one]), params)

    @given(fv=st.lists(st.integers(min_value=-9, max_value=9),
                       min_size=4, max_size=8),
           gv=st.lists(st.integers(min_value=-9, max_value=9),
                       min_size=4, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_for_interior_vectors(self, params, fv, gv):
        # sum q^(n(2nu+2)) (Delta f) g = sum q^(n(2nu+2)) f (Delta g) whenever
        # both vectors vanish at the window edges
        grid = QGrid(-2, 14)
        pad = [0, 0]
        fvals = pad + fv + [0] * (len(grid) - len(fv) - 4) + pad
        gvals = pad + gv + [0] * (len(grid) - len(gv) - 4) + pad
        f = GridFunction(grid, [mpf(v) for v in fvals])
        g = GridFunction(grid, [mpf(v) for v in gvals])
        df = q_bessel_operator(f, params)
        dg = q_bessel_operator(g, params)
        with mp.workdps(50):
            q = params.q
            w = lambda n: q ** (3 * n)
            lhs = sum(w(n) * df.value_at(n) * g.value_at(n)
                      for n in df.grid.exponents())
            rhs = sum(w(n) * f.value_at(n) * dg.value_at(n)
                      for n in dg.grid.exponents())
            scale = max(mp.one, abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= mpf("1e-40") * scale


# ---------------------------------------------------------------------------
# serialization

class TestSerialization:
    def test_roundtrip_preserves_samples(self, params):
        f = GridFunction.from_callable(
            QGrid(-3, 8), lambda n: mpf(2) ** (-n * n), "rapid")
        text = gridfunction_to_json(f, params)
        g, p2 = gridfunction_from_json(text, params.precision_digits)
        assert g.grid == f.grid and g.decay_class == "rapid"
        assert p2 == params
        with mp.workdps(60):
            for n in f.grid.exponents():
                err = abs(g.value_at(n) - f.value_at(n))
                assert err <= mpf("1e-55") * max(1, abs(f.value_at(n)))

    def test_payload_is_decimal_strings(self, params):
        f = GridFunction(QGrid(0, 1), [mpf(1), mpf(2)], "integrable")
        payload = json.loads(gridfunction_to_json(f, params))
        assert payload["q"] == "0.5" and payload["nu"] == "0.5"
        assert all(isinstance(s, str) for s in payload["values"])

    def test_long_mantissa_prints_without_whole_conversion(self):
        # a 20000-bit mantissa has over 6000 decimal digits, past Python's
        # 4300-digit limit on converting an int to a string
        with mp.workdps(6100):
            x = 1 / (3 * mpf(2) ** 14000)
        assert x._mpf_[3] > 20000
        with mp.workdps(80):
            want = mp.nstr(+x, 60)
        assert decimal_str(x, 60) == want
        assert want.startswith("1.2674751388865100452")

    def test_malformed_payload_rejected(self):
        with pytest.raises(InvalidParams):
            gridfunction_from_json("{not json")
        with pytest.raises(InvalidParams):
            gridfunction_from_json(json.dumps({"q": "0.5"}))
