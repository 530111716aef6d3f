"""Transform layer: plan assembly, the transform and its inverse, translation,
convolution by two routes, and norms.

The expensive reference plan is built once per module and shared; tolerances
come from a calibration run against independent formulas (profile values of
transformed Lorentz kernels, the triple-kernel identities, norm inequalities
with explicit constants).
"""

import gc
import itertools
import sys
import time
import tracemalloc

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from qbft.core import (
    DECAY_BOUNDED,
    DECAY_INTEGRABLE,
    DECAY_RAPID,
    DomainError,
    GridFunction,
    InvalidParams,
    PackedSamples,
    PrecisionExhausted,
    PreconditionError,
    QGrid,
    QParams,
    WindowError,
    constants,
    gridfunction_from_json,
    gridfunction_to_json,
)
from qbft import bessel, core
from qbft.bessel import g_a_lattice, j_nu_lattice
from qbft.corpus import REFERENCE_GRID, load_corpus, reference_params
from qbft.transform import (
    MAX_PLAN_POINTS,
    TransformPlan,
    _embed,
    _matvec,
    apply_multiplier,
    build_plan,
    convolve,
    convolve_direct,
    fourier,
    norm,
    plan_window,
    spectrum,
    transform_profile,
    translate,
    triple_kernel,
)


@pytest.fixture(scope="module")
def plan(params):
    return build_plan(params, REFERENCE_GRID)


@pytest.fixture(scope="module")
def members():
    return {e.name: e.f for e in load_corpus()}


@pytest.fixture(scope="module")
def small_plan(params):
    """Outputs on [-4, 10] over the lattice [-35, 75], which holds the
    corpus windows."""
    return build_plan(params, QGrid(-4, 10))


def supdiff(f, g):
    return max(abs(a - b) for a, b in zip(f.values, g.values))


class TestPlanAssembly:
    def test_single_point_entry_is_weighted_kernel_sample(self, params):
        tiny = build_plan(params, QGrid(0, 0))
        with mp.workdps(80):
            want = constants(params).c_q_nu * (1 - params.q) * j_nu_lattice(0, params)
            got = tiny.entry(0, 0)
            assert abs(got - want) / abs(want) < mpf("1e-50")
        with pytest.raises(WindowError):
            tiny.entry(1, 0)
        with pytest.raises(WindowError):
            tiny.entry(0, -1)

    def test_entries_symmetric_up_to_weight_swap(self, params, plan):
        with mp.workdps(plan.dps):
            q = params.q
            nu = params.nu
            s = 2 * nu + 2
            for k, n in [(-3, 5), (0, 7), (12, -1), (30, 2)]:
                lhs = plan.entry(k, n) * q ** (mpf(k) * s)
                rhs = plan.entry(n, k) * q ** (mpf(n) * s)
                assert abs(lhs - rhs) <= mpf("1e-55") * abs(lhs)

    def test_rebuild_is_deterministic(self, params):
        a = build_plan(params, QGrid(-2, 6))
        b = build_plan(params, QGrid(-2, 6))
        assert (a.lat_lo, a.lat_hi, a.dps) == (b.lat_lo, b.lat_hi, b.dps)
        assert a.jrow == b.jrow
        assert a.weights == b.weights

    def test_plan_memory_is_linear_in_the_lattice(self):
        # nu = -0.9 on the reference window: 1115 points; storing its 1.2M
        # matrix entries instead of the Hankel factors takes about 300 MB
        tracemalloc.start()
        try:
            plan = build_plan(QParams(nu="-0.9"), REFERENCE_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.size() == 1115
        assert peak < 32e6

    def test_repr_shows_windows(self, plan):
        assert "[-24,64]" in repr(plan)

    def test_oversized_plan_refused_before_allocating(self):
        # about 6600 lattice points: about 44M multiply-adds per application
        t0 = time.time()
        with pytest.raises(WindowError, match="6605 points exceeds the bound of 2000"):
            build_plan(QParams(q="0.9", nu="-0.9"), QGrid(-6, 12))
        assert time.time() - t0 < 1

    def test_bound_admits_the_supported_plans(self):
        # nu = -0.9 on the reference window: 1115 points, still under the bound
        lo, hi = plan_window(QParams(nu="-0.9"), -24, 64)
        assert hi - lo + 1 == 1115 <= MAX_PLAN_POINTS


class TestFourier:
    def test_zero_maps_to_zero(self, params, plan):
        out = fourier(GridFunction.zero(REFERENCE_GRID), plan)
        assert all(v == 0 for v in out.values)

    def test_matches_dense_sum_of_entries(self, plan, members):
        # the Hankel-factored application against the matrix summed entry by
        # entry over the I/O window, where the inputs live
        ns = REFERENCE_GRID.exponents()
        for name in ("step_two_flips", "gauss_1", "lorentz_qm2"):
            f = members[name]
            out = fourier(f, plan)
            with mp.workdps(plan.dps):
                dense = [mpmath.fsum(plan.entry(k, n) * f.value_at(n) for n in ns)
                         for k in ns]
                sup = max(abs(v) for v in dense)
                worst = max(abs(a - b) for a, b in zip(out.values, dense))
                assert worst <= mpf(10) ** (3 - plan.dps) * sup, name

    def test_output_tagged_rapid(self, plan, members):
        assert fourier(members["gauss_1"], plan).decay_class == DECAY_RAPID

    def test_undeclared_decay_rejected(self, params, plan):
        f = GridFunction.zero(REFERENCE_GRID, DECAY_BOUNDED)
        with pytest.raises(PreconditionError):
            fourier(f, plan)

    def test_window_exceeding_lattice_rejected(self, params, plan):
        f = GridFunction.zero(QGrid(-120, -100), DECAY_RAPID)
        with pytest.raises(WindowError):
            fourier(f, plan)

    def test_lorentz_sample_transforms_to_profile(self, params, plan, members):
        # window-sampled input: absolute interior agreement, relative
        # agreement away from the small-x edge where the profile is tiny
        spec = fourier(members["lorentz_1"], plan)
        with mp.workdps(80):
            q = params.q
            for k in range(-16, 57):
                want = 1 / (1 + q ** (2 * k))
                d = abs(spec.value_at(k) - want)
                assert d < mpf("1e-37")
                if k >= -5:
                    assert d / want < mpf("1e-33")

    def test_double_transform_windowed_route(self, params, plan, members):
        # serializing the spectrum keeps only window samples; the round trip
        # then floors near the small-x edge instead of reaching full depth
        f = members["gauss_1"]
        spec = fourier(f, plan)
        reloaded, _ = gridfunction_from_json(gridfunction_to_json(spec, params))
        back = fourier(reloaded, plan)
        with mp.workdps(80):
            scale = max(abs(v) for v in f.values)
            assert supdiff(back, f) / scale < mpf("1e-35")

    def test_double_transform_retained_spectrum(self, params, plan, members):
        # composing fourier directly keeps the spectrum's off-window lattice
        # samples, which restores sharp-edged members at full depth
        for name in ("step_one_flip", "gauss_1"):
            f = members[name]
            back = fourier(fourier(f, plan), plan)
            with mp.workdps(80):
                scale = max(abs(v) for v in f.values)
                assert supdiff(back, f) / scale < mpf("1e-70")

    def test_linearity(self, params, plan, members):
        f = members["gauss_1"]
        g = members["lorentz_q2"]
        with mp.workdps(80):
            a = mpf(3) / 7
            b = mpf(-5) / 11
            combo = GridFunction(
                REFERENCE_GRID,
                [a * x + b * y for x, y in zip(f.values, g.values)],
                DECAY_INTEGRABLE)
            lhs = fourier(combo, plan)
            ff = fourier(f, plan)
            fg = fourier(g, plan)
            worst = max(abs(lhs.value_at(k) - (a * ff.value_at(k) + b * fg.value_at(k)))
                        for k in REFERENCE_GRID.exponents())
            assert worst < mpf("1e-55")

    def test_plan_reuse_bit_identical(self, plan, members):
        f = members["gauss_1"]
        first = fourier(f, plan)
        second = fourier(f, plan)
        assert all(a == b for a, b in zip(first.values, second.values))


class TestSpectrum:
    def test_whole_lattice_transform_behind_the_window(self, plan, members):
        f = members["gauss_1"]
        spec = spectrum(f, plan)
        assert spec.decay_class == DECAY_RAPID
        assert spec.grid == QGrid(plan.lat_lo, plan.lat_hi)
        win = fourier(f, plan)
        assert all(spec.value_at(k) == v
                   for k, v in zip(win.grid.exponents(), win.values))

    def test_transform_of_spectrum_is_double_transform(self, plan, members):
        for name in ("step_one_flip", "gauss_1"):
            f = members[name]
            a = fourier(spectrum(f, plan), plan)
            b = fourier(fourier(f, plan), plan)
            assert a.values == b.values


class TestLatticeRecord:
    """The whole-lattice record of a transform output, packed bit-exactly."""

    @given(data=st.data(), dps=st.integers(min_value=20, max_value=200),
           size=st.integers(min_value=1, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_pack_unpack_bit_for_bit(self, data, dps, size):
        with mp.workdps(dps):
            bits = mp.prec + 8
            values = [mp.zero if m == 0 else mpmath.ldexp(mpf(m), e)
                      for m, e in data.draw(st.lists(
                          st.tuples(
                              st.one_of(st.just(0), st.integers(
                                  min_value=-2 ** bits, max_value=2 ** bits)),
                              st.integers(min_value=-1500, max_value=1500)),
                          min_size=size, max_size=size))]
        rec = PackedSamples(QGrid(3, 2 + size), values)
        assert rec.grid == QGrid(3, 2 + size)
        assert [v._mpf_ for v in rec.values] == [v._mpf_ for v in values]

    @pytest.mark.parametrize("bad", [mpmath.mpc(1, 1), mp.inf, mp.nan],
                             ids=["complex", "inf", "nan"])
    def test_refuses_what_it_cannot_keep(self, bad):
        with pytest.raises(InvalidParams):
            PackedSamples(QGrid(0, 2), [mp.one, bad, mp.zero])

    def test_fourier_record_is_packed(self, plan, members):
        out = fourier(members["step_two_flips"], plan)
        params, rec = out.lattice
        assert params == plan.params and rec.grid == QGrid(plan.lat_lo, plan.lat_hi)
        assert rec.values == spectrum(members["step_two_flips"], plan).values
        # the class object is shared by every record, not held by this one
        parts = [x for x in gc.get_referents(rec) if not isinstance(x, type)]
        assert not hasattr(rec, "__dict__")
        assert not any(isinstance(x, mpf) for x in parts)
        nbytes = sys.getsizeof(rec) + sum(sys.getsizeof(x) for x in parts)
        assert nbytes <= 50 * plan.size()

    def test_fourier_output_holds_no_mpf(self, plan, members):
        out = fourier(members["alternating_burst"], plan)
        # everything the output owns: its window samples and its lattice
        # record; classes, the plan's params and interned names are shared
        owned = []
        seen = {id(plan.params)}
        stack = [out]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, str)):
                continue
            seen.add(id(obj))
            owned.append(obj)
            stack.extend(gc.get_referents(obj))
        assert not any(isinstance(x, mpf) for x in owned)
        samples = len(out) + len(out.lattice[1])
        assert sum(map(sys.getsizeof, owned)) <= 50 * samples
        # reading .values decodes and assigning it repacks, bit for bit
        spec = spectrum(members["alternating_burst"], plan).values
        lo = plan.out_grid.n_min - plan.lat_lo
        window = [v._mpf_ for v in out.values]
        assert window == [v._mpf_ for v in spec[lo:lo + len(out)]]
        out.values = out.values
        assert [v._mpf_ for v in out.values] == window


# exact zeros, plain ints and mpf values whose exponents spread far wider
# than 2 * prec, so mpf_sum's rule for dropping a negligible partial sum
# runs; the few-valued branch makes exact cancellations, which is where the
# order of summation shows
SAMPLE = st.one_of(
    st.just(0),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.builds(lambda m, e: mpmath.ldexp(mpf(m), e),
              st.integers(min_value=-2 ** 90, max_value=2 ** 90),
              st.integers(min_value=-1500, max_value=1500)),
    st.builds(lambda m, e: mpmath.ldexp(mpf(m), e),
              st.integers(min_value=-2, max_value=2),
              st.sampled_from((-1500, -400, 0, 400, 1500))))


class TestMatvec:
    """_matvec against the plain mpmath.fdot formulation, bit for bit."""

    @staticmethod
    def fdot_rows(plan, vec, rows):
        size = plan.size()
        with mp.workdps(plan.dps):
            u = [w * v for w, v in zip(plan.weights, vec)]
            return [mpmath.fdot(plan.jrow[i:i + size], u) for i in rows]

    @given(data=st.data(), size=st.integers(min_value=1, max_value=7))
    @settings(max_examples=300, deadline=None)
    def test_equals_fdot_bit_for_bit(self, params, data, size):
        def draw_mpf(n):
            with mp.workdps(30):
                return tuple(mpf(v) for v in data.draw(
                    st.lists(SAMPLE, min_size=n, max_size=n)))
        plan = TransformPlan(params, QGrid(0, size - 1), QGrid(0, size - 1),
                             0, size - 1, draw_mpf(2 * size - 1), 20)
        # random factors in place of the lattice weights
        plan.weights = draw_mpf(size)
        vec = data.draw(st.lists(SAMPLE, min_size=size, max_size=size))
        rows = data.draw(st.one_of(
            st.none(), st.lists(st.integers(min_value=0, max_value=size - 1))))
        got = _matvec(plan, vec, rows)
        want = self.fdot_rows(plan, vec, range(size) if rows is None else rows)
        assert [v._mpf_ for v in got] == [v._mpf_ for v in want]

    def test_sums_in_index_order(self, params):
        # 2^2000 - 2^2000 + 1 is 1 in index order; mpf_sum drops the 1 if
        # it comes before the cancelling pair
        plan = TransformPlan(params, QGrid(0, 2), QGrid(0, 2), 0, 2,
                             (mp.one,) * 5, 20)
        plan.weights = (mp.one,) * 3
        big = mpmath.ldexp(mp.one, 2000)
        vec = [big, -big, mp.one]
        assert self.fdot_rows(plan, vec, [0]) == [1]
        assert _matvec(plan, vec, [0]) == [1]

    def test_complex_profile_is_refused(self, plan):
        with pytest.raises(InvalidParams):
            transform_profile(plan, lambda l: mpmath.mpc(1, 1))

    @pytest.mark.parametrize("bad", [mp.inf, mp.nan], ids=["inf", "nan"])
    def test_non_finite_profile_is_refused(self, plan, bad):
        with pytest.raises(InvalidParams, match="finite"):
            transform_profile(plan, lambda l: bad if l == plan.lat_lo + 3 else mp.one)

    def test_drop_rules_match_fdot_bit_for_bit(self, params):
        # mpf_sum drops a partial sum that lies more than 2 * prec bits below
        # the next term, and a term that lies more than 2 * prec bits below
        # the running sum.  Here the dropped value is a 1 that the last term
        # would have uncovered by cancelling the big one, so a row is 1 if
        # the 1 was kept and 0 if it was dropped.
        plan = TransformPlan(params, QGrid(0, 2), QGrid(0, 2), 0, 2,
                             (mp.one,) * 5, 20)
        plan.weights = (mp.one,) * 3
        with mp.workdps(plan.dps):
            limit = 2 * mp.prec
        outcomes = set()
        for gap in range(limit - 2, limit + 4):
            big = mpmath.ldexp(mp.one, gap)
            for name, vec in (("sum below term", [1, big, -big]),
                              ("term below sum", [big, 1, -big])):
                want = self.fdot_rows(plan, vec, [0])
                got = _matvec(plan, vec, [0])
                assert [v._mpf_ for v in got] == [v._mpf_ for v in want], (name, gap)
                outcomes.add((name, int(got[0])))
        # each rule both kept and dropped the 1 within the sweep
        assert outcomes == {(name, kept) for name in ("sum below term", "term below sum")
                            for kept in (0, 1)}

    def test_reference_plan_equals_fdot(self, params, plan, members):
        vec = _embed(plan, members["alternating_burst"])
        got = _matvec(plan, vec)
        want = self.fdot_rows(plan, vec, range(plan.size()))
        assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


class TestWeightTable:
    """Weights from bessel's memos give the bits of a fresh evaluation."""

    def test_triple_kernel_and_norm_cold_equal_warm(self, members, cold_weights):
        p = QParams(q="0.6", nu="0.25")
        x = [mpf("0.6") ** k for k in (2, 0, -1)]
        f = members["gauss_half"]
        def values():
            return [triple_kernel(*x, p), norm(f, 1, p), norm(f, 2, p)]
        cold = values()
        assert bessel._weight.cache_info().currsize > 0
        warm = values()
        assert [v._mpf_ for v in cold] == [v._mpf_ for v in warm]

    def test_plan_weights_cold_equal_warm(self, cold_weights):
        p = QParams(q="0.6", nu="0.25")
        cold = build_plan(p, QGrid(-6, 20))
        warm = build_plan(p, QGrid(-6, 20))
        assert [w._mpf_ for w in cold.weights] == [w._mpf_ for w in warm.weights]


class TestTripleKernel:
    def test_symmetric_under_all_permutations(self, params):
        with mp.workdps(80):
            q = params.q
            base = triple_kernel(q ** 2, q ** 0, q ** -1, params)
            for a, b, c in [(2, 0, -1), (2, -1, 0), (0, 2, -1),
                            (0, -1, 2), (-1, 2, 0), (-1, 0, 2)]:
                v = triple_kernel(q ** a, q ** b, q ** c, params)
                assert abs(v - base) <= mpf("1e-60") * abs(base)

    def test_weighted_marginal_is_one(self, params):
        with mp.workdps(80):
            q = params.q
            total = (1 - q) * mpmath.fsum(
                q ** (mpf(m) * 3) * triple_kernel(q, q ** 2, q ** m, params)
                for m in range(-10, 56))
            assert abs(total - 1) < mpf("1e-40")

    def test_product_formula(self, params):
        with mp.workdps(80):
            q = params.q
            total = (1 - q) * mpmath.fsum(
                q ** (mpf(m) * 3) * triple_kernel(q, q ** 2, q ** m, params)
                * j_nu_lattice(m + 3, params)
                for m in range(-10, 56))
            want = j_nu_lattice(4, params) * j_nu_lattice(5, params)
            assert abs(total - want) < mpf("1e-40")

    def test_off_lattice_argument_rejected(self, params):
        with pytest.raises(DomainError):
            triple_kernel("1.5", "1", "1", params)

    def test_scaled_diagonal_stays_put_at_small_x(self, params):
        # D(x, x, x) x^3 does not depend on x for x = q^k, k >= 0; the head of
        # the sum must follow x down instead of giving up 4000 steps below -4
        with mp.workdps(80):
            q = params.q
            def scaled(k):
                return triple_kernel(q ** k, q ** k, q ** k, params) * q ** (3 * k)
            assert abs(scaled(4100) - scaled(40)) < mpf("1e-50")

    def test_row_longer_than_the_weight_memo_is_refused_up_front(self, params):
        start = time.perf_counter()
        with mp.workdps(40):
            x = params.q ** 13000
        with pytest.raises(WindowError, match="bound of 12000 points"):
            triple_kernel(x, x, x, params)
        assert time.perf_counter() - start < 1

    def test_precision_beyond_the_top_rung_is_refused_up_front(self, params):
        start = time.perf_counter()
        with pytest.raises(PrecisionExhausted, match="top rung"):
            triple_kernel(2 ** 30, 1, 1, params)
        assert time.perf_counter() - start < 1


class TestTranslate:
    def test_eigenfunction_picks_up_product_factor(self, params, plan):
        with mp.workdps(80):
            q = params.q
            t_exp = 5
            f = GridFunction(
                REFERENCE_GRID,
                [j_nu_lattice(t_exp + n, params) for n in REFERENCE_GRID.exponents()],
                DECAY_INTEGRABLE)
            moved = translate(f, q ** 2, plan)
            for y in (-5, 0, 10, 25, 40):
                want = (j_nu_lattice(t_exp + 2, params)
                        * j_nu_lattice(t_exp + y, params))
                assert abs(moved.value_at(y) - want) < mpf("1e-60")

    def test_agrees_with_kernel_route(self, params, plan, members):
        f = members["gauss_1"]
        with mp.workdps(80):
            q = params.q
            moved = translate(f, q ** 2, plan)
            for y in (4, 2, 0, -1, -3):
                total = mpmath.fsum(
                    q ** (mpf(m) * 3) * triple_kernel(q ** 2, q ** y, q ** m, params)
                    * f.value_at(m)
                    for m in range(-12, 47))
                assert abs(moved.value_at(y) - (1 - q) * total) < mpf("1e-35")

    def test_vanishing_shift_returns_input(self, params, plan, members):
        f = members["gauss_1"]
        with mp.workdps(80):
            errs = []
            for x_exp in (20, 30, 40):
                moved = translate(f, params.q ** x_exp, plan)
                errs.append(supdiff(moved, f))
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] < mpf("1e-20")

    def test_off_lattice_point_rejected(self, params, plan, members):
        with pytest.raises(DomainError):
            translate(members["gauss_1"], "0.3", plan)

    def test_symmetric_in_shift_and_argument(self, params, small_plan, members):
        # T_x f(y) = T_y f(x), the identity convolve_direct rests on
        f = members["gauss_1"]
        exps = (-3, 0, 4, 9)
        with mp.workdps(80):
            moved = {a: translate(f, params.q ** a, small_plan) for a in exps}
        with mp.workdps(small_plan.dps):
            scale = max(abs(v) for v in f.values)
            tol = mpf(10) ** -(small_plan.dps - 5) * scale
            for a, b in itertools.combinations(exps, 2):
                assert abs(moved[a].value_at(b) - moved[b].value_at(a)) <= tol


class TestConvolve:
    def test_commutative_bit_for_bit(self, plan, members):
        a = convolve(members["gauss_1"], members["lorentz_q2"], plan)
        b = convolve(members["lorentz_q2"], members["gauss_1"], plan)
        assert all(x == y for x, y in zip(a.values, b.values))

    def test_transform_factorizes(self, params, plan, members):
        f = members["gauss_1"]
        g = members["lorentz_q2"]
        conv = convolve(f, g, plan)
        lhs = fourier(conv, plan)
        ff = fourier(f, plan)
        fg = fourier(g, plan)
        with mp.workdps(80):
            for k in range(-16, 57):
                d = abs(lhs.value_at(k) - ff.value_at(k) * fg.value_at(k))
                assert d < mpf("1e-60")

    def test_lorentz_pair_gives_product_profile(self, params, plan, members):
        conv = convolve(members["lorentz_1"], members["lorentz_q2"], plan)
        spec = fourier(conv, plan)
        with mp.workdps(80):
            q = params.q
            for k in range(-16, 57):
                want = 1 / ((1 + q ** (2 * k)) * (1 + q ** (2 * k) / q ** 4))
                d = abs(spec.value_at(k) - want)
                assert d < mpf("1e-37")
                if k >= -5:
                    assert d / want < mpf("1e-33")

    def test_spectral_route_matches_definitional_route(self, params, plan, members):
        f = members["lorentz_1"]
        g = members["gauss_half"]
        spectral = convolve(f, g, plan)
        direct = convolve_direct(f, g, plan)
        with mp.workdps(80):
            assert supdiff(spectral, direct) < mpf("1e-40")

    def test_undeclared_decay_rejected(self, params, plan, members):
        bad = GridFunction.zero(REFERENCE_GRID, DECAY_BOUNDED)
        with pytest.raises(PreconditionError):
            convolve(members["gauss_1"], bad, plan)

    def test_is_multiplier_by_the_spectrum(self, plan, members):
        f = members["step_three_flips"]
        g = members["lorentz_q2"]
        conv = convolve(f, g, plan)
        mult = apply_multiplier(plan, f, spectrum(g, plan).value_at)
        assert conv.values == mult.values
        assert conv.lattice[0] == mult.lattice[0]
        assert conv.lattice[1].grid == mult.lattice[1].grid
        assert conv.lattice[1].values == mult.lattice[1].values

    @pytest.fixture(scope="class")
    def off_lattice(self):
        """A small plan (lattice [-35, 75]) and g supported below its lattice."""
        plan = build_plan(QParams(), QGrid(-4, 10))
        assert (plan.lat_lo, plan.lat_hi) == (-35, 75)
        g = GridFunction.from_callable(QGrid(-60, -40), lambda n: mpf(n == -45),
                                       DECAY_RAPID)
        return plan, g

    def test_window_off_the_lattice_rejected_by_both_routes(self, off_lattice):
        plan, g = off_lattice
        f = GridFunction.from_callable(QGrid(-4, 10), lambda n: mpf(1), DECAY_RAPID)
        with pytest.raises(WindowError):
            convolve(f, g, plan)
        with pytest.raises(WindowError):
            convolve_direct(f, g, plan)

    def test_decay_checked_before_window(self, off_lattice):
        plan, g = off_lattice
        bounded = GridFunction.zero(QGrid(-4, 10), DECAY_BOUNDED)
        for route in (convolve, convolve_direct):
            with pytest.raises(PreconditionError):
                route(bounded, g, plan)


def per_output_convolve_direct(f, g, plan):
    """The definitional convolution with one translation T_x f per output
    point x, each evaluated on g's support."""
    fh = _matvec(plan, _embed(plan, f))
    nonzero = [(n - plan.lat_lo, v)
               for n, v in zip(g.grid.exponents(), g.values) if v != 0]
    sup = [i for i, _ in nonzero]
    with mp.workdps(plan.dps):
        gw = [plan.weights[i] * v for i, v in nonzero]
        out = []
        for k in plan.out_grid.exponents():
            col = plan.jrow[k - plan.lat_lo:]
            t_x = _matvec(plan, [a * b for a, b in zip(fh, col)], sup)
            out.append(mpmath.fdot(gw, t_x))
    return out


def clear_memos():
    for module in (core, bessel):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


class TestConvolveDirect:
    """The definitional route translates f by each support point of g."""

    @pytest.fixture(scope="class")
    def pairs(self, members):
        """(f, g) with g sparse: the quadrature workload's hump, and one
        point inside the output window, where a step in f feels the shift."""
        one_point = GridFunction.from_callable(QGrid(-4, 10), lambda n: mpf(n == 3),
                                               DECAY_RAPID)
        steps = members["step_three_flips"]
        return [(members["const_plus"], members["hump_small_x"]),
                (steps, members["hump_small_x"]), (steps, one_point)]

    def test_sparse_g_matches_spectral_route(self, small_plan, pairs):
        for f, g in pairs:
            direct = convolve_direct(f, g, small_plan)
            with mp.workdps(80):
                # g's weighted mass is small: hold the routes to its scale too
                scale = max(abs(v) for v in direct.values)
                assert 0 < scale
                tol = mpf("1e-40") * min(1, scale)
                assert supdiff(convolve(f, g, small_plan), direct) < tol

    def test_matches_one_translation_per_output(self, small_plan, pairs):
        for f, g in pairs:
            out = convolve_direct(f, g, small_plan).values
            want = per_output_convolve_direct(f, g, small_plan)
            with mp.workdps(small_plan.dps):
                tol = mpf(10) ** -(small_plan.dps - 3) * max(abs(v) for v in out)
                assert max(abs(a - b) for a, b in zip(out, want)) <= tol

    def test_cold_and_warm_calls_are_bit_identical(self, params, members):
        f = members["const_plus"]
        g = members["hump_small_x"]
        def run():
            plan = build_plan(params, QGrid(-4, 10))
            out = convolve_direct(f, g, plan).values + [
                g_a_lattice(k, 1, params) for k in (-2, 5)]
            return [v._mpf_ for v in out]
        clear_memos()
        assert run() == run()


class TestNorms:
    def test_zero_function_has_zero_norms(self, params):
        z = GridFunction.zero(QGrid(-4, 12))
        for p in (1, 2, "inf"):
            assert norm(z, p, params) == 0

    def test_absolute_homogeneity(self, params, members):
        f = members["gauss_1"]
        with mp.workdps(80):
            c = mpf("-3.5")
            scaled = GridFunction(f.grid, [c * v for v in f.values], f.decay_class)
            for p in (1, 2, "inf"):
                lhs = norm(scaled, p, params)
                rhs = abs(c) * norm(f, p, params)
                assert abs(lhs - rhs) <= mpf("1e-60") * rhs

    def test_exponent_below_one_rejected(self, params):
        with pytest.raises(InvalidParams):
            norm(GridFunction.zero(QGrid(0, 3)), "0.5", params)

    @pytest.mark.parametrize("p", ["nan", "+inf", float("inf"), mp.inf],
                             ids=["nan", "plus-inf", "float-inf", "mp-inf"])
    def test_non_finite_exponent_rejected(self, p, params):
        # "inf" selects the sup norm; any other infinity is not an exponent
        with pytest.raises(InvalidParams):
            norm(GridFunction.zero(QGrid(0, 3)), p, params)

    def test_norm_preserved_by_transform(self, params, plan, members):
        f = members["gauss_1"]
        with mp.workdps(80):
            n_f = norm(f, 2, params)
            n_t = norm(fourier(f, plan), 2, params)
            assert abs(n_f - n_t) / n_f < mpf("1e-40")

    def test_transform_bounded_by_integral_norm(self, params, plan, members):
        f = members["gauss_1"]
        with mp.workdps(80):
            lhs = norm(fourier(f, plan), "inf", params)
            rhs = constants(params).B_q_nu * norm(f, 1, params)
            assert lhs <= rhs

    def test_convolution_norm_inequalities(self, params, plan, members):
        # r-norm of f*g bounded by B-factors times the p and p' norms, for
        # the exponent triples (1,1,1), (1,inf,inf), (2,2,inf); the first
        # two carry constant B, and the (1,inf,inf) case also holds bare.
        f = members["gauss_1"]
        g = members["gauss_half"]
        conv = convolve(f, g, plan)
        with mp.workdps(80):
            B = constants(params).B_q_nu
            assert norm(conv, 1, params) <= B * norm(f, 1, params) * norm(g, 1, params)
            assert norm(conv, "inf", params) <= norm(f, 1, params) * norm(g, "inf", params)
            assert norm(conv, "inf", params) <= B * norm(f, 2, params) * norm(g, 2, params)
