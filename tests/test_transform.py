"""Transform layer: plan assembly, the transform and its inverse, translation,
convolution by two routes, and norms.

The expensive reference plan is built once per module and shared; tolerances
come from a calibration run against independent formulas (profile values of
transformed Lorentz kernels, the triple-kernel identities, norm inequalities
with explicit constants).
"""

import gc
import itertools
import pickle
import sys
import time
import tracemalloc

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
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
    split_mpf,
    split_products,
    unsplit_mpf,
)
import qbft.transform
from qbft import bessel
from qbft.bessel import g_a_lattice, j_nu_lattice
from qbft.corpus import REFERENCE_GRID, load_corpus, reference_params
from qbft.kernels import _gauss_multiplier_row, approx_identity_run
from qbft.variation import vd_check
from qbft.transform import (
    MAX_PLAN_POINTS,
    RECORD_CACHE_CAP,
    TransformPlan,
    _lift,
    _matvec,
    _record,
    _source,
    apply_multiplier,
    build_plan,
    convolve,
    convolve_direct,
    fourier,
    multiply_spectrum,
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


def embed(plan, f):
    """f's samples on the plan's whole lattice, split, as fourier reads them."""
    return _lift(plan, _source(plan, f))


def factors(plan):
    """The plan's split j row and weights decoded to mpf, as two tuples."""
    return (tuple(unsplit_mpf(plan._jman, plan._jexp)),
            tuple(unsplit_mpf(plan._wman, plan._wexp)))


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
        assert factors(a) == factors(b)

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

    def test_plan_reuse_bit_identical(self, plan, members, cold_memos):
        f = members["gauss_1"]
        first = fourier(f, plan)
        # a second computation, not the memoized record
        cold_memos()
        second = fourier(f, plan)
        assert second.lattice is not first.lattice
        assert raw(first.values) == raw(second.values)


Q_STRS = st.decimals("0.1", "0.9", places=2).map(str)
NU_STRS = st.decimals("-0.99", "2", places=2).map(str)
STEPS = st.lists(st.integers(-9, 9), min_size=9, max_size=9)


class TestPromisedParameterSpace:
    """fourier inverts itself over q in [0.1, 0.9] and nu in (-1, 2] on the
    window [-2, 6], through its lattice record: to 10^-50 at 60 digits, or a
    typed refusal before the work it refuses."""

    @given(q=Q_STRS, nu=NU_STRS, steps=STEPS)
    @example(q="0.7", nu="-0.9", steps=[9, -9, 1, 0, 0, 5, -2, 7, -1])
    @example(q="0.9", nu="-0.5", steps=[1, 1, -1, 3, 0, 0, 0, -4, 2])
    @example(q="0.9", nu="-0.9", steps=[1] * 9)
    @settings(max_examples=25, deadline=None)
    def test_fourier_inverts_itself_or_refuses(self, q, nu, steps):
        p = QParams(q=q, nu=nu)
        grid = QGrid(-2, 6)
        f = GridFunction(grid, [mpf(s) / 7 for s in steps], DECAY_RAPID)
        lat_lo, lat_hi = plan_window(p, grid.n_min, grid.n_max)
        start = time.perf_counter()
        if lat_hi - lat_lo + 1 > MAX_PLAN_POINTS:
            with pytest.raises(WindowError):
                build_plan(p, grid)
            assert time.perf_counter() - start < 0.5
            return
        try:
            plan = build_plan(p, grid)
        except PrecisionExhausted:
            return
        back = fourier(fourier(f, plan), plan)
        with mp.workdps(plan.dps):
            assert supdiff(back, f) <= mpf(10) ** -50


class TestSpectrum:
    def test_whole_lattice_transform_behind_the_window(self, plan, members, cold_memos):
        f = members["gauss_1"]
        spec = spectrum(f, plan)
        assert spec.decay_class == DECAY_RAPID
        assert spec.grid == QGrid(plan.lat_lo, plan.lat_hi)
        cold_memos()
        win = fourier(f, plan)
        assert all(spec.value_at(k) == v
                   for k, v in zip(win.grid.exponents(), win.values))

    def test_transform_of_spectrum_is_double_transform(self, plan, members, cold_memos):
        for name in ("step_one_flip", "gauss_1"):
            f = members[name]
            a = fourier(spectrum(f, plan), plan)
            cold_memos()
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

    @pytest.mark.parametrize("mans, exps", [([1, 3, 5], [0, 1]), ([1, 3], [0, 1, 2])],
                             ids=["short-exponents", "short-mantissas"])
    def test_ragged_split_samples_are_refused(self, mans, exps):
        with pytest.raises(InvalidParams, match="does not match window size 3"):
            PackedSamples.from_split(QGrid(0, 2), mans, exps)

    def test_fourier_record_is_packed(self, plan, members, cold_memos):
        out = fourier(members["step_two_flips"], plan)
        params, rec = out.lattice.params, out.lattice.samples()
        assert params == plan.params and rec.grid == QGrid(plan.lat_lo, plan.lat_hi)
        cold_memos()
        assert rec.values == spectrum(members["step_two_flips"], plan).values
        # the class object is shared by every record, not held by this one
        parts = [x for x in gc.get_referents(rec) if not isinstance(x, type)]
        assert not hasattr(rec, "__dict__")
        assert not any(isinstance(x, mpf) for x in parts)
        nbytes = sys.getsizeof(rec) + sum(sys.getsizeof(x) for x in parts)
        assert nbytes <= 50 * plan.size()

    @staticmethod
    def owned_by(out, shared):
        """Everything out owns: its window samples and its lattice record,
        pending or computed.  Classes, interned names and the shared
        objects are left out."""
        owned = []
        seen = set(map(id, shared))
        stack = [out]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, str)):
                continue
            seen.add(id(obj))
            owned.append(obj)
            stack.extend(gc.get_referents(obj))
        return owned

    def test_fourier_output_holds_no_mpf(self, plan, members, cold_memos):
        out = fourier(members["alternating_burst"], plan)
        # a pending record holds the plan, which every output of the plan
        # shares, as it shares the plan's params
        for _ in ("pending", "computed"):
            owned = self.owned_by(out, [plan, plan.params])
            assert not any(isinstance(x, mpf) for x in owned)
            samples = sum(len(x) for x in owned if isinstance(x, PackedSamples))
            assert sum(map(sys.getsizeof, owned)) <= 50 * samples
            out.lattice.samples()
        assert samples == len(out) + plan.size()
        # reading .values decodes and assigning it repacks, bit for bit
        cold_memos()
        spec = spectrum(members["alternating_burst"], plan).values
        lo = plan.out_grid.n_min - plan.lat_lo
        window = [v._mpf_ for v in out.values]
        assert window == [v._mpf_ for v in spec[lo:lo + len(out)]]
        out.values = out.values
        assert [v._mpf_ for v in out.values] == window

    def test_assigning_values_drops_the_record(self, plan, members):
        out = fourier(members["step_two_flips"], plan)
        out.values = [0] * len(out)
        assert out.lattice is None
        fresh = GridFunction(out.grid, [0] * len(out), DECAY_RAPID)
        assert raw(fourier(out, plan).values) == raw(fourier(fresh, plan).values)
        assert all(v == 0 for v in fourier(out, plan).values)

    def test_the_sample_store_cannot_be_replaced_beside_its_record(self, plan, members):
        # a new store assigned to .samples would leave the old record, which
        # the next transform through the plan reads in place of the samples
        out = fourier(members["step_two_flips"], plan)
        with pytest.raises(AttributeError):
            out.samples = PackedSamples(out.grid, [0] * len(out))


def raw(values):
    return [v._mpf_ for v in values]


@pytest.fixture
def matvec_rows(monkeypatch):
    """Wraps _matvec; returns the list of (plan size, rows) of each call,
    rows as a tuple of lattice indices."""
    calls = []
    matvec = qbft.transform._matvec

    def recorded(plan, vec, rows=None):
        calls.append((plan.size(), tuple(range(plan.size()) if rows is None else rows)))
        return matvec(plan, vec, rows)

    monkeypatch.setattr(qbft.transform, "_matvec", recorded)
    return calls


def window_rows(plan):
    return tuple(range(plan.out_grid.n_min - plan.lat_lo,
                       plan.out_grid.n_max - plan.lat_lo + 1))


def all_rows(plan):
    return tuple(range(plan.size()))


class TestPendingRecord:
    """fourier computes its window rows; the rest of its lattice record is
    computed on first read, with the bits spectrum() gives."""

    @pytest.mark.parametrize("which", ["plan", "small_plan"])
    def test_record_is_the_spectrum_bit_for_bit(self, request, which, members, cold_memos):
        plan = request.getfixturevalue(which)
        for name, f in members.items():
            out = fourier(f, plan)
            record = out.lattice.samples()
            back = fourier(out, plan)
            # spectrum() computed afresh, not read from the records above
            cold_memos()
            spec = spectrum(f, plan)
            assert (out.lattice.params, out.lattice.grid) == (plan.params, spec.grid), name
            assert out.lattice.params == plan.params and record.grid == spec.grid
            assert spec.samples is not record
            assert raw(record.values) == raw(spec.values), name
            # the transform of the whole-lattice spectrum, windowed
            lo = plan.out_grid.n_min - plan.lat_lo
            want = spectrum(spec, plan).values[lo:lo + len(plan.out_grid)]
            assert raw(back.values) == raw(want), name

    def test_only_window_rows_until_read(self, params, plan, members, matvec_rows,
                                         cold_memos):
        f = members["step_two_flips"]
        win = (plan.size(), window_rows(plan))
        full = (plan.size(), all_rows(plan))
        off = (plan.size(), tuple(r for r in all_rows(plan) if r not in window_rows(plan)))
        out = fourier(f, plan)
        transform_profile(plan, lambda l: mpf(1) / (1 + mpf(2) ** (-2 * l)))
        assert matvec_rows == [win, win]
        del matvec_rows[:]
        first = out.lattice.samples()
        assert matvec_rows == [off]
        assert out.lattice.samples() is first
        # a repeat transform of the same samples computes zero rows
        del matvec_rows[:]
        again = fourier(f, plan)
        assert again.lattice is out.lattice and again.samples is out.samples
        assert spectrum(f, plan).samples is first
        assert matvec_rows == []
        # f's spectrum is read from its record: only the products' windows
        # and gauss_1's and lorentz_1's spectra are computed
        approx_identity_run(f, plan, (2, 4))
        vd_check(members["gauss_1"], [f, members["lorentz_1"]], plan)
        assert matvec_rows == [win, win, full, win, full, win]
        # the Gauss widths are caller multipliers, computed again; the
        # convolutions are memoized and computed once
        del matvec_rows[:]
        approx_identity_run(f, plan, (2, 4))
        vd_check(members["gauss_1"], [f, members["lorentz_1"]], plan)
        assert matvec_rows == [win] * 2

    def test_other_params_leave_the_record_pending(self, params, plan, members,
                                                   matvec_rows, cold_memos):
        out = fourier(members["step_one_flip"], plan)
        assert matvec_rows == [(plan.size(), window_rows(plan))]
        # the same lattice as plan's, under params that differ in tol only
        other = build_plan(params.replace(tol="1e-41"), REFERENCE_GRID)
        assert other.lattice_grid() == plan.lattice_grid()
        del matvec_rows[:]
        vec = embed(other, out)
        assert matvec_rows == []
        assert vec == embed(other, GridFunction(out.grid, out.values))
        out.lattice.samples()
        assert len(matvec_rows) == 1
        # a repeat read and a repeat transform compute zero rows
        out.lattice.samples()
        fourier(members["step_one_flip"], plan)
        assert len(matvec_rows) == 1

    def test_other_lattice_leaves_the_record_pending(self, plan, small_plan,
                                                     members, matvec_rows, cold_memos):
        out = fourier(members["step_one_flip"], plan)
        assert small_plan.params == plan.params
        assert matvec_rows == [(plan.size(), window_rows(plan))]
        del matvec_rows[:]
        assert embed(small_plan, out) == embed(small_plan, GridFunction(out.grid, out.values))
        assert matvec_rows == []
        embed(plan, out)
        assert matvec_rows == [
            (plan.size(), tuple(r for r in all_rows(plan) if r not in window_rows(plan)))]
        # a repeat read computes zero rows
        embed(plan, out)
        assert len(matvec_rows) == 1

    def test_pickle_keeps_the_record_pending(self, plan, members, matvec_rows, cold_memos):
        out = fourier(members["alternating_burst"], plan)
        blob = pickle.dumps(out)
        back = pickle.loads(blob)
        assert matvec_rows == [(plan.size(), window_rows(plan))]
        assert raw(back.values) == raw(out.values)
        assert (back.lattice.params, back.lattice.grid) == (out.lattice.params, out.lattice.grid)
        assert raw(back.lattice.samples().values) == raw(out.lattice.samples().values)
        assert len(matvec_rows) == 3
        # repeat reads, and a repeat transform, compute zero rows
        back.lattice.samples()
        assert fourier(members["alternating_burst"], plan).lattice is out.lattice
        assert len(matvec_rows) == 3
        # the plan travels as integers, not as mpf values, so carrying it
        # costs less than the computed record it stands for
        assert len(blob) <= 2 * len(pickle.dumps(out))

    def test_unpickled_plan_is_the_plan(self, plan):
        back = pickle.loads(pickle.dumps(plan))
        assert (back._jman, back._jexp) == (plan._jman, plan._jexp)
        assert (back._wman, back._wexp) == (plan._wman, plan._wexp)
        assert (back.params, back.lattice_grid(), back.out_grid, back.dps) == (
            plan.params, plan.lattice_grid(), plan.out_grid, plan.dps)


def product_copy(plan, spec, factor):
    """fourier of spec's samples times the split factor, copied into a store
    of their own: the route that outputs holding their factors replace."""
    scaled = split_products(*spec.samples.split(), *factor, plan._prec)
    return fourier(GridFunction.packed(
        PackedSamples.from_split(plan.lattice_grid(), *scaled), DECAY_RAPID), plan)


class TestRecordMemo:
    """One memoized lattice record per (plan, source), and spectral products
    that hold their two factors."""

    def test_assigning_values_gives_a_fresh_spectrum(self, plan, members, cold_memos):
        f = GridFunction(REFERENCE_GRID, members["step_one_flip"].values, DECAY_RAPID)
        stale = spectrum(f, plan)
        stale_window = fourier(f, plan)
        f.values = members["step_two_flips"].values
        fresh = spectrum(f, plan)
        fresh_window = fourier(f, plan)
        assert fresh.samples is not stale.samples
        cold_memos()
        want = spectrum(members["step_two_flips"], plan)
        assert raw(fresh.values) == raw(want.values) != raw(stale.values)
        assert raw(fresh_window.values) == raw(fourier(members["step_two_flips"], plan).values)
        assert raw(fresh_window.values) != raw(stale_window.values)

    def test_the_memo_never_exceeds_its_cap(self, params, cold_memos):
        tiny = build_plan(params, QGrid(0, 0))
        extra = 6
        for k in range(RECORD_CACHE_CAP + extra):
            fourier(GridFunction(QGrid(0, 0), [k], DECAY_RAPID), tiny)
            assert _record.cache_info().currsize <= RECORD_CACHE_CAP
        info = _record.cache_info()
        assert info.maxsize == RECORD_CACHE_CAP == 64
        assert (info.currsize, info.misses, info.hits) == (
            RECORD_CACHE_CAP, RECORD_CACHE_CAP + extra, 0)

    @pytest.mark.parametrize("route", ["convolve", "translate", "translate-off-lattice",
                                       "callable", "split-row"])
    def test_a_product_record_pickles_to_the_product_copy_bits(self, params, plan, members,
                                                               route, cold_memos):
        f = members["step_three_flips"]
        g = members["lorentz_q2"]
        spec = spectrum(f, plan)
        lo, size = plan.lat_lo, plan.size()
        # the j column at q^m, on the plan's lattice or off it
        m = 100 if route == "translate-off-lattice" else 3
        if m <= plan.lat_hi:
            column = (plan._jman[m - lo:m - lo + size], plan._jexp[m - lo:m - lo + size])
        else:
            column = bessel.j_nu_lattice_row(m + lo, m + plan.lat_hi, params, plan.dps)
        if route == "convolve":
            out = convolve(f, g, plan)
            factor = spectrum(g, plan).samples.split()
        elif route.startswith("translate"):
            with mp.workdps(plan.dps):
                out = translate(f, params.q ** m, plan)
            factor = column
        elif route == "callable":
            row = unsplit_mpf(*column)
            out = multiply_spectrum(plan, spec, lambda l: row[l - lo])
            factor = column
        else:
            out = multiply_spectrum(plan, spec,
                                    PackedSamples.from_split(plan.lattice_grid(), *column))
            factor = column
        blob = pickle.dumps(out)
        # the reference is computed afresh, through a copied product
        cold_memos()
        want = product_copy(plan, spec, factor)
        back = pickle.loads(blob)
        assert back.lattice.source is not None
        assert raw(back.values) == raw(out.values) == raw(want.values)
        assert raw(back.lattice.samples().values) == raw(want.lattice.samples().values)

    @pytest.mark.parametrize("route", ["convolve", "translate", "multiply_spectrum"])
    def test_a_product_output_owns_its_window_only(self, plan, members, route, cold_memos):
        f = members["step_three_flips"]
        g = members["lorentz_q2"]
        # the spectra are the memoized records' stores, shared like the plan
        shared = [plan, plan.params, spectrum(f, plan).samples, spectrum(g, plan).samples]
        entries = _record.cache_info().currsize
        if route == "convolve":
            out = convolve(f, g, plan)
        elif route == "translate":
            out = translate(f, "0.125", plan)
        else:
            out = multiply_spectrum(plan, spectrum(f, plan), spectrum(g, plan).samples)
        # a convolution's or a translation's record is entered in the memo,
        # a caller multiplier's is not
        memoized = route != "multiply_spectrum"
        assert _record.cache_info().currsize == entries + memoized
        owned = TestLatticeRecord.owned_by(out, shared)
        assert not any(isinstance(x, mpf) for x in owned)
        samples = sum(len(x) for x in owned if isinstance(x, PackedSamples))
        assert samples == len(out) < plan.size()
        assert sum(map(sys.getsizeof, owned)) <= 50 * samples
        # reading the record computes and keeps the whole lattice
        out.lattice.samples()
        owned = TestLatticeRecord.owned_by(out, shared)
        assert sum(len(x) for x in owned if isinstance(x, PackedSamples)) == (
            len(out) + plan.size())

    @pytest.mark.parametrize("route", ["convolve", "translate", "translate-off-lattice",
                                       "vd_check"])
    def test_a_repeat_computes_no_row(self, params, plan, members, matvec_rows, route,
                                      cold_memos):
        f = members["step_three_flips"]
        g = members["lorentz_q2"]
        m = 100 if route == "translate-off-lattice" else 3
        assert (m > plan.lat_hi) == (route == "translate-off-lattice")

        def run():
            if route.startswith("translate"):
                with mp.workdps(plan.dps):
                    return translate(f, params.q ** m, plan)
            if route == "vd_check":
                # vd_check's convolution is convolve's record
                vd_check(g, [f], plan)
            return convolve(f, g, plan)

        full = (plan.size(), all_rows(plan))
        win = (plan.size(), window_rows(plan))
        first = run()
        assert matvec_rows == ([full, win] if route.startswith("translate")
                               else [full, full, win])
        del matvec_rows[:]
        again = run()
        assert matvec_rows == []
        assert again.lattice is first.lattice and again.samples is first.samples

    def test_caller_multipliers_are_not_memoized(self, plan, members, cold_memos):
        f = members["step_three_flips"]
        spec = spectrum(f, plan)
        row = spectrum(members["gauss_1"], plan).samples
        entries = _record.cache_info().currsize
        multiply_spectrum(plan, spec, row)
        apply_multiplier(plan, f, PackedSamples.from_split(plan.lattice_grid(), *row.split()))
        apply_multiplier(plan, f, lambda l: mpf(1) / (1 + mpf(2) ** (-2 * l)))
        approx_identity_run(f, plan, (2, 4))
        assert _record.cache_info().currsize == entries


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
        jrow, weights = factors(plan)
        with mp.workdps(plan.dps):
            u = [w * v for w, v in zip(weights, vec)]
            return [mpmath.fdot(jrow[i:i + size], u) for i in rows]

    @given(data=st.data(), size=st.integers(min_value=1, max_value=7))
    @settings(max_examples=300, deadline=None)
    def test_equals_fdot_bit_for_bit(self, params, data, size):
        def draw_mpf(n):
            with mp.workdps(30):
                return tuple(mpf(v) for v in data.draw(
                    st.lists(SAMPLE, min_size=n, max_size=n)))
        # random factors in place of the lattice weights
        plan = TransformPlan(params, QGrid(0, size - 1), QGrid(0, size - 1),
                             0, size - 1, split_mpf(draw_mpf(2 * size - 1)),
                             split_mpf(draw_mpf(size)), 20)
        vec = data.draw(st.lists(SAMPLE, min_size=size, max_size=size))
        rows = data.draw(st.one_of(
            st.none(), st.lists(st.integers(min_value=0, max_value=size - 1))))
        got = unsplit_mpf(*_matvec(plan, split_mpf(vec), rows))
        want = self.fdot_rows(plan, vec, range(size) if rows is None else rows)
        assert [v._mpf_ for v in got] == [v._mpf_ for v in want]

    def test_sums_in_index_order(self, params):
        # 2^2000 - 2^2000 + 1 is 1 in index order; mpf_sum drops the 1 if
        # it comes before the cancelling pair
        plan = TransformPlan(params, QGrid(0, 2), QGrid(0, 2), 0, 2,
                             split_mpf((mp.one,) * 5), split_mpf((mp.one,) * 3), 20)
        big = mpmath.ldexp(mp.one, 2000)
        vec = [big, -big, mp.one]
        assert self.fdot_rows(plan, vec, [0]) == [1]
        assert unsplit_mpf(*_matvec(plan, split_mpf(vec), [0])) == [1]

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
                             split_mpf((mp.one,) * 5), split_mpf((mp.one,) * 3), 20)
        with mp.workdps(plan.dps):
            limit = 2 * mp.prec
        outcomes = set()
        for gap in range(limit - 2, limit + 4):
            big = mpmath.ldexp(mp.one, gap)
            for name, vec in (("sum below term", [1, big, -big]),
                              ("term below sum", [big, 1, -big])):
                want = self.fdot_rows(plan, vec, [0])
                got = unsplit_mpf(*_matvec(plan, split_mpf(vec), [0]))
                assert [v._mpf_ for v in got] == [v._mpf_ for v in want], (name, gap)
                outcomes.add((name, int(got[0])))
        # each rule both kept and dropped the 1 within the sweep
        assert outcomes == {(name, kept) for name in ("sum below term", "term below sum")
                            for kept in (0, 1)}

    def test_reference_plan_equals_fdot(self, params, plan, members):
        vec = embed(plan, members["alternating_burst"])
        got = unsplit_mpf(*_matvec(plan, vec))
        want = self.fdot_rows(plan, unsplit_mpf(*vec), range(plan.size()))
        assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


# Copies of the mpf application route the integer pipeline replaced: mpf
# products at the plan's precision and one mpmath.fdot per row
# (TestMatvec.fdot_rows).  The pipeline must give their bits.

def mpf_lift(plan, f):
    """f's samples on the plan's lattice as mpf, from its lattice record
    when that matches the plan, as _source chooses."""
    rec = f.lattice
    if rec is not None and (rec.params, rec.grid) == (plan.params, plan.lattice_grid()):
        return rec.samples().values
    vec = [mp.zero] * plan.size()
    base = f.grid.n_min - plan.lat_lo
    vec[base:base + len(f)] = f.values
    return vec


def mpf_fourier(f, plan):
    """(window rows, whole-lattice record) of fourier(f, plan) by mpf."""
    full = TestMatvec.fdot_rows(plan, mpf_lift(plan, f), range(plan.size()))
    rows = plan.window_rows()
    return full[rows.start:rows.stop], full


def mpf_multiply_spectrum(plan, spec_values, factors):
    with mp.workdps(plan.dps):
        scaled = [v * m for v, m in zip(spec_values, factors)]
    return mpf_fourier(GridFunction(plan.lattice_grid(), scaled, DECAY_RAPID), plan)


def mpf_convolve_direct(f, g, plan):
    fh = mpf_fourier(f, plan)[1]
    nonzero = [(n - plan.lat_lo, v)
               for n, v in zip(g.grid.exponents(), g.values) if v != 0]
    if not nonzero:
        return [mp.zero] * len(plan.out_grid)
    jrow, weights = factors(plan)
    with mp.workdps(plan.dps):
        gw = [weights[i] * v for i, v in nonzero]
        t_y = [TestMatvec.fdot_rows(plan, [a * b for a, b in zip(fh, jrow[i:])],
                                    plan.window_rows())
               for i, _ in nonzero]
        return [mpmath.fdot(gw, col) for col in zip(*t_y)]


class TestIntegerPipeline:
    """Every application reads and writes samples as integers, with the
    bits of the mpf route."""

    @staticmethod
    def check(plan, f, g, factors):
        """fourier and its resolved record, a transform through the record,
        spectrum, multiply_spectrum by a callable and by a packed split row,
        and convolve_direct, each against its mpf copy."""
        out = fourier(f, plan)
        window, full = mpf_fourier(f, plan)
        spec = spectrum(f, plan)
        assert raw(out.values) == raw(window)
        assert raw(spec.values) == raw(full)
        assert raw(out.lattice.samples().values) == raw(full)
        assert raw(fourier(out, plan).values) == raw(mpf_fourier(out, plan)[0])
        want = raw(mpf_multiply_spectrum(plan, full, factors)[0])
        by_callable = multiply_spectrum(plan, spec, lambda l: factors[l - plan.lat_lo])
        by_row = multiply_spectrum(
            plan, spec, PackedSamples.from_split(plan.lattice_grid(), *split_mpf(factors)))
        assert raw(by_callable.values) == want
        assert raw(by_row.values) == want
        assert raw(by_row.lattice.samples().values) == raw(by_callable.lattice.samples().values)
        assert raw(convolve_direct(f, g, plan).values) == raw(mpf_convolve_direct(f, g, plan))

    @given(data=st.data(), size=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_small_plans_equal_the_mpf_route(self, params, data, size):
        def draw(n):
            with mp.workdps(30):
                return [mpf(v) for v in data.draw(st.lists(SAMPLE, min_size=n, max_size=n))]
        def window():
            lo = data.draw(st.integers(min_value=0, max_value=size - 1))
            return QGrid(lo, data.draw(st.integers(min_value=lo, max_value=size - 1)))
        # a head of exact zeros, as build_plan floors, so the row trim runs
        zeros = data.draw(st.integers(min_value=0, max_value=2 * size - 1))
        jrow = [mp.zero] * zeros + draw(2 * size - 1 - zeros)
        lattice = QGrid(0, size - 1)
        plan = TransformPlan(params, lattice, window(), 0, size - 1, split_mpf(jrow),
                             split_mpf(draw(size)), 20)
        f_grid = window()
        f = GridFunction(f_grid, data.draw(st.lists(SAMPLE, min_size=len(f_grid),
                                                    max_size=len(f_grid))), DECAY_RAPID)
        g_grid = window()
        g = GridFunction(g_grid, data.draw(st.lists(SAMPLE, min_size=len(g_grid),
                                                    max_size=len(g_grid))), DECAY_RAPID)
        self.check(plan, f, g, draw(size))

    def test_reference_plan_equals_the_mpf_route(self, params, plan, members):
        # the Gauss row of approx_identity_run as the multiplier, and a g of
        # two points, one each side of x = 1, to keep the mpf route short
        factors = _gauss_multiplier_row(params, 2, plan.lat_lo, plan.lat_hi, plan.dps)
        g = GridFunction.from_callable(REFERENCE_GRID, lambda n: mpf(n in (-3, 20)),
                                       DECAY_RAPID)
        for name in ("step_two_flips", "gauss_1", "alternating_burst"):
            self.check(plan, members[name], g, factors)

    @pytest.mark.parametrize("m", [3, 100], ids=["on-lattice", "off-lattice"])
    def test_translate_equals_the_mpf_route(self, params, plan, members, m):
        f = members["step_one_flip"]
        if plan.lat_lo <= m <= plan.lat_hi:
            col = factors(plan)[0][m - plan.lat_lo:m - plan.lat_lo + plan.size()]
        else:
            col = unsplit_mpf(*bessel.j_nu_lattice_row(
                m + plan.lat_lo, m + plan.lat_hi, params, plan.dps))
        with mp.workdps(plan.dps):
            x = params.q ** m
        want = mpf_multiply_spectrum(plan, mpf_fourier(f, plan)[1], col)[0]
        assert raw(translate(f, x, plan).values) == raw(want)

    def test_a_row_of_mpf_values_is_refused(self, plan, members):
        with pytest.raises(InvalidParams, match="callable or a PackedSamples"):
            apply_multiplier(plan, members["gauss_1"], list(factors(plan)[1]))

    @pytest.mark.parametrize("mans, exps", [(7, 7), (-1, -1), (0, 1), (1, 0)],
                             ids=["long", "short", "ragged-exponents", "ragged-mantissas"])
    def test_a_row_off_the_lattice_size_is_refused(self, plan, members, matvec_rows,
                                                   monkeypatch, mans, exps):
        spec = spectrum(members["gauss_1"], plan)
        products = []
        split_products = qbft.transform.split_products
        monkeypatch.setattr(qbft.transform, "split_products",
                            lambda *args: products.append(args) or split_products(*args))
        del matvec_rows[:]
        size = plan.size()
        row = ([1] * (size + mans), [0] * (size + exps))
        with pytest.raises(InvalidParams, match=f"does not match window size {size}"):
            multiply_spectrum(plan, spec, PackedSamples.from_split(plan.lattice_grid(), *row))
        # refused before any product or application
        assert products == [] and matvec_rows == []
        with pytest.raises(InvalidParams, match=f"does not match window size {size}"):
            apply_multiplier(plan, members["gauss_1"],
                             PackedSamples.from_split(plan.lattice_grid(), *row))

    def test_a_split_tuple_is_refused(self, plan, members, matvec_rows, monkeypatch):
        f = members["gauss_1"]
        spec = spectrum(f, plan)
        row = spec.samples.split()
        products = []
        split_products = qbft.transform.split_products
        monkeypatch.setattr(qbft.transform, "split_products",
                            lambda *args: products.append(args) or split_products(*args))
        del matvec_rows[:]
        with pytest.raises(InvalidParams, match="callable or a PackedSamples"):
            multiply_spectrum(plan, spec, row)
        with pytest.raises(InvalidParams, match="callable or a PackedSamples"):
            apply_multiplier(plan, f, row)
        # refused before any product or application
        assert products == [] and matvec_rows == []

    @pytest.mark.parametrize("form", ["callable", "split-row"])
    def test_a_spectrum_off_the_plan_lattice_is_refused(self, plan, members, matvec_rows,
                                                        monkeypatch, form):
        size = plan.size()
        factors = []
        multiplier = {"callable": lambda l: factors.append(l) or (2 if l < 0 else 1),
                      "split-row": PackedSamples.from_split(plan.lattice_grid(),
                                                            [1] * size, [0] * size)}[form]
        # the output window of fourier, and a whole-lattice spectrum one step off
        spec = spectrum(members["gauss_1"], plan)
        shifted = GridFunction.packed(
            PackedSamples.from_split(QGrid(plan.lat_lo + 1, plan.lat_hi + 1),
                                     *spec.samples.split()), DECAY_RAPID)
        offs = (fourier(members["gauss_1"], plan), shifted)
        products = []
        split_products = qbft.transform.split_products
        monkeypatch.setattr(qbft.transform, "split_products",
                            lambda *args: products.append(args) or split_products(*args))
        del matvec_rows[:]
        for off in offs:
            with pytest.raises(WindowError, match="is not the plan lattice"):
                multiply_spectrum(plan, off, multiplier)
            # refused before any factor, product or application
            assert factors == [] and products == [] and matvec_rows == []

    def test_a_multiplier_store_off_the_plan_lattice_is_refused(self, plan, members,
                                                                matvec_rows):
        spec = spectrum(members["gauss_1"], plan)
        shifted = PackedSamples.from_split(QGrid(plan.lat_lo + 1, plan.lat_hi + 1),
                                           *spec.samples.split())
        del matvec_rows[:]
        for off in (shifted, fourier(members["gauss_1"], plan).samples):
            with pytest.raises(WindowError, match="multiplier window .* is not the plan lattice"):
                multiply_spectrum(plan, spec, off)
        assert matvec_rows == []

    def test_head_rows_of_floored_zeros_are_exact_zeros(self, plan, members,
                                                        monkeypatch):
        vec = embed(plan, members["step_one_flip"])
        span = [i for i, man in enumerate(vec[0]) if man]
        zero_rows = [r for r in range(plan.size()) if r + span[-1] < plan._jstart]
        assert len(zero_rows) > 10
        firsts = []
        dot = qbft.transform.exact_dot

        def recorded(jman, *rest):
            firsts.append(jman[0])
            return dot(jman, *rest)

        monkeypatch.setattr(qbft.transform, "exact_dot", recorded)
        got = _matvec(plan, vec)
        assert [(got[0][r], got[1][r]) for r in zero_rows] == [(0, 0)] * len(zero_rows)
        assert raw(unsplit_mpf(*got)) == raw(
            TestMatvec.fdot_rows(plan, unsplit_mpf(*vec), range(plan.size())))
        # no dot for the zero rows, and every other starts at a nonzero j sample
        assert len(firsts) == plan.size() - len(zero_rows)
        assert all(firsts)

    def test_no_sample_is_decoded(self, plan, members, monkeypatch, cold_memos):
        f = members["step_two_flips"]
        g = members["hump_small_x"]

        def run():
            outs = {"fourier": fourier(f, plan)}
            outs["record"] = outs["fourier"].lattice.samples()
            outs["roundtrip"] = fourier(outs["fourier"], plan)
            outs["spectrum"] = spectrum(f, plan)
            outs["convolve"] = convolve(f, g, plan)
            outs["translate"] = translate(f, "0.25", plan)
            outs["apply_multiplier"] = apply_multiplier(
                plan, f, PackedSamples.from_split(plan.lattice_grid(),
                                                  *spectrum(g, plan).samples.split()))
            outs["convolve_direct"] = convolve_direct(f, g, plan)
            got = {k: getattr(v, "samples", v).split() for k, v in outs.items()}
            got["vd_check"] = vd_check(members["gauss_1"], [f, g], plan).rows
            return got

        want = run()

        def refuse(samples):
            raise AssertionError("a PackedSamples was decoded to mpf")

        monkeypatch.setattr(PackedSamples, "values", property(refuse))
        # every row computed again, not read from the records of the first run
        cold_memos()
        assert run() == want


class TestWeightTable:
    """Weights from bessel's memos give the bits of a fresh evaluation."""

    def test_triple_kernel_and_norm_cold_equal_warm(self, members, cold_memos):
        p = QParams(q="0.6", nu="0.25")
        x = [mpf("0.6") ** k for k in (2, 0, -1)]
        f = members["gauss_half"]
        def values():
            return [triple_kernel(*x, p), norm(f, 1, p), norm(f, 2, p)]
        cold = values()
        assert bessel._weight_block.cache_info().currsize > 0
        warm = values()
        assert [v._mpf_ for v in cold] == [v._mpf_ for v in warm]

    def test_plan_weights_cold_equal_warm(self, cold_memos):
        p = QParams(q="0.6", nu="0.25")
        cold = build_plan(p, QGrid(-6, 20))
        warm = build_plan(p, QGrid(-6, 20))
        assert (cold._wman, cold._wexp) == (warm._wman, warm._wexp)


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
        assert conv.lattice.params == mult.lattice.params
        assert conv.lattice.samples().grid == mult.lattice.samples().grid
        assert conv.lattice.samples().values == mult.lattice.samples().values

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
    fh = unsplit_mpf(*_matvec(plan, embed(plan, f)))
    nonzero = [(n - plan.lat_lo, v)
               for n, v in zip(g.grid.exponents(), g.values) if v != 0]
    sup = [i for i, _ in nonzero]
    jrow, weights = factors(plan)
    with mp.workdps(plan.dps):
        gw = [weights[i] * v for i, v in nonzero]
        out = []
        for k in plan.out_grid.exponents():
            col = jrow[k - plan.lat_lo:]
            t_x = unsplit_mpf(*_matvec(plan, split_mpf([a * b for a, b in zip(fh, col)]),
                                       sup))
            out.append(mpmath.fdot(gw, t_x))
    return out


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

    def test_translations_do_not_feed_the_oracle(self, params, small_plan, pairs,
                                                 matvec_rows):
        for f, g in pairs:
            support = [n for n, man in zip(g.grid.exponents(), g.samples.split()[0]) if man]
            with mp.workdps(small_plan.dps):
                for n in support:
                    translate(f, params.q ** n, small_plan)
            del matvec_rows[:]
            convolve_direct(f, g, small_plan)
            assert matvec_rows == [(small_plan.size(), window_rows(small_plan))] * len(support)

    def test_cold_and_warm_calls_are_bit_identical(self, params, members, cold_memos):
        f = members["const_plus"]
        g = members["hump_small_x"]
        def run():
            plan = build_plan(params, QGrid(-4, 10))
            out = convolve_direct(f, g, plan).values + [
                g_a_lattice(k, 1, params) for k in (-2, 5)]
            return [v._mpf_ for v in out]
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
