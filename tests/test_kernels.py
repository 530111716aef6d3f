"""Kernel constructions: composite kernels from zero lists, the q-Gauss
family, approximate-identity runs, order diagnostics, and the second-order
factorization.

Closed-form oracles used here: the partial-fraction identity
1/((1+t^2)(1+t^2/4)) = (4/3)/(1+t^2) - (1/3)/(1+t^2/4), whose transform gives
the two-zero composite kernel exactly as a combination of elementary kernels;
the q-exponential transform pair of the Gauss kernel; and the weighted-mass
normalization c (1-q) sum q^(n(2nu+2)) h = 1.  Window-truncation effects are
amplified by q^(-2n) near x -> 0, so comparisons against the windowed
convolution route use calibrated bounds on the unamplified range.
"""

import json
import time

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from qbft.core import (
    DECAY_INTEGRABLE,
    DECAY_RAPID,
    DomainError,
    GridFunction,
    IntegrabilityError,
    InvalidParams,
    NoWitness,
    PrecisionExhausted,
    QGrid,
    QParams,
    WindowError,
    constants,
    jackson_integral_infinite,
    q_bessel_operator,
    qpochhammer_infinite,
)
from qbft.bessel import g_a, g_a_lattice
from qbft.corpus import REFERENCE_GRID, load_corpus, reference_params
import qbft.kernels
import qbft.transform
from qbft.transform import (
    MAX_PLAN_POINTS, apply_multiplier, build_plan, convolve, fourier, norm, plan_window,
    transform_profile,
)
from qbft.kernels import (
    E_eval,
    GAUSS_ROW_CACHE_CAP,
    KERNEL_CACHE_CAP,
    KernelSpec,
    _gauss_multiplier,
    _is_divergent,
    _kernel_record,
    approx_identity_run,
    composite_kernel,
    factorization_check,
    gauss_kernel,
    gauss_kernel_grid,
    kernel_report_to_json,
    order_diagnostic,
)


@pytest.fixture(scope="module")
def plan(params):
    return build_plan(params, REFERENCE_GRID)


@pytest.fixture(scope="module")
def members():
    return {e.name: e.f for e in load_corpus()}


def ga_grid(a_str, params, grid=REFERENCE_GRID):
    with mp.workdps(90):
        vals = [g_a(params.q ** n, a_str, params) for n in grid.exponents()]
    return GridFunction(grid, vals, DECAY_RAPID)


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            KernelSpec("-1", ())
        with pytest.raises(InvalidParams):
            KernelSpec("0", ("1", "0"))
        with pytest.raises(InvalidParams):
            KernelSpec("0", ("2", "1"))

    def test_tail_sum_and_prefix(self):
        spec = KernelSpec("0", ("1", "2", "4"))
        with mp.workdps(40):
            assert abs(spec.tail_sum() - mpf(21) / 16) < mpf("1e-35")
        assert spec.prefix(2).zeros_str == ("1", "2")
        assert spec.prefix(0).zeros_str == ()


class TestEEval:
    def test_no_factors_gives_one(self, params):
        assert E_eval("0.75", KernelSpec("0", ()), params) == 1

    def test_single_zero(self, params):
        spec = KernelSpec("0", ("1",))
        with mp.workdps(60):
            t = mpf(3) / 4
            assert abs(E_eval(t, spec, params) - (1 + t * t)) < mpf("1e-55")

    def test_two_zero_arithmetic(self, params):
        # (1+1)(1+1/4) = 2.5 at t=1
        spec = KernelSpec("0", ("1", "2"))
        with mp.workdps(60):
            assert abs(E_eval(1, spec, params) - mpf("2.5")) < mpf("1e-55")

    def test_classical_exponential_factor(self, params):
        spec = KernelSpec("1", ("1",))
        with mp.workdps(60):
            want = mp.e * 2
            assert abs(E_eval(1, spec, params) - want) < mpf("1e-50")


class TestCompositeKernel:
    def test_integrability_gate(self, params, plan):
        # c = 0 with Z zero factors needs 2Z > 2nu+2
        with pytest.raises(IntegrabilityError):
            composite_kernel(KernelSpec("0", ("1",)), plan)
        p1 = QParams(nu="1")
        plan1 = build_plan(p1, QGrid(-4, 12))
        with pytest.raises(IntegrabilityError):
            composite_kernel(KernelSpec("0", ("1", "2")), plan1)

    def test_refused_profile_still_transforms_pointwise(self, params, plan):
        # the gate refuses the one-zero kernel calculus at nu = 1/2, but the
        # transform of 1/E = 1/(1+t^2) exists pointwise: it is g_1
        spec = KernelSpec("0", ("1",))
        g = transform_profile(plan, spec.reciprocal_profile(plan))
        assert g.decay_class == DECAY_RAPID and g.lattice is None
        with mp.workdps(90):
            for n in (-6, 0, 8, 20):
                assert abs(g.value_at(n) - g_a_lattice(n, 1, params)) < mpf("1e-37")

    def test_single_zero_matches_elementary_kernel(self):
        # at nu = -1/2 one zero factor is already integrable and the kernel
        # is exactly the elementary g_a
        p = QParams(nu="-0.5")
        rep = composite_kernel(
            KernelSpec("0", ("1",)), build_plan(p, QGrid(-8, 30)), chain=False)
        with mp.workdps(90):
            worst = max(abs(rep.kernel.value_at(n) - g_a(p.q ** n, "1", p))
                        for n in range(-8, 31))
            assert worst < mpf("1e-60")
        assert rep.mass_defect < mpf("1e-9")

    def test_two_zeros_match_partial_fraction_form(self, params, plan):
        rep = composite_kernel(KernelSpec("0", ("1", "2")), plan, chain=False)
        with mp.workdps(120):
            q = params.q
            worst = mp.zero
            for n in REFERENCE_GRID.exponents():
                x = q ** n
                want = (mpf(4) / 3 * g_a(x, "1", params)
                        - mpf(1) / 3 * g_a(x, "2", params))
                worst = max(worst, abs(rep.kernel.value_at(n) - want))
            assert worst < mpf("1e-70")

    def test_two_zeros_match_convolution_route(self, params, plan):
        # windowed convolution of the two elementary kernels; agreement is
        # limited by the q^(-2n) amplification of the window truncation
        rep = composite_kernel(KernelSpec("0", ("1", "2")), plan, chain=False)
        conv = convolve(ga_grid("1", params), ga_grid("2", params), plan)
        with mp.workdps(90):
            worst = max(abs(rep.kernel.value_at(n) - conv.value_at(n))
                        for n in range(-24, 17))
            assert worst < mpf("1e-31")

    def test_mass_and_positivity(self, params, plan):
        rep = composite_kernel(KernelSpec("0", ("1", "2", "4")), plan,
                               chain=False)
        assert rep.mass_defect < mpf("1e-39")
        assert all(rep.kernel.value_at(n) > 0 for n in range(-12, 65))
        assert rep.min_value > mpf("-1e-80")
        assert max(rep.kernel.values) > 1

    def test_gaussian_weight_keeps_unit_mass(self, params, plan):
        rep = composite_kernel(KernelSpec("1", ()), plan, chain=False)
        assert rep.mass_defect < mpf("1e-39")
        assert all(rep.kernel.value_at(n) > 0 for n in range(-12, 65))

    def test_chain_reports_skip_and_violation(self, params, plan):
        # prefix 1 fails the integrability gate and is skipped; prefix 2 is
        # genuinely above the full kernel near x -> 0, so the chain flag
        # must report the violation rather than smooth it away
        rep = composite_kernel(KernelSpec("0", ("1", "2", "4")), plan)
        assert rep.monotone_chain_ok is False
        rows = {r["prefix"]: r for r in rep.chain}
        assert rows[1]["skipped"] is True and rows[1]["worst_gap"] is None
        assert rows[2]["skipped"] is False
        with mp.workdps(40):
            assert rows[2]["worst_gap"] < -1
        assert rows[2]["at"] == 64

    def test_report_serializes(self, params, plan):
        rep = composite_kernel(KernelSpec("0", ("1", "2", "4")), plan)
        payload = json.loads(kernel_report_to_json(rep, params))
        assert payload["spec"]["zeros"] == ["1", "2", "4"]
        assert payload["monotone_chain_ok"] is False
        assert payload["chain"][0]["skipped"] is True
        assert len(payload["values"]) == len(REFERENCE_GRID)
        with mp.workdps(80):
            assert abs(mpf(payload["mass"]) - rep.mass) < mpf("1e-58")


def report_bits(report):
    """Every field of a kernel report, mpf as their raw tuples."""
    def bits(x):
        return None if x is None else x._mpf_
    return (report.spec.c_str, report.spec.zeros_str, report.kernel.grid,
            report.kernel.decay_class, report.kernel.samples.split(),
            bits(report.mass), bits(report.mass_defect), bits(report.min_value),
            [(row["prefix"], row["skipped"], bits(row["worst_gap"]), row["at"])
             for row in report.chain],
            report.monotone_chain_ok, bits(report.gap_tol))


class TestKernelRecord:
    """One memoized record per (plan, spec): a repeat call, or a chain
    prefix, reads the kernel's store and its mass, defect and minimum."""

    # the composite specs of the session-warm workload, then those of the suite
    SPECS = [("0", ("1", "2")), ("0", ("0.5", "1")), ("0", ("1", "3")),
             ("0", ("2", "4")), ("0.25", ("1",)), ("0", ("1", "2", "4"))]

    @pytest.mark.parametrize("c, zeros", SPECS)
    def test_repeat_call_is_bit_identical(self, plan, c, zeros):
        _kernel_record.cache_clear()
        spec = KernelSpec(c, zeros)
        first = composite_kernel(spec, plan)
        hits = _kernel_record.cache_info().hits
        second = composite_kernel(spec, plan)
        assert _kernel_record.cache_info().hits > hits
        assert report_bits(second) == report_bits(first)
        # the stored samples are the transform of 1/E
        assert first.kernel.samples.split() == transform_profile(
            plan, spec.reciprocal_profile(plan)).samples.split()
        assert _kernel_record.cache_info().maxsize == KERNEL_CACHE_CAP

    def test_chain_prefix_reads_the_memo(self, plan):
        _kernel_record.cache_clear()
        chained = composite_kernel(KernelSpec("0", ("1", "2", "4")), plan)
        # the full kernel and its one integrable prefix
        assert _kernel_record.cache_info().currsize == 2
        hits = _kernel_record.cache_info().hits
        prefix = composite_kernel(KernelSpec("0", ("1", "2")), plan, chain=False)
        assert _kernel_record.cache_info().hits == hits + 1
        assert _kernel_record.cache_info().currsize == 2
        with mp.workdps(plan.dps):
            gaps = [v - w for v, w in zip(chained.kernel.values, prefix.kernel.values)]
        assert chained.chain[1]["worst_gap"]._mpf_ == min(gaps)._mpf_

    def test_reports_share_the_store_not_the_shell(self, plan):
        spec = KernelSpec("0", ("1", "2"))
        first = composite_kernel(spec, plan, chain=False)
        second = composite_kernel(spec, plan, chain=False)
        assert second.kernel is not first.kernel
        assert second.kernel.samples is first.kernel.samples

    def test_assigning_kernel_values_leaves_the_record(self, plan):
        spec = KernelSpec("0", ("1", "3"))
        first = composite_kernel(spec, plan)
        want = report_bits(composite_kernel(spec, plan))
        first.kernel.values = [mp.zero] * len(first.kernel.grid)
        assert report_bits(composite_kernel(spec, plan)) == want

    def test_divergent_spec_is_refused_every_call(self, plan):
        spec = KernelSpec("0", ("1",))
        size = _kernel_record.cache_info().currsize
        for _ in range(2):
            with pytest.raises(IntegrabilityError):
                composite_kernel(spec, plan)
        assert _kernel_record.cache_info().currsize == size


Q_STRS = st.decimals("0.1", "0.9", places=2).map(str)
NU_STRS = st.decimals("-0.99", "2", places=2).map(str)
C_STRS = st.sampled_from(["0", "0.25", "1"])
ZEROS = st.lists(st.decimals("0.25", "8", places=2), min_size=1, max_size=3).map(
    lambda zs: [str(z) for z in sorted(zs)])


class TestPromisedParameterSpace:
    """composite_kernel over q in [0.1, 0.9], nu in (-1, 2], c in {0, 1/4, 1}
    and one to three zeros on the window [-2, 6]: a report that a second call
    repeats bit for bit, IntegrabilityError exactly where the gate holds, or
    a typed refusal before the work it refuses."""

    @given(q=Q_STRS, nu=NU_STRS, c=C_STRS, zeros=ZEROS)
    @settings(max_examples=12, deadline=None)
    def test_kernel_repeats_or_refuses(self, q, nu, c, zeros):
        p = QParams(q=q, nu=nu)
        grid = QGrid(-2, 6)
        spec = KernelSpec(c, zeros)
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
        try:
            first = composite_kernel(spec, plan)
        except IntegrabilityError:
            assert _is_divergent(spec, p)
            return
        assert not _is_divergent(spec, p)
        assert report_bits(composite_kernel(spec, plan)) == report_bits(first)


class TestGaussKernel:
    def test_positive_and_decreasing_in_x(self, params):
        h = gauss_kernel_grid("1", params, REFERENCE_GRID)
        assert all(v > 0 for v in h.values)
        # samples run from large x (n_min) to small x; must increase toward 0
        assert all(a < b for a, b in zip(h.values, h.values[1:]))

    def test_weighted_mass_is_one(self, params):
        for c in ("1", "0.25"):
            h = gauss_kernel_grid(c, params, REFERENCE_GRID)
            with mp.workdps(90):
                q = params.q
                nu = params.nu
                integrand = GridFunction(
                    h.grid,
                    [v * q ** (n * (2 * nu + 1))
                     for n, v in zip(h.grid.exponents(), h.values)],
                    DECAY_INTEGRABLE)
                mass = constants(params).c_q_nu * jackson_integral_infinite(
                    integrand, params)
                assert abs(mass - 1) < mpf("1e-38")

    def test_transform_is_q_exponential(self, params, plan):
        h = gauss_kernel_grid("1", params, REFERENCE_GRID)
        spec = fourier(h, plan)
        with mp.workdps(90):
            q = params.q
            worst = max(
                abs(spec.value_at(l) - 1 / qpochhammer_infinite(-q ** (2 * l), q * q))
                for l in range(-16, 57))
            assert worst < mpf("1e-40")

    def test_nonpositive_width_rejected(self, params):
        with pytest.raises(DomainError):
            gauss_kernel(1, 0, params)
        with pytest.raises(DomainError):
            gauss_kernel(1, "-2", params)
        with pytest.raises(DomainError):
            gauss_kernel_grid("0", params, QGrid(0, 3))

    def test_grid_samples_are_pointwise_kernel(self):
        # the window shares its c-only products; every bit stays the same
        params = QParams(q="0.7", nu="0")
        grid = QGrid(-6, 6)
        h = gauss_kernel_grid("0.5", params, grid)
        with params.working(10):
            xs = [params.q ** n for n in grid.exponents()]
        assert ([v._mpf_ for v in h.values]
                == [gauss_kernel(x, "0.5", params)._mpf_ for x in xs])


def per_point_multiplier(params, n, l, dps):
    """1/(-q^(2n+2l); q^2)_inf as one infinite product at dps digits."""
    with mp.workdps(dps):
        zq = params.q
        return 1 / qpochhammer_infinite(-zq ** (2 * n) * zq ** (2 * l), zq * zq)


class TestGaussMultiplierRow:
    """The telescoped Gauss multiplier row against one product per point."""

    @pytest.mark.parametrize("nu", ["-0.5", "0", "1"])
    @pytest.mark.parametrize("q", ["0.5", "0.6", "0.7", "0.9"])
    def test_matches_per_point_product(self, q, nu):
        params = QParams(q=q, nu=nu)
        lo, hi = plan_window(params, REFERENCE_GRID.n_min, REFERENCE_GRID.n_max)
        dps = params.precision_digits + 15
        # at q = 1/2 every power is exact and each point is checked; elsewhere
        # the two routes read q at different precisions, so a spread sample
        # is checked against a relative tolerance
        ls = (range(lo, hi + 1) if q == "0.5"
              else sorted({lo, lo + 1, hi - 1, hi, *range(lo, hi, (hi - lo) // 12)}))
        for n in (2, 4, 6, 8):
            row = _gauss_multiplier(params, n, lo, hi, dps).values
            assert len(row) == hi - lo + 1
            for l in ls:
                want = per_point_multiplier(params, n, l, dps)
                if q == "0.5":
                    assert row[l - lo]._mpf_ == want._mpf_, (n, l)
                else:
                    with mp.workdps(dps):
                        err = abs(row[l - lo] / want - 1)
                        assert err <= mpf(10) ** (5 - dps), (n, l)

    def test_stated_error_bound(self):
        # the longest sweep the reference window gives (L = 1430 at q = 0.9,
        # nu = -0.5) against products 40 digits deeper: the row is within
        # 10^-(dps+6) of the exact multiplier plus its final rounding at dps
        params = QParams(q="0.9", nu="-0.5")
        lo, hi = plan_window(params, REFERENCE_GRID.n_min, REFERENCE_GRID.n_max)
        dps = params.precision_digits + 15
        assert hi - lo + 1 > 1000
        n = 2
        row = _gauss_multiplier(params, n, lo, hi, dps).values
        with mp.workdps(dps):
            bound = mpf(10) ** (-dps - 6) + mp.eps
        for l in (lo, lo + 1, lo + 50, (lo + hi) // 2, hi):
            want = per_point_multiplier(params, n, l, dps + 40)
            with mp.workdps(dps + 40):
                assert abs(row[l - lo] / want - 1) <= bound, l


class TestApproxIdentity:
    def test_shrinking_widths_converge(self, params, plan):
        run = approx_identity_run(ga_grid("1", params), plan)
        dists = [d for _, d in run]
        assert [n for n, _ in run] == [2, 4, 6, 8]
        with mp.workdps(40):
            assert all(a > b for a, b in zip(dists, dists[1:]))
            assert dists[-1] < dists[0] / 10
            # frozen regression value for the first distance
            assert abs(dists[0] - mpf("0.0442662")) < mpf("1e-6")

    def test_zero_input_gives_zero_distances(self, params, plan):
        run = approx_identity_run(GridFunction.zero(REFERENCE_GRID), plan,
                                  ns=(2, 4))
        assert all(d == 0 for _, d in run)

    def test_disjoint_windows_rejected(self, params, plan):
        f = GridFunction.zero(QGrid(-120, -100))
        with pytest.raises(WindowError):
            approx_identity_run(f, plan)

    def test_one_product_per_width(self, plan, members, monkeypatch, cold_memos):
        calls = []
        product = qbft.kernels.qpochhammer_infinite

        def counted(*args, **kwargs):
            calls.append(1)
            return product(*args, **kwargs)

        monkeypatch.setattr(qbft.kernels, "qpochhammer_infinite", counted)
        ns = (2, 4, 6)
        approx_identity_run(members["lorentz_1"], plan, ns)
        assert len(calls) == len(ns)
        # a repeat call reads every width's row from the memo
        approx_identity_run(members["lorentz_1"], plan, ns)
        assert len(calls) == len(ns)

    def test_memoized_row_is_the_row(self, params, plan, cold_memos):
        args = (params, 2, plan.lat_lo, plan.lat_hi, plan.dps)
        row = _gauss_multiplier(*args)
        assert row.grid == plan.lattice_grid()
        assert _gauss_multiplier(*args) is row
        assert _gauss_multiplier.cache_info().maxsize == GAUSS_ROW_CACHE_CAP

    def test_one_forward_transform_for_all_widths(self, params, plan, members,
                                                  monkeypatch, cold_memos):
        f = members["lorentz_1"]
        ns = (2, 4)
        want = []
        for n in ns:
            row = _gauss_multiplier(params, n, plan.lat_lo, plan.lat_hi, plan.dps).values
            conv = apply_multiplier(plan, f, lambda l, row=row: row[l - plan.lat_lo])
            with mp.workdps(plan.dps):
                diff = GridFunction(f.grid, [a - b for a, b in zip(f.values, conv.values)],
                                    DECAY_RAPID)
            want.append(norm(diff, 1, params)._mpf_)
        # the reference's spectrum and rows are not the run's
        cold_memos()
        calls = []
        matvec = qbft.transform._matvec

        def counted(plan, vec, rows=None):
            calls.append(plan.size() if rows is None else len(rows))
            return matvec(plan, vec, rows)

        monkeypatch.setattr(qbft.transform, "_matvec", counted)
        run = approx_identity_run(f, plan, ns)
        assert [d._mpf_ for _, d in run] == want
        # the whole lattice once, as its window then the rest, then each
        # width's window
        window = len(plan.window_rows())
        assert calls == [window, plan.size() - window] + [window] * len(ns)
        # a repeat call computes no row of f's spectrum
        del calls[:]
        again = approx_identity_run(f, plan, ns)
        assert [d._mpf_ for _, d in again] == want
        assert calls == [window] * len(ns)


class TestNonFiniteTolerances:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_gap_tol_rejected(self, plan, bad):
        with pytest.raises(InvalidParams):
            composite_kernel(KernelSpec("0", ("1", "2")), plan, gap_tol=bad)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_slack_rejected(self, params, bad):
        G = GridFunction.zero(REFERENCE_GRID)
        with pytest.raises(InvalidParams):
            order_diagnostic(G, params, slack=bad)

    # fewer than two profile points pass every candidate, a vacuous witness
    @pytest.mark.parametrize("bad", [0, -3, 1, 2.0, "16", True])
    def test_points_rejected(self, params, bad):
        G = GridFunction.zero(REFERENCE_GRID)
        with pytest.raises(InvalidParams):
            order_diagnostic(G, params, points=bad)


class TestOrderDiagnostic:
    def test_elementary_kernel_recovers_its_own_scale(self, params):
        with mp.workdps(40):
            a_str = mp.nstr(params.q ** 2, 30)
        G = ga_grid(a_str, params)
        a_est, profile = order_diagnostic(G, params)
        assert a_est == params.q ** 2
        with mp.workdps(40):
            assert all(abs(r - 1) < mpf("1e-30") for r in profile)

    def test_larger_scale_found_by_full_scan(self, params):
        a_est, _ = order_diagnostic(ga_grid("2", params), params)
        assert a_est == 2

    def test_one_point_window_is_refused(self, params):
        # its one-point profile would pass every candidate, whatever its sign
        with pytest.raises(WindowError):
            order_diagnostic(GridFunction(QGrid(5, 5), [-1], DECAY_RAPID), params)

    def test_refused_candidate_is_skipped(self, params):
        # a = q^-8 needs g_a at k = -34, beyond the top rung; the scan skips
        # it as it skips a candidate whose g_a is 0
        G = ga_grid("2", params, QGrid(-26, -6))
        a_est, _ = order_diagnostic(G, params)
        assert a_est == 2

    def test_gauss_kernel_admits_a_witness(self, params):
        h = gauss_kernel_grid("1", params, REFERENCE_GRID)
        a_est, profile = order_diagnostic(h, params)
        assert a_est > 0
        assert len(profile) == 16

    def test_scan_above_true_order_has_no_witness(self, params):
        # scales strictly larger than the input's own decay scale make the
        # quotient grow along the tail, so the scan must report failure
        G = ga_grid("2", params)
        with pytest.raises(NoWitness):
            order_diagnostic(
                G, params, candidates=[params.q ** m for m in range(-8, -1)])


class TestResolventIdentity:
    def test_convolving_then_applying_operator_returns_input(
            self, params, plan, members):
        f = members["lorentz_q2"]
        h = convolve(ga_grid("1", params), f, plan)
        oph = q_bessel_operator(h, params)
        with mp.workdps(90):
            errs = {n: abs(h.value_at(n) - oph.value_at(n) - f.value_at(n))
                    for n in range(-16, 29)}
            assert errs[0] < mpf("1e-38")
            assert max(errs.values()) < mpf("1e-30")

    def test_resolvent_with_wider_kernel(self, params, plan, members):
        f = members["gauss_half"]
        h = convolve(ga_grid("2", params), f, plan)
        oph = q_bessel_operator(h, params)
        with mp.workdps(90):
            worst = max(abs(h.value_at(n) - oph.value_at(n) / 4 - f.value_at(n))
                        for n in range(-16, 57))
            assert worst < mpf("1e-34")


class TestFactorization:
    def test_both_routes_agree_for_gauss_input(self, params):
        h = gauss_kernel_grid("1", params, QGrid(-6, 20))
        lhs, rhs = factorization_check(h, "1", params)
        assert lhs.grid == QGrid(-5, 19)
        with mp.workdps(90):
            worst = max(abs(a - b) for a, b in zip(lhs.values, rhs.values))
            assert worst < mpf("1e-58")

    def test_both_routes_agree_for_kernel_input(self, params):
        lhs, rhs = factorization_check(
            ga_grid("1", params, QGrid(-6, 20)), "2", params)
        with mp.workdps(90):
            worst = max(abs(a - b) for a, b in zip(lhs.values, rhs.values))
            assert worst < mpf("1e-52")

    def test_window_too_small_rejected(self, params):
        h = gauss_kernel_grid("1", params, QGrid(0, 1))
        with pytest.raises(WindowError):
            factorization_check(h, "1", params)
