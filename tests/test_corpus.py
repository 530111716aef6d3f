"""Shipped reference corpus: manifest order, declared variation counts,
decay-class tags, and regeneration determinism against the artifacts."""

import json
import os

import pytest
from mpmath import mp, mpf

from qbft.core import DECAY_INTEGRABLE, DECAY_RAPID
from qbft.kernels import KernelSpec
from qbft.corpus import (
    MEMBER_ORDER,
    REFERENCE_GRID,
    build_corpus,
    load_corpus,
    reference_params,
    write_corpus,
)
from qbft.transform import build_plan, transform_profile
from qbft.variation import sign_changes

RAPID_MEMBERS = {"lorentz_q2", "lorentz_1", "lorentz_qm2", "gauss_1",
                 "gauss_half"}
DECLARED_V = {
    "const_plus": 0, "const_minus_half": 0, "step_one_flip": 1,
    "step_two_flips": 2, "step_three_flips": 3, "lorentz_q2": 0,
    "lorentz_1": 0, "lorentz_qm2": 0, "gauss_1": 0, "gauss_half": 0,
    "alternating_burst": 21, "hump_small_x": 0,
}


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


class TestManifest:
    def test_twelve_members_in_declared_order(self, corpus):
        assert [e.name for e in corpus] == MEMBER_ORDER
        assert len(corpus) == 12

    def test_every_member_lives_on_the_reference_window(self, corpus):
        assert all(e.f.grid == REFERENCE_GRID for e in corpus)

    def test_decay_classes_split_rapid_and_integrable(self, corpus):
        for e in corpus:
            want = DECAY_RAPID if e.name in RAPID_MEMBERS else DECAY_INTEGRABLE
            assert e.f.decay_class == want

    def test_plancherel_flag_marks_the_rapid_subset(self, corpus):
        assert {e.name for e in corpus if e.plancherel} == RAPID_MEMBERS

    def test_declared_variation_counts(self, corpus):
        assert {e.name: e.declared_v for e in corpus} == DECLARED_V


class TestVariationCounts:
    def test_counted_changes_match_declarations(self, corpus):
        for e in corpus:
            assert sign_changes(e.f).changes == e.declared_v, e.name

    def test_sign_activity_confined_to_interior_band(self, corpus):
        # flips must sit inside [-8, 36] so convolution edge effects cannot
        # disturb the declared counts
        for e in corpus:
            pat = sign_changes(e.f)
            flips = [pat.exponents[i] for i in range(1, len(pat.signs))
                     if pat.signs[i] != pat.signs[i - 1]]
            assert all(-8 <= n <= 36 for n in flips), e.name


class TestRegeneration:
    def test_rebuilt_values_match_shipped(self, corpus):
        built = build_corpus()
        with mp.workdps(90):
            for shipped, fresh in zip(corpus, built):
                assert shipped.name == fresh.name
                for a, b in zip(shipped.f.values, fresh.f.values):
                    scale = max(mpf(1), abs(b))
                    assert abs(a - b) <= mpf("1e-65") * scale

    def test_writer_reproduces_artifacts_byte_for_byte(self, tmp_path):
        write_corpus(str(tmp_path))
        shipped_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                   "src", "qbft", "data", "corpus")
        names = sorted(os.listdir(shipped_dir))
        assert names == sorted(os.listdir(str(tmp_path)))
        for fn in names:
            with open(os.path.join(shipped_dir, fn)) as fh:
                want = fh.read()
            with open(str(tmp_path / fn)) as fh:
                got = fh.read()
            assert got == want, fn

    def test_lorentz_scales_are_exact_rationals(self):
        # at q = 0.6 the scale q^-2 = 25/9 has no finite decimal form, so a
        # scale rounded to a decimal string moves the member
        plan = build_plan(reference_params().replace(q="0.6"), REFERENCE_GRID)
        built = {e.name: e.f for e in build_corpus(plan=plan)}
        for name, a in (("lorentz_q2", "9/25"), ("lorentz_1", "1"),
                        ("lorentz_qm2", "25/9")):
            want = transform_profile(plan, KernelSpec("0", (a,)).reciprocal_profile(plan))
            assert [v._mpf_ for v in built[name].values] == [
                v._mpf_ for v in want.values], name

    def test_manifest_parameters(self):
        shipped_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                   "src", "qbft", "data", "corpus")
        with open(os.path.join(shipped_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        p = reference_params()
        assert manifest["q"] == p.q_str
        assert manifest["nu"] == p.nu_str
        assert (manifest["n_min"], manifest["n_max"]) == (-24, 64)

    def test_piecewise_members_vanish_outside_their_bands(self, corpus):
        by_name = {e.name: e.f for e in corpus}
        f = by_name["hump_small_x"]
        for n in REFERENCE_GRID.exponents():
            if 18 <= n <= 30:
                assert f.value_at(n) == 1
            else:
                assert f.value_at(n) == 0
        burst = by_name["alternating_burst"]
        assert burst.value_at(0) == 1 and burst.value_at(1) == -1
        assert burst.value_at(-1) == 0 and burst.value_at(22) == 0
