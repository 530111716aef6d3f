"""Command-line front end: argument handling, file round trips, and the
exit-code contract (0 ok, 2 usage, 3 numeric failure, 4 property violation).

main() is invoked in-process with explicit argv lists; outputs are captured
through capsys or written to tmp_path files and parsed back.
"""

import json
import re
import shlex
import time
from pathlib import Path

import pytest
from mpmath import mp, mpf

from qbft.cli import _build_parser, main
from qbft.core import gridfunction_from_json, gridfunction_to_json
from qbft.bessel import g_a, j_nu_lattice, k_nu
from qbft.corpus import REFERENCE_GRID, load_corpus, reference_params
from qbft.transform import build_plan, convolve, fourier

WINDOW_ARGS = ["--nmin", "-24", "--nmax", "64"]


@pytest.fixture(scope="module")
def members():
    return {e.name: e.f for e in load_corpus()}


@pytest.fixture(scope="module")
def plan(params):
    return build_plan(params, REFERENCE_GRID)


def member_file(tmp_path, name, f, params):
    path = tmp_path / f"{name}.json"
    path.write_text(gridfunction_to_json(f, params))
    return str(path)


def small_file(tmp_path, name, values=("1", "0.5", "0")):
    """A three-point rapid grid function on [0, 2] at q = 1/2, nu = 1/2."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"q": "0.5", "nu": "0.5", "n_min": 0, "n_max": 2,
                                "decay_class": "rapid", "values": list(values)}))
    return str(path)


# --q/--nu strings that differ from a q = 1/2, nu = 1/2 input
OTHER_FLAGS = pytest.mark.parametrize(
    "flags", [["--q", "0.6"], ["--nu", "1"], ["--q", "0.6", "--nu", "1"]],
    ids=["q", "nu", "both"])
SMALL_WINDOW = ["--nmin", "0", "--nmax", "2"]


class TestUsageGate:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "jnu"])
        assert exc.value.code == 2

    def test_invalid_q_exits_2(self, capsys):
        assert main(["--q", "1.5", "eval", "jnu", "--x", "1"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_unparsable_point_exits_2(self, capsys):
        assert main(["eval", "jnu", "--x", "abc"]) == 2
        assert "usage error" in capsys.readouterr().err


class TestEval:
    def test_jnu_matches_library_value(self, params, capsys):
        assert main(["eval", "jnu", "--x", "1"]) == 0
        out = capsys.readouterr().out.strip()
        with mp.workdps(80):
            assert abs(mpf(out) - j_nu_lattice(0, params)) < mpf("1e-55")

    def test_jnu_json_carries_certificate(self, capsys):
        assert main(["--format", "json", "eval", "jnu", "--x", "0.25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"value", "terms_used", "max_term_magnitude",
                                "precision_used"}
        assert payload["precision_used"] >= 60

    def test_scaled_kernel_needs_scale(self, capsys):
        assert main(["eval", "ga", "--x", "1"]) == 2
        assert "--a" in capsys.readouterr().err

    def test_gauss_needs_width(self, capsys):
        assert main(["eval", "gauss", "--x", "1"]) == 2
        assert "--c" in capsys.readouterr().err

    def test_scaled_kernel_value(self, params, capsys):
        assert main(["eval", "ga", "--x", "0.25", "--a", "2"]) == 0
        out = capsys.readouterr().out.strip()
        with mp.workdps(80):
            assert abs(mpf(out) - g_a("0.25", "2", params)) < mpf("1e-55")

    def test_knu_writes_output_file(self, params, tmp_path):
        target = tmp_path / "k.txt"
        assert main(["--out", str(target), "eval", "knu", "--x", "1"]) == 0
        with mp.workdps(80):
            assert abs(mpf(target.read_text()) - k_nu(1, params)) < mpf("1e-55")

    def test_quadrature_beyond_the_top_rung_exits_3(self, capsys):
        # K_nu at x = 2^40 = q^-40 would need about 630 digits, past 8 x 60
        assert main(["eval", "knu", "--x", "1099511627776"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure") and "Traceback" not in err

    def test_quadrature_row_beyond_its_bound_exits_2(self, capsys):
        with mp.workdps(40):
            x = mp.nstr(mpf(2) ** -13000, 30)
        assert main(["eval", "ga", "--x", x, "--a", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["ga", "--x", "1", "--a", "1"],
                                      ["gauss", "--x", "1", "--c", "1"],
                                      ["knu", "--x", "1"]])
    def test_q_near_one_exits_3_fast(self, capsys, argv):
        # the infinite products of the constants would need about 10 million
        # factors, past their cap, and are refused before the first one
        t0 = time.perf_counter()
        assert main(["--q", "0.99999", "eval"] + argv) == 3
        assert time.perf_counter() - t0 < 5
        assert "pochhammer truncation" in capsys.readouterr().err

    def test_uncertifiable_point_exits_3(self, capsys):
        # far enough up the large-x ray the series cancellation exceeds
        # every precision rung the ladder is willing to try
        assert main(["eval", "jnu", "--x", "1073741824"]) == 3
        assert "numeric failure" in capsys.readouterr().err


class TestTransformCommand:
    def test_round_trip_against_library(self, tmp_path, params, plan, members,
                                        capsys):
        src = member_file(tmp_path, "gauss_1", members["gauss_1"], params)
        dst = str(tmp_path / "spec.json")
        code = main(WINDOW_ARGS + ["--out", dst, "transform", "--in", src])
        assert code == 0
        got, _ = gridfunction_from_json(open(dst).read())
        want = fourier(members["gauss_1"], plan)
        with mp.workdps(80):
            assert max(abs(a - b) for a, b in zip(got.values, want.values)) \
                < mpf("1e-60")

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["transform", "--in", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["transform", "--in", str(bad)]) == 2

    @pytest.mark.parametrize("sample", ["nan", "inf", "-inf"])
    def test_non_finite_sample_exits_2(self, tmp_path, capsys, sample):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"q": "0.5", "nu": "0.5", "n_min": 0,
                                   "n_max": 2, "decay_class": "rapid",
                                   "values": ["1", sample, "0"]}))
        assert main(["transform", "--in", str(bad)]) == 2
        assert "not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [5, "123"], ids=["number", "string"])
    def test_non_list_values_exits_2(self, tmp_path, capsys, values):
        # a string must not be read sample by sample as its characters
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"q": "0.5", "nu": "0.5", "n_min": 0,
                                   "n_max": 2, "decay_class": "rapid",
                                   "values": values}))
        assert main(["transform", "--in", str(bad)]) == 2
        assert "values must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("n_min", [0.7, True, "0.7", float("inf")],
                             ids=["fraction", "boolean", "string", "infinite"])
    def test_non_integral_bound_exits_2(self, tmp_path, capsys, n_min):
        # a fractional or boolean bound must not be truncated to an integer
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"q": "0.5", "nu": "0.5", "n_min": n_min,
                                   "n_max": 2, "decay_class": "rapid",
                                   "values": ["1", "0", "0"]}))
        assert main(["--nmin", "0", "--nmax", "2", "transform", "--in", str(bad)]) == 2
        assert "malformed grid function payload" in capsys.readouterr().err

    @OTHER_FLAGS
    def test_flags_differing_from_the_input_exit_2(self, tmp_path, capsys, flags):
        src = small_file(tmp_path, "g")
        assert main(flags + SMALL_WINDOW + ["transform", "--in", src]) == 2
        err = capsys.readouterr().err
        assert "differs from 0." in err and src in err

    def test_flags_matching_the_input_run(self, tmp_path, capsys):
        src = small_file(tmp_path, "g")
        assert main(SMALL_WINDOW + ["transform", "--in", src]) == 0
        bare = capsys.readouterr().out
        argv = ["--q", "0.5", "--nu", "0.5"] + SMALL_WINDOW + ["transform", "--in", src]
        assert main(argv) == 0
        assert capsys.readouterr().out == bare
        assert json.loads(bare)["q"] == "0.5"

    def test_integral_bounds_still_parse(self):
        f, _ = gridfunction_from_json(json.dumps(
            {"q": "0.5", "nu": "0.5", "n_min": 0.0, "n_max": "2",
             "decay_class": "rapid", "values": ["1", "0", "0"]}))
        assert (f.grid.n_min, f.grid.n_max) == (0, 2)


class TestConvolveCommand:
    def test_matches_library_convolution(self, tmp_path, params, plan, members,
                                         capsys):
        fa = member_file(tmp_path, "lorentz_1", members["lorentz_1"], params)
        fb = member_file(tmp_path, "gauss_half", members["gauss_half"], params)
        dst = str(tmp_path / "conv.json")
        code = main(WINDOW_ARGS + ["--out", dst, "convolve",
                                   "--in", fa, "--in2", fb])
        assert code == 0
        got, _ = gridfunction_from_json(open(dst).read())
        want = convolve(members["lorentz_1"], members["gauss_half"], plan)
        with mp.workdps(80):
            assert max(abs(a - b) for a, b in zip(got.values, want.values)) \
                < mpf("1e-60")

    def test_mismatched_parameters_exit_2(self, tmp_path, params, members,
                                          capsys):
        other = reference_params().replace(q="0.25")
        fa = member_file(tmp_path, "a", members["const_plus"], params)
        fb = member_file(tmp_path, "b", members["const_plus"], other)
        assert main(["convolve", "--in", fa, "--in2", fb]) == 2
        assert "different q" in capsys.readouterr().err

    @OTHER_FLAGS
    def test_flags_differing_from_the_inputs_exit_2(self, tmp_path, capsys, flags):
        fa, fb = small_file(tmp_path, "a"), small_file(tmp_path, "b", ("0", "1", "1"))
        assert main(flags + SMALL_WINDOW + ["convolve", "--in", fa, "--in2", fb]) == 2
        assert "differs from 0." in capsys.readouterr().err

    def test_flags_matching_the_inputs_run(self, tmp_path, capsys):
        fa, fb = small_file(tmp_path, "a"), small_file(tmp_path, "b", ("0", "1", "1"))
        assert main(SMALL_WINDOW + ["convolve", "--in", fa, "--in2", fb]) == 0
        bare = capsys.readouterr().out
        argv = ["--q", "0.5", "--nu", "0.5"] + SMALL_WINDOW
        assert main(argv + ["convolve", "--in", fa, "--in2", fb]) == 0
        assert capsys.readouterr().out == bare


class TestKernelCommand:
    def spec_file(self, tmp_path, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_valid_spec_builds_report(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, {"c": "0", "zeros": ["1", "2"]})
        assert main(WINDOW_ARGS + ["kernel", "--spec", spec]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["zeros"] == ["1", "2"]
        assert payload["monotone_chain_ok"] is True
        with mp.workdps(40):
            assert mpf(payload["mass_defect"]) < mpf("1e-39")

    def test_chain_violation_exits_4(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, {"c": "0", "zeros": ["1", "2", "4"]})
        assert main(WINDOW_ARGS + ["kernel", "--spec", spec]) == 4
        captured = capsys.readouterr()
        assert "chain domination violated" in captured.err
        # the report is still emitted for inspection
        assert json.loads(captured.out)["monotone_chain_ok"] is False

    def test_non_integrable_spec_exits_2(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, {"c": "0", "zeros": ["1"]})
        assert main(WINDOW_ARGS + ["kernel", "--spec", spec]) == 2

    def test_non_finite_spec_exits_2(self, tmp_path, capsys):
        # every comparison with NaN is false, so only the parser can stop it
        spec = self.spec_file(tmp_path, {"c": "nan", "zeros": ["1", "2"]})
        assert main(WINDOW_ARGS + ["kernel", "--spec", spec]) == 2
        assert "not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("zeros", ["12", 12], ids=["string", "number"])
    def test_non_list_zeros_exits_2(self, tmp_path, capsys, zeros):
        # the string "12" must not run as the zeros 1 and 2
        spec = self.spec_file(tmp_path, {"c": "0.5", "zeros": zeros})
        assert main(WINDOW_ARGS + ["kernel", "--spec", spec]) == 2
        assert "zeros must be a list" in capsys.readouterr().err

    def test_malformed_spec_exits_2(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, {"zeros": ["1"]})
        assert main(["kernel", "--spec", spec]) == 2
        assert "malformed kernel spec" in capsys.readouterr().err

    # the kernel specs of the cold CLI benchmark as (q, nu, spec), then its
    # known failure, which exits 4
    BENCH_SPECS = (
        [("0.5", nu, {"c": "0", "zeros": zeros}) for nu in ("0.5", "1")
         for zeros in (["1", "2"], ["0.5", "1"], ["1", "3"], ["2", "4"])]
        + [("0.6", "0.5", {"c": c, "zeros": [a]}) for c in ("0.25", "0.5", "1")
           for a in ("1", "2", "4")]
        + [("0.5", "-0.5", {"c": "0", "zeros": ["1", "2"]})])

    @pytest.mark.parametrize("q, nu, payload", BENCH_SPECS)
    def test_repeat_run_prints_the_same_report(self, tmp_path, capsys, q, nu, payload):
        argv = ["--q", q, "--nu", nu, "kernel", "--spec", self.spec_file(tmp_path, payload)]
        runs = []
        for _ in range(2):
            code = main(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        assert runs[1] == runs[0]
        if nu == "-0.5":
            assert runs[0][0] == 4

    def test_oversized_plan_exits_2(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, {"c": "0.5", "zeros": ["1", "2"]})
        argv = ["--q", "0.9", "--nu", "-0.9", "--nmin", "-6", "--nmax", "12",
                "kernel", "--spec", spec]
        assert main(argv) == 2
        assert "exceeds the bound" in capsys.readouterr().err


class TestVerifyCommand:
    def test_passing_criterion_exits_0(self, capsys):
        assert main(["verify", "--only", "2"]) == 0
        out = capsys.readouterr().out
        assert "criterion  2" in out and "PASS" in out
        assert "ALL PASS" in out

    def test_one_window_bound_fills_from_the_suite_window(self, capsys):
        def criterion_2(argv):
            assert main(argv + ["verify", "--only", "2"]) == 0
            line = capsys.readouterr().out.splitlines()[0]
            assert line.startswith("criterion  2")
            # drop the timing, keep verdict and measure
            return line.rsplit("(", 1)[0]
        assert criterion_2(["--nmax", "64"]) == criterion_2([])
        assert criterion_2(["--nmin", "-24"]) == criterion_2([])

    @OTHER_FLAGS
    def test_flags_differing_from_the_reference_exit_2(self, capsys, flags):
        assert main(flags + ["verify", "--only", "2"]) == 2
        captured = capsys.readouterr()
        assert "the verify suite" in captured.err and captured.out == ""

    def test_flags_matching_the_reference_run(self, capsys):
        assert main(["--q", "0.5", "--nu", "0.5", "verify", "--only", "2"]) == 0
        assert "ALL PASS" in capsys.readouterr().out

    def test_violated_criterion_exits_4(self, capsys):
        assert main(["verify", "--only", "8"]) == 4
        out = capsys.readouterr().out
        assert "FAIL" in out and "known violation" in out
        assert "VIOLATIONS PRESENT" in out

    def test_unparsable_list_exits_2(self, capsys):
        assert main(["verify", "--only", "abc"]) == 2

    def test_unknown_criterion_exits_2(self, capsys):
        assert main(["verify", "--only", "99"]) == 2
        assert "unknown criteria" in capsys.readouterr().err

    def test_window_without_interior_band_exits_2(self, capsys):
        assert main(["--nmin", "0", "--nmax", "10", "verify", "--only", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err

    @pytest.mark.parametrize("only", ["", ",", " , "])
    def test_empty_criterion_list_exits_2(self, capsys, only):
        assert main(["verify", "--only", only]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error") and "Traceback" not in err

    def test_duplicate_criterion_exits_2(self, capsys):
        assert main(["verify", "--only", "10,10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "duplicate criteria: [10]" in err

    @pytest.mark.parametrize("ident", ["1", "2", "6"])
    def test_window_short_of_the_corpus_exits_2(self, capsys, ident):
        assert main(["--nmin", "-4", "--nmax", "12", "verify", "--only", ident]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "corpus window" in err


class TestReportCommand:
    def test_saved_run_replays_with_same_exit(self, tmp_path, capsys):
        saved = str(tmp_path / "report.json")
        assert main(["--out", saved, "verify", "--only", "8"]) == 4
        capsys.readouterr()
        assert main(["report", "--in", saved]) == 4
        out = capsys.readouterr().out
        assert "criterion  8" in out and "FAIL" in out
        assert "VIOLATIONS PRESENT" in out

    def test_passing_report_exits_0(self, tmp_path, capsys):
        saved = str(tmp_path / "report.json")
        assert main(["--out", saved, "verify", "--only", "2"]) == 0
        capsys.readouterr()
        assert main(["report", "--in", saved]) == 0
        assert "ALL PASS" in capsys.readouterr().out

    def test_malformed_report_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "r.json"
        for text in ('{"results": "nope"}',
                     '{"passed": true, "results": 5}',
                     '{"passed": true, "results": ["x"]}',
                     '{"passed": true, "results": [{}]}'):
            bad.write_text(text)
            assert main(["report", "--in", str(bad)]) == 2, text


class TestReadmeCommands:
    def test_every_readme_command_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = [line.strip()
                 for block in re.findall(r"```[a-z]*\n(.*?)```", readme, re.S)
                 for line in block.splitlines()
                 if line.strip().startswith("qbft ")]
        assert len(lines) >= 8
        rejected = []
        for line in lines:
            try:
                _build_parser().parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                rejected.append(line)
        assert rejected == []
