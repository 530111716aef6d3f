"""Tests of the benchmark itself: generator, oracles, tracer and output.

    python3 -m pytest bench/tests -q

The oracle tests take real library outputs, check that they pass, then
perturb them at the 1e-30 level and check that they fail.  The smoke tests
run every workload for one block and take a few minutes.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from mpmath import mp, mpf

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import qbft  # noqa: E402
import qbft.cli  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

PERTURB = mpf("1e-30")


def _bump(x):
    with mp.workdps(200):
        return x * (1 + PERTURB)


def _bump_largest(values):
    i = max(range(len(values)), key=lambda k: abs(values[k]))
    return values[:i] + [_bump(values[i])] + values[i + 1:]


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert W.make_block(workload, 7) == W.make_block(workload, 7)
    assert W.make_block(workload, 7) != W.make_block(workload, 8)


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_every_seed_draws_the_same_templates(workload):
    def kinds(block):
        return sorted(json.dumps([op.get("kind") or op.get("cmd"), op.get("q"),
                                  op.get("nu"), op.get("plan")]) for op in block)
    assert kinds(W.make_block(workload, 1)) == kinds(W.make_block(workload, 2))


# ---------------------------------------------------------------------------
# oracles: a correct output passes, the same output moved by 1e-30 fails

def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = qbft.cli.main(argv)
    return code, buf.getvalue(), ""


CLI_CASES = [
    {"cmd": "jnu", "q": "0.5", "nu": "-0.5", "digits": 60, "x": "3.25"},
    {"cmd": "knu", "q": "0.5", "nu": "0", "digits": 60, "k": 2},
    {"cmd": "ga", "q": "0.6", "nu": "-0.5", "digits": 60, "k": 1, "j": 1},
    {"cmd": "gauss", "q": "0.7", "nu": "0", "digits": 90, "x": "1.5", "c": "0.5"},
    {"cmd": "transform", "q": "0.5", "nu": "0.5", "digits": 60, "c": "1"},
    {"cmd": "convolve", "q": "0.5", "nu": "0.5", "digits": 60, "c": "1",
     "bands": [[2, 9, "1"], [10, 20, "-1"]]},
    {"cmd": "kernel", "q": "0.5", "nu": "0.5", "digits": 60,
     "spec": {"c": "0", "zeros": ["1", "2"]}},
]


@pytest.mark.parametrize("op", CLI_CASES, ids=lambda op: op["cmd"])
def test_cli_checks_flag_a_1e30_perturbation(op, tmp_path):
    wl = W.WORKLOADS["cli-cold"]
    oracles = W.Oracles()
    code, out, err = _cli(wl.prepare(op, str(tmp_path), "t"))
    assert wl.check(op, (code, out, err), oracles)[0]
    with mp.workdps(200):
        if op["cmd"] in ("jnu", "knu", "ga", "gauss"):
            bad = mp.nstr(_bump(mpf(out.strip())), op["digits"] + 10)
        else:
            payload = json.loads(out)
            vals = [mpf(v) for v in payload["values"]]
            vals = ([_bump(v) for v in vals] if op["cmd"] == "kernel"
                    else _bump_largest(vals))
            payload["values"] = [mp.nstr(v, op["digits"] + 15) for v in vals]
            bad = json.dumps(payload)
    assert not wl.check(op, (code, bad, err), oracles)[0]


def test_expected_exit_follows_the_integrability_gate():
    wl = W.WORKLOADS["cli-cold"]
    gated = {"cmd": "kernel", "q": "0.5", "nu": "1", "digits": 60,
             "spec": {"c": "0", "zeros": ["1", "2"]}}
    assert wl.expected_exit(gated) == 2
    assert wl.expected_exit(dict(gated, nu="0.5")) == 0
    assert wl.expected_exit(dict(gated, spec={"c": "0.5", "zeros": ["1"]})) == 0


@pytest.fixture(scope="module")
def warm_state():
    return W.WORKLOADS["session-warm"].setup(qbft)


SESSION_CASES = [
    {"kind": "roundtrip", "plan": "P318", "f": "step_one_flip"},
    {"kind": "lorentz_pair", "plan": "P185", "f": "lorentz_1"},
    {"kind": "convolve", "plan": "P185", "f": "step_two_flips", "g": "gauss_1"},
    {"kind": "translate", "plan": "P185", "f": "gauss_half", "m": 2},
    {"kind": "composite", "plan": "P185", "f": "const_plus",
     "spec": ["0", ["1", "2"]]},
    {"kind": "omega", "plan": "P185", "f": "gauss_1"},
]


def _perturbed(op, out):
    if op["kind"] == "composite":
        out.kernel.values = [_bump(v) for v in out.kernel.values]
    elif op["kind"] == "omega":
        out.coefficients[1] = _bump(out.coefficients[1])
    else:
        out.values = _bump_largest(out.values)
    return out


@pytest.mark.parametrize("op", SESSION_CASES, ids=lambda op: op["kind"])
def test_session_checks_flag_a_1e30_perturbation(op, warm_state):
    wl = W.WORKLOADS["session-warm"]
    oracles = W.Oracles()
    assert wl.check(op, wl.run(op, warm_state), warm_state, oracles)[0]
    bad = _perturbed(op, wl.run(op, warm_state))
    assert not wl.check(op, bad, warm_state, oracles)[0]


@pytest.fixture(scope="module")
def quad_state():
    return W.WORKLOADS["quadrature"].setup(qbft)


QUAD_CASES = [
    {"kind": "ga", "nu": "-0.5", "j": 1, "k": -3},
    {"kind": "knu", "nu": "1", "k": 2},
    {"kind": "triple", "nu": "0", "ks": [1, 3, -2]},
    {"kind": "d_nu", "nu": "0.5"},
    {"kind": "convolve_direct", "f": "step_one_flip", "g": "hump_small_x"},
]


@pytest.mark.parametrize("op", QUAD_CASES, ids=lambda op: op["kind"])
def test_quadrature_checks_flag_a_1e30_perturbation(op, quad_state):
    wl = W.WORKLOADS["quadrature"]
    oracles = W.Oracles()
    out = wl.run(op, quad_state)
    assert wl.check(op, out, quad_state, oracles)[0]
    if op["kind"] == "convolve_direct":
        out.values = _bump_largest(out.values)
        bad = out
    else:
        bad = _bump(out)
    assert not wl.check(op, bad, quad_state, oracles)[0]


# ---------------------------------------------------------------------------
# tracer

def test_tracer_patches_consumer_bindings_and_restores_them():
    original = qbft.bessel.j_nu_lattice
    assert qbft.transform.j_nu_lattice is original
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qbft.transform.j_nu_lattice is not original
        assert qbft.bessel.j_nu_lattice is qbft.transform.j_nu_lattice
        assert qbft.j_nu_lattice is qbft.transform.j_nu_lattice
        params = qbft.QParams()
        qbft.triple_kernel("0.5", "0.25", "1", params)
    finally:
        tracer.uninstall()
    assert qbft.transform.j_nu_lattice is original
    summary = tracing.summarize([tracer.dump()])
    assert summary["calls"]["transform.pointwise"] == 1
    assert summary["calls"]["bessel.j_nu_lattice"] > 0
    assert summary["calls"]["core.constants"] == 1
    total = sum(summary["self_s"].values())
    assert abs(total - summary["covered_s"]) < 1e-6 * max(1.0, total)


# ---------------------------------------------------------------------------
# smoke runs: every metric named in BENCHMARK.json is printed

def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _smoke(workload, trace):
    p = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                        "--workload", workload, "--seed", "3", "--seconds", "0.1",
                        "--trace", str(trace)],
                       capture_output=True, text=True, cwd=ROOT, timeout=175)
    assert p.returncode == 0, p.stderr
    return p.stdout, json.loads(p.stdout.strip().splitlines()[-1])


def test_benchmark_spec_names_every_workload_and_metric():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]


@pytest.mark.parametrize("workload", ["cli-cold", "session-warm", "quadrature"])
def test_smoke_run_prints_every_metric(workload):
    spec = _spec()
    text, result = _smoke(workload, 0)
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
    for label in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
                  "failed_frac", "min_digits", "peak_rss_mb", "ops digest"):
        assert label in text
    _, traced = _smoke(workload, 1)
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_compare_refuses_a_different_op_digest(tmp_path):
    record = {"identity": {"workload": "quadrature", "backend": "python",
                           "ops_digest": "aaaa"},
              "end_to_end": {name: 1.0 for name, _ in run.END_TO_END}}
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(record))
    record["identity"]["ops_digest"] = "bbbb"
    b.write_text(json.dumps(record))
    assert run.main(["--compare", str(a), str(a)]) == 0
    assert run.main(["--compare", str(a), str(b)]) == 2
