"""qbft benchmark: seeded closed-loop workloads with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare A.json B.json

One client, one op at a time.  A run sets the workload up, then repeats the
seed's op block until at least S seconds have passed (whole blocks only, so
every run does the same mix), then checks every output against an oracle
that does not share the library's code path.  Workloads:

  cli-cold      each op a fresh `python -m qbft.cli` process
  session-warm  one process; transform applications on two warm plans
  quadrature    one process; per-point adaptive quadratures, four orders

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run (spans around qbft's public functions, see tracing.py) and the
tracing overhead against an untraced twin run with the same seed.  qbft is
always imported from this checkout's src/.  --out writes the full record,
and --compare refuses to compare records whose backend or op digest differ.

Times are scaled to a reference machine speed.  On a shared host the speed
of the same code drifts by up to 2x over seconds, so a fixed calibration
loop runs at least every CAL_EVERY_S seconds between ops, and each op's
time is multiplied by CAL_REF_S over the mean of the calibrations taken
just before and just after it: "ms" means milliseconds on a machine where
the calibration loop takes CAL_REF_S.  The run length, too, counts scaled
seconds.  The raw wall-clock figures are printed beside the scaled ones.
"""

import argparse
import hashlib
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 3
CAL_EVERY_S = 0.1
CAL_REF_S = 0.005   # the calibration loop's fastest time on a 2-core x86 host
END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("ok_frac", "fraction"),
              ("min_digits", "digits"), ("peak_rss_mb", "MB")]


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, failed twin)."""


def load_qbft():
    if not os.path.isfile(os.path.join(SRC, "qbft", "__init__.py")):
        raise BenchError(f"no qbft sources under {SRC}")
    sys.path.insert(0, SRC)
    import qbft
    if not os.path.abspath(qbft.__file__).startswith(SRC + os.sep):
        raise BenchError(f"qbft imported from {qbft.__file__}, not from {SRC}")
    return qbft


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def identity(args, block):
    import mpmath
    digest = hashlib.sha256(json.dumps(block, sort_keys=True).encode()).hexdigest()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": sys.version.split()[0],
            "mpmath": mpmath.__version__, "backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(), "ops_digest": digest[:16],
            "ops_per_block": len(block)}


def calibrate():
    """Seconds one fixed loop of mpmath arithmetic takes right now."""
    from mpmath import mp, mpf
    t0 = time.perf_counter()
    with mp.workdps(100):
        x = mp.one
        step = mpf("1.0000001")
        for i in range(800):
            x = x * step + mpf(i) / 7
    return time.perf_counter() - t0


def setup_probe(workload):
    """(scaled, raw) seconds from spawning a fresh process to the workload
    being ready."""
    before = calibrate()
    spawned = time.monotonic()
    p = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), workload],
                       capture_output=True, text=True, cwd=ROOT, env=child_env(),
                       timeout=120)
    if p.returncode != 0:
        raise BenchError(f"set-up probe failed: {p.stderr.strip()[-300:]}")
    raw = float(p.stdout.strip().splitlines()[-1]) - spawned
    return raw * 2 * CAL_REF_S / (before + calibrate()), raw


class Raised:
    """An op that raised instead of returning."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


def timed_loop(block, runner, seconds):
    """Repeat the block until `seconds` scaled seconds of ops have run.

    Returns (scaled latencies, raw latencies, outputs, raw wall seconds).
    """
    marks = [calibrate()]      # calibration readings, in order
    spans = []                 # (index of the reading before the op, raw s)
    outputs = []
    scaled_total = 0.0
    start = last_mark = time.perf_counter()
    while True:
        for i, op in enumerate(block):
            if time.perf_counter() - last_mark >= CAL_EVERY_S:
                marks.append(calibrate())
                last_mark = time.perf_counter()
            t0 = time.perf_counter()
            try:
                out = runner(i, op)
            except Exception as exc:  # a failed op is counted, never retried
                out = Raised(exc)
            raw = time.perf_counter() - t0
            spans.append((len(marks) - 1, raw))
            outputs.append((i, out))
            scaled_total += raw * CAL_REF_S / marks[-1]
        if scaled_total >= seconds:
            wall = time.perf_counter() - start
            marks.append(calibrate())
            scaled = [raw * 2 * CAL_REF_S / (marks[m] + marks[m + 1])
                      for m, raw in spans]
            return scaled, [raw for _, raw in spans], outputs, wall


def check_all(wl, block, outputs, state):
    """Verdict per executed op; identical outputs of one op share a check."""
    from workloads import Oracles
    oracles = Oracles()
    memo = {}
    verdicts = []
    for i, out in outputs:
        if isinstance(out, Raised):
            verdicts.append((False, None, out.text))
            continue
        key = (i, hashlib.sha1(pickle.dumps(out)).hexdigest())
        if key not in memo:
            try:
                if wl.in_process:
                    memo[key] = wl.check(block[i], out, state, oracles)
                else:
                    memo[key] = wl.check(block[i], out, oracles)
            except Exception as exc:  # an unreadable output fails its op
                memo[key] = (False, None, f"check raised {type(exc).__name__}: {exc}")
        verdicts.append(memo[key])
    return verdicts


def tail(latencies):
    """(value, percentile): the highest percentile with ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup_samples, latencies, verdicts, rss_mb):
    """The end-to-end metrics from scaled set-up samples and op latencies."""
    failed = sum(1 for ok, _, _ in verdicts if not ok)
    digits = [d for ok, d, _ in verdicts if ok and d is not None]
    tail_s, _ = tail(latencies)
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * tail_s,
        "ok_frac": (len(verdicts) - failed) / len(verdicts),
        "min_digits": min(digits) if digits else 0.0,
        "peak_rss_mb": rss_mb,
    }


def per_layer(logs, wall_s, start_s, ops_per_s, untraced_ops_per_s):
    from tracing import LAYERS, REPEAT_LAYERS, summarize
    summary = summarize(logs)
    covered = summary["covered_s"] + start_s
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = (summary["calls"][name], "count")
        metrics[f"{name}.self_s"] = (summary["self_s"][name], "s")
        metrics[f"{name}.share"] = (summary["self_s"][name] / wall_s, "fraction")
    for name in REPEAT_LAYERS:
        metrics[f"{name}.repeat_frac"] = (summary["repeat_frac"][name], "fraction")
    for name, value in summary["counts"].items():
        metrics[name] = (value, "count")
    metrics["cli.start_s"] = (start_s, "s")
    metrics["cli.start.share"] = (start_s / wall_s, "fraction")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.covered_frac"] = (covered / wall_s, "fraction")
    metrics["trace.gap_s"] = (wall_s - covered, "s")
    metrics["trace.ops_per_s"] = (ops_per_s, "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced_ops_per_s, "1/s")
    metrics["trace.overhead_frac"] = (untraced_ops_per_s / ops_per_s - 1, "fraction")
    return metrics


def untraced_twin(args):
    """ops_per_s of an untraced run with the same seed, in a child process."""
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", "0"],
                       capture_output=True, text=True, cwd=ROOT, timeout=175)
    if p.returncode != 0:
        raise BenchError(f"untraced twin run failed: {p.stderr.strip()[-300:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])["metrics"]["ops_per_s"]["value"]


def run(args):
    qbft = load_qbft()
    from workloads import WORKLOADS, make_block, run_cli
    wl = WORKLOADS[args.workload]
    block = make_block(args.workload, args.seed)
    ident = identity(args, block)
    print(f"# qbft benchmark: {ident['workload']}, seed {ident['seed']}, "
          f"{ident['seconds']} s, trace {ident['trace']}")
    print(f"# python {ident['python']}, mpmath {ident['mpmath']}, backend "
          f"{ident['backend']}, nproc {ident['nproc']}, qbft from {SRC}")
    print(f"# ops digest {ident['ops_digest']} ({len(block)} ops per block)",
          flush=True)

    untraced = untraced_twin(args) if args.trace else None
    setup_probe("cli-cold")  # untimed: compiles bytecode, warms the page cache
    probes = [setup_probe(args.workload) for _ in range(SETUP_PROBES)]
    setup_samples = [scaled for scaled, _ in probes]

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    tmp = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        state = None
        setup_s = 0.0
        if wl.in_process:
            if tracer:
                tracer.install()
            t0 = time.perf_counter()
            state = wl.setup(qbft)
            setup_s = time.perf_counter() - t0
            runner = lambda i, op: wl.run(op, state)
        else:
            argvs = [wl.prepare(op, tmp, f"op{i}") for i, op in enumerate(block)]
            env = child_env()
            spans_paths = []
            def runner(i, op):
                path = None
                if tracer:
                    path = os.path.join(tmp, f"spans{len(spans_paths)}.json")
                    spans_paths.append(path)
                return run_cli(argvs[i], env, ROOT, path)
        latencies, raw_latencies, outputs, loop_s = timed_loop(
            block, runner, args.seconds)
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        rss_mb = resource.getrusage(who).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()
        verdicts = check_all(wl, block, outputs, state)
        known = None
        if not wl.in_process:
            op = wl.KNOWN_FAILURE
            code, _, err = run_cli(wl.prepare(op, tmp, "known"), child_env(), ROOT)
            known = {"op": op, "exit": code, "expected": wl.expected_exit(op),
                     "stderr": err.strip()[-200:]}
        logs = []
        start_s = 0.0
        if tracer and wl.in_process:
            logs = [tracer.dump()]
        elif tracer:
            for path in spans_paths:
                with open(path) as fh:
                    logs.append(json.load(fh))
            start_s = sum(log["start_s"] for log in logs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(1 for ok, _, _ in verdicts if not ok)
    e2e = end_to_end(setup_samples, latencies, verdicts, rss_mb)
    report(wl, block, outputs, latencies, raw_latencies, verdicts, e2e, probes,
           setup_s, loop_s, known)
    record = {"identity": ident, "attempted": len(latencies), "failed": failed,
              "end_to_end": e2e, "known_failure": known}
    if args.trace:
        wall_s = setup_s + loop_s
        layers = per_layer(logs, wall_s, start_s, e2e["ops_per_s"], untraced)
        report_layers(layers, wall_s)
        record["per_layer"] = {k: v for k, (v, _) in layers.items()}
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"),
                  "w") as fh:
            json.dump({"identity": ident, "logs": logs}, fh)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(latencies),
                      "failed": failed, "metrics": metrics}))


def report(wl, block, outputs, latencies, raw_latencies, verdicts, e2e, probes,
           setup_s, loop_s, known):
    n = len(latencies)
    failed = sum(1 for ok, _, _ in verdicts if not ok)
    tail_s, pct = tail(latencies)
    raw_tail, _ = tail(raw_latencies)
    print("metric       scaled              raw wall clock")
    print(f"setup_s      {e2e['setup_s']:<9.4f} s      "
          f"{statistics.median(raw for _, raw in probes):.4f} s   median of "
          f"{len(probes)} fresh processes"
          + (f"; in-process set-up {setup_s:.3f} s raw" if wl.in_process else ""))
    print(f"ops_per_s    {e2e['ops_per_s']:<9.4f} 1/s    {n / loop_s:.4f} 1/s "
          f"  {n} ops, {n // len(block)} blocks, {loop_s:.2f} s wall")
    print(f"op_p50_ms    {e2e['op_p50_ms']:<9.2f} ms     "
          f"{1000 * statistics.median(raw_latencies):.2f} ms   n={n}")
    print(f"op_tail_ms   {e2e['op_tail_ms']:<9.2f} ms     {1000 * raw_tail:.2f} ms   "
          f"p{pct:.1f}, n={n}")
    print(f"failed_frac  {failed / n:.4f}      {failed}/{n} (ok_frac {e2e['ok_frac']:.4f})")
    print(f"min_digits   {e2e['min_digits']:.2f}")
    print(f"peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    by_op = {}
    for (i, _), t in zip(outputs, latencies):
        by_op.setdefault(i, []).append(t)
    for i, ts in sorted(by_op.items(), key=lambda item: statistics.median(item[1])):
        print(f"  p50 {1000 * statistics.median(ts):9.2f} ms  max {1000 * max(ts):9.2f} ms"
              f"  {json.dumps(block[i])[:100]}")
    seen = set()
    for (i, _), (ok, d, note) in zip(outputs, verdicts):
        if not ok and (i, note) not in seen:
            seen.add((i, note))
            print(f"  FAILED {json.dumps(block[i])[:160]}: {note}")
    if known:
        print(f"known failure (seed baseline, outside the measured stream): "
              f"{json.dumps(known['op'])} exits {known['exit']}, README rules "
              f"expect {known['expected']}: {known['stderr']}")


def report_layers(layers, wall_s):
    from tracing import LAYERS
    shares = sorted(((layers[f"{n}.share"][0], n) for n in LAYERS), reverse=True)
    shares.append((layers["cli.start.share"][0], "cli.start"))
    shares.sort(reverse=True)
    print(f"traced wall {wall_s:.3f} s, covered by spans "
          f"{layers['trace.covered_frac'][0]:.3f}, gap {layers['trace.gap_s'][0]:.3f} s")
    for share, name in shares:
        if share > 0:
            calls = layers[f"{name}.calls"][0] if name in LAYERS else "-"
            print(f"  {name:<28} self share {share:7.4f}  calls {calls}")
    print(f"leader: {shares[0][1]}")
    for name in ("bessel.j_nu_lattice", "core.constants"):
        print(f"  {name}.repeat_frac {layers[name + '.repeat_frac'][0]:.4f}")
    print(f"tracing overhead: traced {layers['trace.ops_per_s'][0]:.4f} ops/s, "
          f"untraced {layers['trace.untraced_ops_per_s'][0]:.4f} ops/s "
          f"({100 * layers['trace.overhead_frac'][0]:.1f} %)")


def compare(path_a, path_b):
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for key in ("workload", "backend", "ops_digest"):
        if a["identity"][key] != b["identity"][key]:
            raise BenchError(f"refusing to compare: {key} differs "
                             f"({a['identity'][key]} vs {b['identity'][key]})")
    for name, unit in END_TO_END:
        va, vb = a["end_to_end"][name], b["end_to_end"][name]
        change = f"{100 * (vb - va) / va:+.1f} %" if va else "n/a"
        print(f"{name:<12} {va:12.4f} -> {vb:12.4f} {unit:<8} {change}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("cli-cold", "session-warm", "quadrature"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the full run record here")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two records written by --out")
    args = p.parse_args(argv)
    try:
        if args.compare:
            compare(*args.compare)
        elif args.workload is None:
            p.error("--workload is required")
        else:
            run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
