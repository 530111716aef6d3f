"""Command line front end.

Exit codes: 0 success, 2 usage problems, 3 numeric failures (a computation
could not be certified or did not converge), 4 property violations (a
verified claim measured false).  A verify run exits 0 only when every
criterion passes.
"""

import argparse
import json
import sys

from mpmath import mp

from .core import (
    ConstancyViolation, DegenerateLeading, DivergentTail, DomainError,
    IllConditioned, IntegrabilityError, InvalidParams, NoWitness,
    NonConvergent, Overflow, PrecisionExhausted, PreconditionError,
    UsageError, WindowError, QbftError,
    QGrid, QParams, decimal_str, gridfunction_from_json, gridfunction_to_json,
)
from .bessel import g_a, i_nu, j_nu, k_nu
from .corpus import REFERENCE_GRID
from .kernels import KernelSpec, composite_kernel, gauss_kernel, kernel_report_to_json
from .transform import build_plan, convolve, fourier
from .verify import run_suite

USAGE_ERRORS = (UsageError, InvalidParams, DomainError, WindowError,
                PreconditionError, IntegrabilityError)
NUMERIC_ERRORS = (NonConvergent, PrecisionExhausted, Overflow, DivergentTail,
                  IllConditioned, DegenerateLeading)
PROPERTY_ERRORS = (ConstancyViolation, NoWitness)

DEFAULT_CLI_WINDOW = (-48, 96)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="qbft",
        description="q-Bessel Fourier calculus on the geometric lattice")
    p.add_argument("--q", default="0.5", help="lattice base, 0 < q < 1")
    p.add_argument("--nu", default="0.5", help="order parameter, nu > -1")
    p.add_argument("--digits", type=int, default=60, help="target precision")
    p.add_argument("--tol", default="1e-40", help="tolerance")
    p.add_argument("--nmin", type=int, default=None, help="window start exponent")
    p.add_argument("--nmax", type=int, default=None, help="window end exponent")
    p.add_argument("--out", default=None, help="write output to this file")
    p.add_argument("--format", choices=("text", "json"), default="text")

    sub = p.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a special function at a point")
    ev.add_argument("function", choices=("jnu", "inu", "knu", "ga", "gauss"))
    ev.add_argument("--x", required=True, help="evaluation point")
    ev.add_argument("--a", default=None, help="scale for ga")
    ev.add_argument("--c", default=None, help="width for gauss")

    tr = sub.add_parser("transform", help="apply the transform to a grid file")
    tr.add_argument("--in", dest="infile", required=True)

    cv = sub.add_parser("convolve", help="convolve two grid files")
    cv.add_argument("--in", dest="infile", required=True)
    cv.add_argument("--in2", dest="infile2", required=True)

    kn = sub.add_parser("kernel", help="build a composite kernel from a spec file")
    kn.add_argument("--spec", required=True,
                    help='JSON file {"c": "...", "zeros": ["...", ...]}')

    vf = sub.add_parser("verify", help="run the verification suite")
    vf.add_argument("--only", default=None,
                    help="comma-separated criterion numbers (default: all)")

    rp = sub.add_parser("report", help="pretty-print a saved verify report")
    rp.add_argument("--in", dest="infile", required=True)

    return p


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)

def _params(args):
    return QParams(q=args.q, nu=args.nu, precision_digits=args.digits,
                   tol=args.tol)

def _window(args, default=QGrid(*DEFAULT_CLI_WINDOW)):
    """--nmin/--nmax as a QGrid, a missing bound taken from default."""
    lo = args.nmin if args.nmin is not None else default.n_min
    hi = args.nmax if args.nmax is not None else default.n_max
    return QGrid(lo, hi)

def _read_file(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _cmd_eval(args):
    params = _params(args)
    d = params.precision_digits
    if args.function == "jnu":
        ev = j_nu(args.x, params)
        if args.format == "json":
            _emit(args, json.dumps({
                "value": decimal_str(ev.value, d),
                "terms_used": ev.terms_used,
                "max_term_magnitude": decimal_str(ev.max_term_magnitude, 8),
                "precision_used": ev.precision_used}, indent=1))
        else:
            _emit(args, decimal_str(ev.value, d))
        return 0
    if args.function == "inu":
        val = i_nu(args.x, params)
    elif args.function == "knu":
        val = k_nu(args.x, params)
    elif args.function == "ga":
        if args.a is None:
            raise UsageError("eval ga needs --a")
        val = g_a(args.x, args.a, params)
    else:
        if args.c is None:
            raise UsageError("eval gauss needs --c")
        val = gauss_kernel(args.x, args.c, params)
    if args.format == "json":
        _emit(args, json.dumps({"value": decimal_str(val, d)}, indent=1))
    else:
        _emit(args, decimal_str(val, d))
    return 0

def _cmd_transform(args):
    f, params = gridfunction_from_json(_read_file(args.infile),
                                       args.digits, args.tol)
    plan = build_plan(params, f.grid, _window(args))
    out = fourier(f, plan)
    _emit(args, gridfunction_to_json(out, params))
    return 0

def _cmd_convolve(args):
    f, params = gridfunction_from_json(_read_file(args.infile),
                                       args.digits, args.tol)
    g, params2 = gridfunction_from_json(_read_file(args.infile2),
                                        args.digits, args.tol)
    if params.q_str != params2.q_str or params.nu_str != params2.nu_str:
        raise UsageError("the two inputs carry different q or nu")
    io = QGrid(min(f.grid.n_min, g.grid.n_min), max(f.grid.n_max, g.grid.n_max))
    plan = build_plan(params, io, _window(args))
    out = convolve(f, g, plan)
    _emit(args, gridfunction_to_json(out, params))
    return 0

def _cmd_kernel(args):
    params = _params(args)
    try:
        raw = json.loads(_read_file(args.spec))
        spec = KernelSpec(raw["c"], raw["zeros"])
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed kernel spec: {exc}")
    window = _window(args)
    plan = build_plan(params, window, window)
    report = composite_kernel(spec, plan)
    _emit(args, kernel_report_to_json(report, params))
    with mp.workdps(30):
        mass_bad = report.mass_defect > 10 * params.tol
        # samples inside [-tol, 0] are numerical noise, not a violation
        not_positive = report.min_value < -params.tol
    if report.monotone_chain_ok is False or mass_bad or not_positive:
        problems = []
        if report.monotone_chain_ok is False:
            problems.append("chain domination violated")
        if mass_bad:
            problems.append("mass defect beyond 10*tol")
        if not_positive:
            problems.append("kernel not positive")
        print("property violation: " + "; ".join(problems), file=sys.stderr)
        return 4
    return 0

def _cmd_verify(args):
    only = None
    if args.only is not None:
        try:
            only = [int(s) for s in args.only.split(",") if s.strip()]
        except ValueError:
            raise UsageError(f"cannot parse criterion list {args.only!r}")
    # a missing bound comes from the suite's own window, not the CLI default
    window = _window(args, REFERENCE_GRID)
    report = run_suite(only=only, precision_digits=args.digits, tol=args.tol,
                       window=window, progress=lambda line: print(line, flush=True))
    print(report.lines()[-1])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
    return 0 if report.passed else 4

def _cmd_report(args):
    try:
        payload = json.loads(_read_file(args.infile))
        results = payload["results"]
        passed = bool(payload["passed"])
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed report file: {exc}")
    if not (isinstance(results, list) and all(
            isinstance(r, dict) and isinstance(r.get("criterion"), int) for r in results)):
        raise UsageError("malformed report file: results must be a list of "
                         "records with an integer criterion")
    for r in results:
        verdict = "PASS" if r.get("passed") else "FAIL"
        print(f"criterion {r.get('criterion'):>2} [{r.get('title')}]: {verdict}  "
              f"measure={r.get('measure')} vs {r.get('threshold')}")
        if r.get("detail"):
            print(f"    {r['detail']}")
    print("suite: " + ("ALL PASS" if passed else "VIOLATIONS PRESENT"))
    return 0 if passed else 4


_COMMANDS = {
    "eval": _cmd_eval,
    "transform": _cmd_transform,
    "convolve": _cmd_convolve,
    "kernel": _cmd_kernel,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
    except USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        code = 2
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        code = 3
    except PROPERTY_ERRORS as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        code = 4
    except QbftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    return code


if __name__ == "__main__":
    sys.exit(main())
