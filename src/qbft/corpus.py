"""Reference corpus: twelve window functions with declared variation counts.

All members live on the default window [-24, 64] at the reference
parameters q = 1/2, nu = 1/2, and keep their sign activity inside the
interior band [-8, 36] so that convolution edge effects cannot disturb the
declared counts.  Smoothly decaying members (the Lorentz transforms g_a and
the Gauss kernels) form the rapid-decay subset used by norm-preservation
checks; the windowed step and plateau members are tagged integrable.

The members are declared once, in manifest order, in the table `_MEMBERS`.
The shipped JSON artifacts freeze one generation of the corpus; the builder
regenerates the same values from that table so tests can hold the two
against each other.
"""

import json
from fractions import Fraction
from importlib import resources

from mpmath import mp, mpf

from .core import (
    DECAY_INTEGRABLE, InvalidParams,
    GridFunction, QGrid, QParams,
    gridfunction_to_json, gridfunction_from_json,
)
from .kernels import KernelSpec, gauss_kernel_grid
from .transform import build_plan, transform_profile

REFERENCE_GRID = QGrid(-24, 64)


def reference_params(precision_digits=60, tol="1e-40"):
    return QParams(q="0.5", nu="0.5", precision_digits=precision_digits, tol=tol)


class CorpusEntry:
    def __init__(self, name, f, declared_v, plancherel):
        self.name = name
        self.f = f
        self.declared_v = declared_v
        self.plancherel = plancherel

    def __repr__(self):
        return f"CorpusEntry({self.name}, V={self.declared_v})"


def _piecewise(plan, bands):
    """Bands (lo, hi, value) in exponents on the plan's window, zero elsewhere."""
    def value(n):
        return next((mpf(s) for lo, hi, s in bands if lo <= n <= hi), mp.zero)
    with mp.workdps(30):
        return GridFunction.from_callable(plan.out_grid, value, DECAY_INTEGRABLE)

def _lorentz(plan, j):
    """g_a at a = q^j, the transform of 1 / (1 + t^2/a^2), with a given as
    an exact rational string, read exactly at any precision."""
    a = str(Fraction(plan.params.q_str) ** j)
    return transform_profile(plan, KernelSpec("0", (a,)).reciprocal_profile(plan))

def _gauss(plan, c):
    """The Gauss kernel of width c on the plan's window."""
    return gauss_kernel_grid(c, plan.params, plan.out_grid)


# The corpus, in manifest order: (name, builder, argument, declared V).
# Each member is builder(plan, argument); the Lorentz and Gauss members are
# the rapid-decay (Plancherel) subset.
_MEMBERS = [
    ("const_plus", _piecewise, [(-8, 36, "1")], 0),
    ("const_minus_half", _piecewise, [(-4, 30, "-0.5")], 0),
    ("step_one_flip", _piecewise, [(-8, 13, "1"), (14, 36, "-1")], 1),
    ("step_two_flips", _piecewise,
     [(-8, 6, "1"), (7, 21, "-1"), (22, 36, "1")], 2),
    ("step_three_flips", _piecewise,
     [(-8, 2, "1"), (3, 13, "-1"), (14, 24, "1"), (25, 36, "-1")], 3),
    ("lorentz_q2", _lorentz, 2, 0),
    ("lorentz_1", _lorentz, 0, 0),
    ("lorentz_qm2", _lorentz, -2, 0),
    ("gauss_1", _gauss, "1", 0),
    ("gauss_half", _gauss, "0.5", 0),
    ("alternating_burst", _piecewise,
     [(n, n, "1" if n % 2 == 0 else "-1") for n in range(22)], 21),
    ("hump_small_x", _piecewise, [(18, 30, "1")], 0),
]

MEMBER_ORDER = [name for name, _, _, _ in _MEMBERS]


def build_corpus(params=None, plan=None):
    """Regenerate all twelve members in manifest order.

    The members are sampled through `plan` (by default the plan of `params`,
    or of the reference parameters, on the reference window).
    """
    plan = plan or build_plan(params or reference_params(), REFERENCE_GRID)
    return [CorpusEntry(name, build(plan, arg), v, build in (_lorentz, _gauss))
            for name, build, arg, v in _MEMBERS]


def write_corpus(directory, params=None, plan=None):
    """Generate and write the shipped artifacts (manifest plus one file each)."""
    import os
    params = params or reference_params()
    entries = build_corpus(params, plan)
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for e in entries:
        fname = f"{e.name}.json"
        with open(os.path.join(directory, fname), "w") as fh:
            fh.write(gridfunction_to_json(e.f, params))
        manifest.append({"name": e.name, "file": fname,
                         "declared_v": e.declared_v,
                         "decay_class": e.f.decay_class,
                         "plancherel": e.plancherel})
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump({"q": params.q_str, "nu": params.nu_str,
                   "n_min": REFERENCE_GRID.n_min, "n_max": REFERENCE_GRID.n_max,
                   "members": manifest}, fh, indent=1)


def load_corpus(precision_digits=60, tol="1e-40"):
    """Load the shipped corpus artifacts; returns entries in manifest order."""
    base = resources.files("qbft").joinpath("data/corpus")
    manifest = json.loads(base.joinpath("manifest.json").read_text())
    entries = []
    for row in manifest["members"]:
        text = base.joinpath(row["file"]).read_text()
        f, _ = gridfunction_from_json(text, precision_digits, tol)
        if f.decay_class != row["decay_class"]:
            raise InvalidParams(
                f"manifest decay class mismatch for {row['name']}")
        entries.append(CorpusEntry(row["name"], f, int(row["declared_v"]),
                                   bool(row["plancherel"])))
    return entries
