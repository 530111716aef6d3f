"""Reference corpus: twelve window functions with declared variation counts.

All members live on the default window [-24, 64] at the reference
parameters q = 1/2, nu = 1/2, and keep their sign activity inside the
interior band [-8, 36] so that convolution edge effects cannot disturb the
declared counts.  Smoothly decaying members (the Lorentz transforms g_a and
the Gauss kernels) form the rapid-decay subset used by norm-preservation
checks; the windowed step and plateau members are tagged integrable.

The shipped JSON artifacts freeze one generation of the corpus; the builder
regenerates the same values from scratch so tests can hold the two against
each other.
"""

import json
from importlib import resources

from mpmath import mp, mpf

from .core import (
    DECAY_INTEGRABLE, InvalidParams,
    GridFunction, QGrid, QParams, decimal_str,
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


# (name, bands, declared V): bands are (lo, hi, value) in exponents
_PIECEWISE = [
    ("const_plus", [(-8, 36, "1")], 0),
    ("const_minus_half", [(-4, 30, "-0.5")], 0),
    ("step_one_flip", [(-8, 13, "1"), (14, 36, "-1")], 1),
    ("step_two_flips", [(-8, 6, "1"), (7, 21, "-1"), (22, 36, "1")], 2),
    ("step_three_flips", [(-8, 2, "1"), (3, 13, "-1"),
                          (14, 24, "1"), (25, 36, "-1")], 3),
    ("hump_small_x", [(18, 30, "1")], 0),
]

# Lorentz-transform members: scale exponents j with a = q^j
_LORENTZ = [("lorentz_q2", 2), ("lorentz_1", 0), ("lorentz_qm2", -2)]

# Gauss members: kernel widths
_GAUSS = [("gauss_1", "1"), ("gauss_half", "0.5")]

_BURST = ("alternating_burst", 0, 21, 21)  # name, lo, hi, declared V

MEMBER_ORDER = ([name for name, _, _ in _PIECEWISE[:5]]
                + [name for name, _ in _LORENTZ]
                + [name for name, _ in _GAUSS]
                + [_BURST[0], _PIECEWISE[5][0]])


def _piecewise(grid, bands):
    with mp.workdps(30):
        vals = []
        for n in grid.exponents():
            v = mp.zero
            for lo, hi, s in bands:
                if lo <= n <= hi:
                    v = mpf(s)
                    break
            vals.append(v)
    return GridFunction(grid, vals, DECAY_INTEGRABLE)

def _burst(grid, lo, hi):
    with mp.workdps(30):
        vals = [mpf(1 if n % 2 == 0 else -1) if lo <= n <= hi else mp.zero
                for n in grid.exponents()]
    return GridFunction(grid, vals, DECAY_INTEGRABLE)

def _lorentz_member(j, plan):
    with mp.workdps(40):
        a = decimal_str(plan.params.q ** j, 30)
    return transform_profile(plan, KernelSpec("0", (a,)).reciprocal_profile(plan))


def build_corpus(params=None, plan=None):
    """Regenerate all twelve members in manifest order."""
    params = params or reference_params()
    plan = plan or build_plan(params, REFERENCE_GRID)
    grid = plan.out_grid
    entries = []
    by_name = {}
    for name, bands, v in _PIECEWISE:
        by_name[name] = CorpusEntry(name, _piecewise(grid, bands), v, False)
    for name, j in _LORENTZ:
        by_name[name] = CorpusEntry(name, _lorentz_member(j, plan), 0, True)
    for name, c in _GAUSS:
        by_name[name] = CorpusEntry(
            name, gauss_kernel_grid(c, params, grid), 0, True)
    bname, blo, bhi, bv = _BURST
    by_name[bname] = CorpusEntry(bname, _burst(grid, blo, bhi), bv, False)
    for name in MEMBER_ORDER:
        entries.append(by_name[name])
    return entries


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
