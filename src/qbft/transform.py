"""The q-Bessel Fourier transform as a reusable lattice plan.

F f(x) = c (1-q) sum_n q^(n(2nu+2)) f(q^n) j_nu(x q^n) is a matrix acting on
window samples.  The transform is its own inverse, so one plan serves both
directions.  The kernel depends on k+n only, so the matrix is a Hankel matrix
times a diagonal: a plan keeps 2L-1 j samples and L weights, and applying it
is one dot product over a slice of the j row per output point.

The caller's window is only the I/O view.  The quadrature itself needs
lattice points outside it: a head on the large-t side deep enough that the
neglected oscillatory envelope of j is certified below the precision floor,
and a tail on the small-t side long enough for the weight q^(n(2nu+2)) to
reach it.  Plans therefore carry an extended internal lattice; inputs are
zero-embedded into it and outputs projected back.
"""

import math

import mpmath
from mpmath import mp, mpc, mpmathify
from mpmath.libmp import from_man_exp, round_nearest

from .core import (
    DECAY_INTEGRABLE, DECAY_RAPID,
    InvalidParams, PreconditionError, WindowError,
    GridFunction, QGrid, constants, lattice_exponent, parse_number,
)
from .bessel import j_nu_lattice_row_floored, lattice_weights
# defined with the other per-point quadratures, kept as qbft.transform.triple_kernel
from .bessel import triple_kernel


MAX_PLAN_POINTS = 2000
"""Largest internal lattice build_plan accepts.  A plan takes O(L) memory, but
one application costs L^2 multiply-adds at its dps: the bound is on time."""


def plan_window(params, io_lo, io_hi):
    """Internal lattice bounds enclosing the I/O window [io_lo, io_hi]."""
    lq = params.log10_inv_q
    nu = params.nu_float
    head = -io_hi - 25
    tail = max(io_hi + 8,
               math.ceil(params.precision_digits / ((2 * nu + 2) * lq))
               + max(0, -io_lo) + 4)
    return head, tail


class TransformPlan:
    """Transform matrix over an extended internal lattice, kept as its factors:
    entry (k, n) is weights[n - lat_lo] * jrow[k + n - 2 lat_lo] at dps.

    The matvec reads the j row as signed integer mantissas and exponents,
    unpacked once here: jrow[m] is _jman[m] * 2 ** _jexp[m]."""

    def __init__(self, params, in_grid, out_grid, lat_lo, lat_hi, jrow, dps):
        self.params = params
        self.in_grid = in_grid
        self.out_grid = out_grid
        self.lat_lo = lat_lo
        self.lat_hi = lat_hi
        self.jrow = jrow
        self.dps = dps
        raws = [v._mpf_ for v in jrow]
        self._jman = tuple(-man if sign else man for sign, man, _, _ in raws)
        self._jexp = tuple(exp for _, _, exp, _ in raws)
        with mp.workdps(dps):
            c1q = constants(params, dps).c_q_nu * (1 - params.q)
            self.weights = tuple(c1q * w
                                 for w in lattice_weights(params, lat_lo, lat_hi))

    def entry(self, k, n):
        """Matrix element for output exponent k, input exponent n (I/O view)."""
        if k not in self.out_grid or n not in self.in_grid:
            raise WindowError(f"entry ({k}, {n}) outside the plan's I/O window")
        with mp.workdps(self.dps):
            return self.weights[n - self.lat_lo] * self.jrow[k + n - 2 * self.lat_lo]

    def size(self):
        return self.lat_hi - self.lat_lo + 1

    def __repr__(self):
        return (f"TransformPlan(q={self.params.q_str}, nu={self.params.nu_str}, "
                f"io=[{self.in_grid.n_min},{self.in_grid.n_max}]->"
                f"[{self.out_grid.n_min},{self.out_grid.n_max}], "
                f"lattice=[{self.lat_lo},{self.lat_hi}])")


def build_plan(params, in_grid=None, out_grid=None):
    """Sample the j row and the weights of the transform matrix.

    The row comes from the certified recurrence (j_nu_lattice_row) and is
    rounded to the plan's working precision.  j values whose decay envelope
    already certifies them below the precision floor are stored as exact
    zeros instead of being evaluated (see j_nu_lattice_row_floored).  An
    internal lattice of more than MAX_PLAN_POINTS points raises WindowError.
    """
    in_grid = in_grid or QGrid()
    out_grid = out_grid or in_grid
    io_lo = min(in_grid.n_min, out_grid.n_min)
    io_hi = max(in_grid.n_max, out_grid.n_max)
    lat_lo, lat_hi = plan_window(params, io_lo, io_hi)
    size = lat_hi - lat_lo + 1
    if size > MAX_PLAN_POINTS:
        raise WindowError(
            f"plan lattice of {size} points exceeds the bound of {MAX_PLAN_POINTS} "
            f"points (one application would take {size * size:,} multiply-adds)")
    dps = params.precision_digits + 15
    row = j_nu_lattice_row_floored(2 * lat_lo, 2 * lat_hi, params, dps)
    with mp.workdps(dps):
        jrow = tuple(+v for v in row)
    return TransformPlan(params, in_grid, out_grid, lat_lo, lat_hi, jrow, dps)


def _require_on_lattice(plan, f):
    if f.grid.n_min < plan.lat_lo or f.grid.n_max > plan.lat_hi:
        raise WindowError(
            f"function window [{f.grid.n_min}, {f.grid.n_max}] exceeds the "
            f"plan lattice [{plan.lat_lo}, {plan.lat_hi}]")

def _embed(plan, f):
    """Lift window samples onto the plan's internal lattice.

    If f carries full-lattice samples recorded by a previous transform with
    the same lattice and parameters, those are used; otherwise the window
    samples are zero-extended.  The difference matters for functions whose
    off-window values meet large weights in the next application: a
    transform's head samples are individually tiny but carry order-one mass
    once multiplied by q^(n(2nu+2)), and dropping them blurs sharp features
    of the original function on the small-x side.
    """
    if f.lattice is not None:
        params, samples = f.lattice
        if params == plan.params and samples.grid == QGrid(plan.lat_lo, plan.lat_hi):
            return samples.values
    _require_on_lattice(plan, f)
    vec = [mp.zero] * plan.size()
    base = f.grid.n_min - plan.lat_lo
    for i, v in enumerate(f.values):
        vec[base + i] = v
    return vec

def _matvec(plan, vec, rows=None):
    """Plan matrix times lattice samples vec, on the given rows (default all).

    Row r is mpmath.fdot(jrow[r:r + size], u) with u = weights * vec, bit for
    bit: exact products, summed in index order and rounded once.  The loop is
    mpf_sum's own, fused with the products so no mpf is built per term: each
    product jman * uman at exponent jexp + uexp goes into one integer
    accumulator (a long accumulator in Kulisch's sense), under mpf_sum's two
    rules for dropping a term or a partial sum that lies more than 2 * prec
    bits below the other.  Each row is rounded once, to the plan's precision.
    Zeros of u and of the j row are skipped, as mpf_sum skips them.  Complex
    samples, and u entries that are not finite, raise InvalidParams before
    any product is formed.
    """
    if any(isinstance(v, (mpc, complex)) for v in vec):
        raise InvalidParams("the transform takes real samples only")
    rows = range(plan.size()) if rows is None else rows
    with mp.workdps(plan.dps):
        u = [w * v for w, v in zip(plan.weights, vec)]
        prec = mp.prec
    terms = []
    for i, x in enumerate(u):
        sign, man, exp, _ = x._mpf_
        if man:
            terms.append((i, -man if sign else man, exp))
        elif exp:
            raise InvalidParams("the transform takes finite samples only")
    jman = plan._jman
    jexp = plan._jexp
    limit = 2 * prec
    make = mp.make_mpf
    out = []
    for r in rows:
        man = 0
        exp = 0
        for i, um, ue in terms:
            m = r + i
            xman = jman[m] * um
            if not xman:
                continue
            xexp = jexp[m] + ue
            if xexp >= exp:
                delta = xexp - exp
                if delta > limit and (not man or delta - man.bit_length() > limit):
                    man = xman
                    exp = xexp
                else:
                    man += xman << delta
            else:
                delta = exp - xexp
                if delta > limit and delta - xman.bit_length() > limit:
                    if not man:
                        man = xman
                        exp = xexp
                else:
                    man = (man << delta) + xman
                    exp = xexp
        out.append(make(from_man_exp(man, exp, prec, round_nearest)))
    return out

def _project(plan, vec):
    lo = plan.out_grid.n_min - plan.lat_lo
    hi = plan.out_grid.n_max - plan.lat_lo
    return GridFunction(plan.out_grid, vec[lo:hi + 1], DECAY_RAPID)

def _require_transformable(f):
    if f.decay_class not in (DECAY_RAPID, DECAY_INTEGRABLE):
        raise PreconditionError(
            f"transform needs rapid or integrable decay, got {f.decay_class!r}")


def spectrum(f, plan):
    """Transform of f on the plan's whole internal lattice, tagged rapid."""
    _require_transformable(f)
    return GridFunction(QGrid(plan.lat_lo, plan.lat_hi),
                        _matvec(plan, _embed(plan, f)), DECAY_RAPID)

def fourier(f, plan):
    """Apply the transform; result sampled on the plan's output window.

    The output is a finite combination of j columns, each of which decays
    like q^(k^2) on the large-x side, so the result is tagged rapid.  It
    also keeps its own off-window lattice samples in its `lattice` field,
    which is the spectrum's own packed store, so composing fourier() with
    itself through the same plan inverts sharp-edged inputs at full accuracy
    instead of being limited by the window view.
    """
    spec = spectrum(f, plan)
    out = GridFunction.packed(spec.samples.window(plan.out_grid), DECAY_RAPID)
    out.lattice = (plan.params, spec.samples)
    return out

def transform_profile(plan, profile):
    """Transform a spectral profile given on the plan's whole lattice.

    profile maps an internal lattice exponent l to the profile's value at
    t = q^l and is evaluated at the plan's working precision.  There is no
    decay gate: a profile that is not integrable still has a pointwise
    transform on the window.  The result is tagged rapid and records no
    lattice samples, so a later transform of it sees only its window.
    """
    with mp.workdps(plan.dps):
        vec = [profile(l) for l in range(plan.lat_lo, plan.lat_hi + 1)]
    return _project(plan, _matvec(plan, vec))

def apply_multiplier(plan, f, multiplier):
    """Transform f, scale the spectrum pointwise, transform back.

    multiplier maps an internal lattice exponent l to the spectral factor at
    t = q^l.  The pointwise products run at the plan's working precision;
    letting them run at ambient precision corrupts results far above the
    precision floor.
    """
    return multiply_spectrum(plan, spectrum(f, plan), multiplier)

def multiply_spectrum(plan, spec, multiplier):
    """apply_multiplier given f's spectrum (as spectrum() returns it), so
    several multipliers can share one forward transform."""
    with mp.workdps(plan.dps):
        scaled = [v * multiplier(plan.lat_lo + i) for i, v in enumerate(spec.values)]
    return fourier(GridFunction(spec.grid, scaled, DECAY_RAPID), plan)


def translate(f, x, plan):
    """Generalized translation T_x f via the spectral route.

    T_x f = F[ j_nu(x .) F f ]: transform, multiply by the j column at x,
    transform back.  x must be a lattice point; for x on the plan's lattice
    the column is a slice of plan.jrow.
    """
    m = lattice_exponent(x, plan.params, "x")
    if plan.lat_lo <= m <= plan.lat_hi:
        col = plan.jrow[m - plan.lat_lo:m - plan.lat_lo + plan.size()]
    else:
        col = j_nu_lattice_row_floored(m + plan.lat_lo, m + plan.lat_hi,
                                       plan.params, plan.dps)
    return apply_multiplier(plan, f, lambda l: col[l - plan.lat_lo])


def convolve(f, g, plan):
    """q-convolution F(f * g) = F f . F g: apply_multiplier by g's spectrum."""
    # both decay gates run before either window is checked
    _require_transformable(f)
    g_hat = spectrum(g, plan).values
    return apply_multiplier(plan, f, lambda l: g_hat[l - plan.lat_lo])

def convolve_direct(f, g, plan):
    """q-convolution by the definitional route, as an independent oracle.

    f * g(x) = c integral of T_x f(y) g(y) y^(2nu+1) d_q y.  Translation is
    symmetric, T_x f(y) = T_y f(x), so the values come from one spectral
    synthesis per support point y of g, restricted to the output window: the
    rounded spectral products scale with g's support, not with the window.
    No step of this path shares code with convolve()'s product-of-spectra
    shortcut beyond applying the plan matrix.
    """
    _require_transformable(f)
    _require_transformable(g)
    _require_on_lattice(plan, g)
    fh = _matvec(plan, _embed(plan, f))
    nonzero = [(n - plan.lat_lo, v)
               for n, v in zip(g.grid.exponents(), g.values) if v != 0]
    if not nonzero:
        return GridFunction.zero(plan.out_grid)
    rows = range(plan.out_grid.n_min - plan.lat_lo, plan.out_grid.n_max - plan.lat_lo + 1)
    with mp.workdps(plan.dps):
        gw = [plan.weights[i] * v for i, v in nonzero]
        # T_y f on the window for y = q^(lat_lo + i): the j column at y is jrow[i:]
        t_y = [_matvec(plan, [a * b for a, b in zip(fh, plan.jrow[i:])], rows)
               for i, _ in nonzero]
        out = [mpmath.fdot(gw, t_x) for t_x in zip(*t_y)]
    return GridFunction(plan.out_grid, out, DECAY_RAPID)


def norm(f, p, params):
    """L^p norm of window samples against the measure x^(2nu+1) d_q x of the
    transform calculus, for an exponent p >= 1; p = "inf" is the sup norm."""
    if p != "inf":
        with mp.workdps(30):
            if not parse_number(p, "norm exponent") >= 1:
                raise InvalidParams("norm exponent must satisfy p >= 1")
    with params.working(10):
        if p == "inf":
            return +max((abs(v) for v in f.values), default=mp.zero)
        q = params.q
        pv = mpmathify(p)
        weights = lattice_weights(params, f.grid.n_min, f.grid.n_max)
        terms = [w * abs(v) ** pv for w, v in zip(weights, f.values)]
        return +(((1 - q) * mpmath.fsum(terms)) ** (1 / pv))
