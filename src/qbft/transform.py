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

Each row of the matrix is one exact dot product, rounded once, so a row
computed alone has the bits it has in a full application.  A transform is
therefore kept as a lattice record (LatticeRecord), which this module
alone builds and reads: it holds the plan, the packed source and, for a
spectral product, a factor, and computes each row when first read and at
most once.  fourier reads only its output window's rows; the rest of the
lattice, which the next transform through the same plan reads back, stays
pending.  One memo (_record), keyed by its arguments, holds the record of
a source through a plan, so every fourier, spectrum, convolve, translate
and vd_check of the same samples through the same plan shares one record
and no row is computed twice.  The outputs of convolve, translate and
multiply_spectrum are spectral products: their records hold the
spectrum's store and the factor (the other spectrum's store, the j
column's exponent, or the caller's multiplier) and form the products
whenever they compute rows.  The records of convolve and translate are
memoized by their spectrum and factor, so a repeated convolution,
translation or vd_check computes no row.  multiply_spectrum's records are
not: its multipliers are caller data, such as approx_identity_run's Gauss
rows, and a memo entry would keep each product's factors alive.
convolve_direct, the independent oracle of convolution, computes its own
translations and reads only its input's record.

Samples stay integers through every application.  A plan keeps its j row
and weights split, as the signed integer mantissas and exponents
core.exact_dot reads; inputs come out of their PackedSamples store split
(PackedSamples.split), every pointwise product is formed on those
integers and rounded as an mpf multiplication at the plan's precision
rounds it (core.split_products), each row is one exact dot rounded as
mpmath.fdot rounds it (core.round_split), and the rows go back into a
store split (PackedSamples.from_split).  core owns that rounding.  mpf
values are built only where the public API returns them: .values,
value_at, a plan's entry, norm.
"""

import functools
import math
from itertools import repeat

import mpmath
from mpmath import mp, mpmathify

from .core import (
    DECAY_INTEGRABLE, DECAY_RAPID,
    InvalidParams, PreconditionError, WindowError,
    GridFunction, PackedSamples, QGrid, constants, exact_dot, lattice_exponent,
    parse_number, round_split, split_mpf, split_products, unsplit_mpf,
)
from .bessel import j_nu_lattice_row, lattice_weights
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

    Both factors are given and kept split, as core.split_mpf splits mpf
    values: signed integer mantissas (odd or zero, which core.exact_dot
    needs) and exponents, so jrow[m] is _jman[m] * 2 ** _jexp[m], and the
    weights likewise.  entry is the one view that decodes mpf, only its two
    factors.  A plan pickles as those integers: every fourier output's
    pending lattice record carries its plan.  _jstart is the index of the j
    row's first nonzero sample; below it lie the exact zeros build_plan
    floors, which the matvec's rows skip.
    """

    def __init__(self, params, in_grid, out_grid, lat_lo, lat_hi, jrow, weights, dps):
        self.params = params
        self.in_grid = in_grid
        self.out_grid = out_grid
        self.lat_lo = lat_lo
        self.lat_hi = lat_hi
        self.dps = dps
        self._jman, self._jexp = map(tuple, jrow)
        self._wman, self._wexp = map(tuple, weights)
        self._jstart = next((i for i, man in enumerate(self._jman) if man),
                            len(self._jman))
        with mp.workdps(dps):
            self._prec = mp.prec

    def entry(self, k, n):
        """Matrix element for output exponent k, input exponent n (I/O view)."""
        if k not in self.out_grid or n not in self.in_grid:
            raise WindowError(f"entry ({k}, {n}) outside the plan's I/O window")
        i = n - self.lat_lo
        m = k + n - 2 * self.lat_lo
        w, j = unsplit_mpf((self._wman[i], self._jman[m]), (self._wexp[i], self._jexp[m]))
        with mp.workdps(self.dps):
            return w * j

    def size(self):
        return self.lat_hi - self.lat_lo + 1

    def lattice_grid(self):
        """The internal lattice as a QGrid."""
        return QGrid(self.lat_lo, self.lat_hi)

    def window_rows(self):
        """Matrix rows of the output window, as lattice indices."""
        return range(self.out_grid.n_min - self.lat_lo,
                     self.out_grid.n_max - self.lat_lo + 1)

    def __repr__(self):
        return (f"TransformPlan(q={self.params.q_str}, nu={self.params.nu_str}, "
                f"io=[{self.in_grid.n_min},{self.in_grid.n_max}]->"
                f"[{self.out_grid.n_min},{self.out_grid.n_max}], "
                f"lattice=[{self.lat_lo},{self.lat_hi}])")


def build_plan(params, in_grid=None, out_grid=None):
    """Sample the j row and the weights of the transform matrix, split.

    The row comes from the certified recurrence (j_nu_lattice_row) as its
    integers, and each sample wider than the plan's working precision is
    rounded to it, as unary plus at that precision rounds an mpf.  j values
    whose decay envelope already certifies them below the precision floor
    are exact zeros there.  The weights c (1-q) q^(l(2nu+2)) are the split
    products of c (1-q) and lattice_weights, each rounded as the mpf
    product at that precision rounds it (core.split_products).  An
    internal lattice of more than MAX_PLAN_POINTS points raises
    WindowError.
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
    with mp.workdps(dps):
        prec = mp.prec
        (cman,), (cexp,) = split_mpf([constants(params, dps).c_q_nu * (1 - params.q)])
        weights = split_products(repeat(cman), repeat(cexp),
                                 *lattice_weights(params, lat_lo, lat_hi), prec)
    jman, jexp = j_nu_lattice_row(2 * lat_lo, 2 * lat_hi, params, dps)
    jman = list(jman)
    jexp = list(jexp)
    for i, man in enumerate(jman):
        if abs(man).bit_length() > prec:
            jman[i], jexp[i] = round_split(man, jexp[i], prec)
    return TransformPlan(params, in_grid, out_grid, lat_lo, lat_hi, (jman, jexp),
                         weights, dps)


def _require_on_lattice(plan, f):
    if f.grid.n_min < plan.lat_lo or f.grid.n_max > plan.lat_hi:
        raise WindowError(
            f"function window [{f.grid.n_min}, {f.grid.n_max}] exceeds the "
            f"plan lattice [{plan.lat_lo}, {plan.lat_hi}]")

def _source(plan, f):
    """The packed samples the plan transforms for f.

    If f carries a lattice record taken with the plan's parameters on the
    plan's lattice, that record's samples are the source, computed now if
    they are still pending; otherwise f's window samples are, zero-extended
    by _lift.  The difference matters for functions whose off-window values meet large
    weights in the next application: a transform's head samples are
    individually tiny but carry order-one mass once multiplied by
    q^(n(2nu+2)), and dropping them blurs sharp features of the original
    function on the small-x side.
    """
    rec = f.lattice
    if rec is not None and (rec.params, rec.grid) == (plan.params, plan.lattice_grid()):
        return rec.samples()
    _require_on_lattice(plan, f)
    return f.samples

def _lift(plan, samples):
    """Packed samples on a window of the plan's lattice, split and
    zero-extended to the whole lattice: (mantissas, exponents) lists."""
    size = plan.size()
    base = samples.grid.n_min - plan.lat_lo
    vman, vexp = samples.split()
    mans = [0] * size
    exps = [0] * size
    mans[base:base + len(vman)] = vman
    exps[base:base + len(vexp)] = vexp
    return mans, exps

def _matvec(plan, vec, rows=None):
    """Plan matrix times lattice samples vec, on the given rows (default all).

    vec is the input on the plan's whole lattice, split, as a (mantissas,
    exponents) pair of sequences.  The rows come back split, as two lists.

    Row r is mpmath.fdot(jrow[r:r + size], u) with u = weights * vec, bit
    for bit: each u_i is the integer product of the split factors rounded
    as an mpf product at the plan's precision rounds it
    (core.split_products), and the row is one core.exact_dot over the
    nonzero span of vec, rounded once as fdot rounds (core.round_split).
    A row's slice starts no lower than the j row's first nonzero sample,
    plan._jstart: the terms below it are the exact zero products of the
    floored head of the j row, which the exact dot, like mpf_sum, skips, so
    the trim keeps the same bits.  A row whose whole slice lies in that head
    is an exact zero.
    """
    vman, vexp = vec
    rows = range(plan.size()) if rows is None else rows
    prec = plan._prec
    span = [i for i, man in enumerate(vman) if man]
    lo, hi = (span[0], span[-1] + 1) if span else (0, 0)
    uman, uexp = split_products(plan._wman[lo:hi], plan._wexp[lo:hi],
                                vman[lo:hi], vexp[lo:hi], prec)
    jman = plan._jman
    jexp = plan._jexp
    jstart = plan._jstart
    mans = []
    exps = []
    for r in rows:
        first = max(lo, jstart - r)
        if first < hi:
            skip = first - lo
            man, exp = round_split(*exact_dot(jman[r + first:r + hi], jexp[r + first:r + hi],
                                              uman[skip:] if skip else uman,
                                              uexp[skip:] if skip else uexp, prec), prec)
        else:
            man = exp = 0
        mans.append(man)
        exps.append(exp)
    return mans, exps

def _require_transformable(f):
    if f.decay_class not in (DECAY_RAPID, DECAY_INTEGRABLE):
        raise PreconditionError(
            f"transform needs rapid or integrable decay, got {f.decay_class!r}")


class LatticeRecord:
    """The transform of a source through a plan, on the plan's whole
    lattice: the record a fourier output carries, which the next transform
    through the same plan reads back (see _source).

    It holds the plan's params and lattice grid, the plan, the source (the
    packed samples of an input's own record or of its window) and an
    optional factor, none of them copied.  With a factor the record is a
    spectral product: the source is a spectrum's store on the plan's
    lattice, and the factor another spectrum's store (convolve), the
    exponent m of the j column at x = q^m (translate, see _column) or a
    caller's PackedSamples (multiply_spectrum).  Each row is computed when
    first read and at most once: window() computes the output window's
    rows and keeps them as one PackedSamples, which every output of the
    record shares, and samples() reads window(), computes the other rows
    in one _matvec and keeps the whole lattice, the store spectrum()
    returns.  Once both are kept the record drops the plan, the source
    and the factor.
    """

    __slots__ = ("params", "grid", "plan", "source", "factor", "_window", "_samples")

    def __init__(self, plan, source, factor=None):
        self.params = plan.params
        self.grid = plan.lattice_grid()
        self.plan = plan
        self.source = source
        self.factor = factor
        self._window = None
        self._samples = None

    def _vector(self):
        """The split vector the plan transforms: the source zero-extended
        to the lattice, or its products with the factor, each the integer
        product rounded as the mpf product at the plan's precision rounds
        it (core.split_products), formed again whenever rows are computed."""
        plan, factor = self.plan, self.factor
        if factor is None:
            return _lift(plan, self.source)
        factor = _column(plan, factor) if isinstance(factor, int) else factor.split()
        return split_products(*self.source.split(), *factor, plan._prec)

    def window(self):
        """The PackedSamples on the plan's output window."""
        if self._window is None:
            plan = self.plan
            self._window = PackedSamples.from_split(
                plan.out_grid, *_matvec(plan, self._vector(), plan.window_rows()))
        return self._window

    def samples(self):
        """The PackedSamples on the plan's whole lattice."""
        if self._samples is None:
            plan = self.plan
            wman, wexp = self.window().split()
            inner = plan.window_rows()
            head, tail = inner.start, inner.stop
            rows = [*range(head), *range(tail, plan.size())]
            oman, oexp = _matvec(plan, self._vector(), rows)
            mans = oman[:head] + wman + oman[head:]
            exps = oexp[:head] + wexp + oexp[head:]
            self._samples = PackedSamples.from_split(self.grid, mans, exps)
            self.plan = self.source = self.factor = None
        return self._samples


RECORD_CACHE_CAP = 64
"""Most lattice records _record keeps.  A record holds at most the whole
lattice plus the window, and its key keeps the source's store alive, or
a convolution's two spectra.  So the memo holds at most about
64 x 4 x MAX_PLAN_POINTS samples of about 36 bytes at a plan's 75 digits
(about 18 MB), besides the plans of its keys, which it keeps alive."""

@functools.lru_cache(maxsize=RECORD_CACHE_CAP)
def _record(plan, source, factor=None):
    """The one LatticeRecord of source (and factor) through plan.

    The memo is keyed by the arguments as given: plans and PackedSamples
    by identity, a translation's exponent m by value.  None of them is
    mutated, and the memo holds its keys, so an id is not reused while its
    entry lives.  _transform passes two arguments, convolve and translate
    three; (plan, s) and (plan, s, None) would be two keys, so None is
    never passed."""
    return LatticeRecord(plan, source, factor)

def _transform(plan, f):
    """The record of f through plan: its source (see _source), memoized."""
    _require_transformable(f)
    return _record(plan, _source(plan, f))

def _output(rec):
    """A rapid GridFunction over the record's window rows, carrying it."""
    out = GridFunction.packed(rec.window(), DECAY_RAPID)
    out.lattice = rec
    return out

def _packed(grid, split):
    """A rapid GridFunction over the split samples on grid."""
    return GridFunction.packed(PackedSamples.from_split(grid, *split), DECAY_RAPID)

def spectrum(f, plan):
    """Transform of f on the plan's whole internal lattice, tagged rapid.

    Its store is the whole lattice of f's record, shared with every
    transform of the same source through the plan: the rows the record
    lacks are computed now, and none is computed twice.  f's lattice
    record, when it matches the plan (see fourier), is transformed in place
    of its window samples."""
    return GridFunction.packed(_transform(plan, f).samples(), DECAY_RAPID)

def fourier(f, plan):
    """Apply the transform; result sampled on the plan's output window.

    The output is a finite combination of j columns, each of which decays
    like q^(k^2) on the large-x side, so the result is tagged rapid.  Only
    the window's rows are computed, once per plan and source: the output's
    `lattice` is the memoized LatticeRecord of its source, whose window
    store every such output shares.  That record lets fourier() composed
    with itself through the same plan invert sharp-edged inputs at full
    accuracy instead of being limited by the window view; it computes the
    off-window rows, the rest of what spectrum() gives, on first read.
    """
    return _output(_transform(plan, f))

def _profile_row(plan, profile):
    """The callable profile (l -> value at t = q^l) on the plan's whole
    lattice, evaluated at the plan's working precision, as a split row."""
    with mp.workdps(plan.dps):
        values = [profile(l) for l in range(plan.lat_lo, plan.lat_hi + 1)]
    return split_mpf(values)

def transform_profile(plan, profile):
    """Transform a spectral profile given on the plan's whole lattice.

    profile maps an internal lattice exponent l to the profile's value at
    t = q^l and is evaluated at the plan's working precision.  There is no
    decay gate: a profile that is not integrable still has a pointwise
    transform on the window.  Only the window's rows are computed; the
    result is tagged rapid and records no lattice samples, so a later
    transform of it sees only its window.  Complex values and values that
    are not finite raise InvalidParams (core.split_mpf).
    """
    return _packed(plan.out_grid, _matvec(plan, _profile_row(plan, profile),
                                          plan.window_rows()))

def apply_multiplier(plan, f, multiplier):
    """Transform f, scale the spectrum pointwise, transform back.

    multiplier gives the spectral factor at t = q^l for each internal
    lattice exponent l: a callable l -> factor, evaluated at the plan's
    working precision, or a PackedSamples on the plan's lattice, such as
    a spectrum's store or a split row packed by PackedSamples.from_split
    (see multiply_spectrum); anything else raises InvalidParams.  The
    pointwise products run at the plan's working precision; letting them
    run at ambient precision corrupts results far above the precision
    floor.  The result is fourier()'s, with its record pending.
    """
    return multiply_spectrum(plan, spectrum(f, plan), multiplier)


def _column(plan, m):
    """The j column at x = q^m on the plan's lattice, j_nu(q^(m + l)) for
    l = lat_lo..lat_hi, split.  On the plan's lattice it is the slice of
    the plan's split j row from m - lat_lo; off it, the certified row
    j_nu_lattice_row gives, which that row's own memo keeps."""
    if plan.lat_lo <= m <= plan.lat_hi:
        a = m - plan.lat_lo
        b = a + plan.size()
        return plan._jman[a:b], plan._jexp[a:b]
    return j_nu_lattice_row(m + plan.lat_lo, m + plan.lat_hi, plan.params, plan.dps)


def multiply_spectrum(plan, spec, multiplier):
    """apply_multiplier given f's spectrum (as spectrum() returns it), so
    several multipliers can share one forward transform.

    The output's record holds the spectrum's store and the multiplier as
    its factor, not their product, and forms the products whenever it
    computes rows: the window's now, the rest of the lattice on first
    read.  Its record is not memoized (see the module's notes).  A
    PackedSamples multiplier on the plan's lattice is held as it is, such
    as the Gauss row of kernels.approx_identity_run; a callable's factors
    are split and packed once.  Each product is the integer product
    rounded as the mpf product at the plan's precision rounds it, so both
    forms give the bits of the mpf route.  A spec off the plan's lattice
    (spec.grid is not plan.lattice_grid()) or a PackedSamples multiplier
    off it raises WindowError, and any other multiplier InvalidParams,
    before any product."""
    lattice = plan.lattice_grid()
    if spec.grid != lattice:
        raise WindowError(
            f"spectrum window [{spec.grid.n_min}, {spec.grid.n_max}] is not the "
            f"plan lattice [{plan.lat_lo}, {plan.lat_hi}]")
    if callable(multiplier):
        factor = PackedSamples.from_split(lattice, *_profile_row(plan, multiplier))
    elif not isinstance(multiplier, PackedSamples):
        raise InvalidParams("a multiplier is a callable or a PackedSamples on the "
                            f"plan lattice, got {type(multiplier).__name__}")
    elif multiplier.grid != lattice:
        raise WindowError(
            f"multiplier window [{multiplier.grid.n_min}, {multiplier.grid.n_max}] "
            f"is not the plan lattice [{plan.lat_lo}, {plan.lat_hi}]")
    else:
        factor = multiplier
    return _output(LatticeRecord(plan, spec.samples, factor))


def translate(f, x, plan):
    """Generalized translation T_x f via the spectral route.

    T_x f = F[ j_nu(x .) F f ]: transform, multiply by the j column at x,
    transform back.  x must be a lattice point q^m.  The output's record
    holds f's spectrum store and m, and forms the column (_column) when it
    computes rows.  It is memoized by the store and m, so a repeated
    translation of the same samples by the same x through the same plan
    computes no row and shares one window store.
    """
    m = lattice_exponent(x, plan.params, "x")
    f_hat = _transform(plan, f).samples()
    return _output(_record(plan, f_hat, m))


def convolve(f, g, plan):
    """q-convolution F(f * g) = F f . F g: apply_multiplier by g's spectrum.

    Both spectra come from their memoized records, and the output's record,
    which holds the two stores, is memoized by them: a repeated convolution
    of the same samples through the same plan computes no row and shares
    one window store."""
    # both decay gates run before either window is checked
    _require_transformable(f)
    g_hat = _transform(plan, g).samples()
    f_hat = _transform(plan, f).samples()
    return _output(_record(plan, f_hat, g_hat))

def convolve_direct(f, g, plan):
    """q-convolution by the definitional route, as an independent oracle.

    f * g(x) = c integral of T_x f(y) g(y) y^(2nu+1) d_q y.  Translation is
    symmetric, T_x f(y) = T_y f(x), so the values come from one spectral
    synthesis per support point y of g, restricted to the output window: the
    rounded spectral products scale with g's support, not with the window.
    Both spectral products per support point, the j column times f's
    spectrum and the weights times g, are integer products rounded as mpf
    products at the plan's precision.  f's spectrum is read from its
    memoized record.  No step of this path shares code with convolve()'s
    product-of-spectra shortcut beyond applying the plan matrix.
    """
    _require_transformable(f)
    _require_transformable(g)
    _require_on_lattice(plan, g)
    fman, fexp = _transform(plan, f).samples().split()
    base = g.grid.n_min - plan.lat_lo
    gman, gexp = g.samples.split()
    support = [base + k for k, man in enumerate(gman) if man]
    if not support:
        return GridFunction.zero(plan.out_grid)
    prec = plan._prec
    gw = split_products([plan._wman[i] for i in support], [plan._wexp[i] for i in support],
                        [man for man in gman if man], [gexp[i - base] for i in support],
                        prec)
    rows = plan.window_rows()
    jman = plan._jman
    jexp = plan._jexp
    # T_y f on the window for y = q^(lat_lo + i): the j column at y is jrow[i:]
    t_y = [_matvec(plan, split_products(fman, fexp, jman[i:], jexp[i:], prec), rows)
           for i in support]
    # output x's terms are T_y f(x) over the support points y, in their order
    t_man = zip(*(man for man, _ in t_y))
    t_exp = zip(*(exp for _, exp in t_y))
    out = [round_split(*exact_dot(*gw, man, exp, prec), prec)
           for man, exp in zip(t_man, t_exp)]
    return _packed(plan.out_grid, ([man for man, _ in out], [exp for _, exp in out]))


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
        weights = unsplit_mpf(*lattice_weights(params, f.grid.n_min, f.grid.n_max))
        terms = [w * abs(v) ** pv for w, v in zip(weights, f.values)]
        return +(((1 - q) * mpmath.fsum(terms)) ** (1 / pv))
