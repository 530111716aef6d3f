"""Arithmetic layer for q-calculus on the geometric lattice.

Everything downstream works on the positive lattice R_q^+ = {q^n : n integer}
for a fixed base 0 < q < 1 and an order parameter nu > -1.  This module owns
the parameter/grid/sample types, q-Pochhammer symbols, the q-exponential,
Jackson integrals, the q-derivative, lattice shifts, the second-order
q-Bessel difference operator, and JSON serialization with decimal strings.

It also owns the split form of real samples that transform and bessel
compute on, signed integer mantissas and exponents, and all rounding of it:
split_mpf, unsplit_mpf, exact_dot, round_split and split_products.  It is
the one module that imports mpmath.libmp.  The lattice record a
GridFunction carries is transform's: core only sets it to None.

Precision discipline: mpmath arithmetic performed outside a ``workdps`` scope
silently runs at the ambient (usually 15-digit) precision, so every function
here that produces a value wraps its computation in an explicit scope sized
from the active precision or the supplied parameters.  Results are returned
rounded to the scope that produced them.
"""

import functools
import json
import math
from array import array

import mpmath
from mpmath import mp, mpf, mpmathify
from mpmath.libmp import MPZ, normalize, round_nearest


# ---------------------------------------------------------------------------
# errors

class QbftError(Exception):
    """Base class for all library errors."""


class InvalidParams(QbftError):
    """Parameter outside its admissible range."""


class NonConvergent(QbftError):
    """An infinite product or series failed its convergence gate."""


class DomainError(QbftError):
    """Argument outside the domain of the requested evaluation."""


class WindowError(QbftError):
    """Grid window too small or empty for the requested operation."""


class DivergentTail(QbftError):
    """Lattice sum whose head terms grow instead of decaying."""


class PrecisionExhausted(QbftError):
    """The precision ladder topped out before the certificate held."""


class Overflow(QbftError):
    """A value left the representable range."""


class ConstancyViolation(QbftError):
    """A quantity required to be constant showed spread beyond tolerance."""


class IntegrabilityError(QbftError):
    """Requested kernel is not lattice-integrable; supply more zero factors."""


class IllConditioned(QbftError):
    """Linear solve lost more than half the working digits."""


class DegenerateLeading(QbftError):
    """Polynomial leading coefficient is numerically zero."""


class PreconditionError(QbftError):
    """Input does not satisfy a stated precondition."""


class NoWitness(QbftError):
    """Diagnostic scan found no candidate satisfying the test."""


class UsageError(QbftError):
    """Command line misuse."""


# ---------------------------------------------------------------------------
# decay classes

DECAY_RAPID = "rapid"
DECAY_INTEGRABLE = "integrable"
DECAY_BOUNDED = "bounded"
DECAY_UNKNOWN = "unknown"

DECAY_CLASSES = (DECAY_RAPID, DECAY_INTEGRABLE, DECAY_BOUNDED, DECAY_UNKNOWN)


def parse_number(x, what):
    """Parse x as a number at the active precision; floats keep their decimal meaning.

    Anything that is not a finite number raises InvalidParams: NaN would
    otherwise pass every range check, since each comparison with it is false.
    """
    try:
        v = mpmathify(x if not isinstance(x, float) else repr(x))
    except (TypeError, ValueError):
        raise InvalidParams(f"{what}: cannot parse {x!r} as a real number")
    if not mp.isfinite(v):
        raise InvalidParams(f"{what}: {x!r} is not a finite number")
    return v


PARAMETER_CACHE_CAP = 1024
"""Most (decimal string, precision) pairs materialize keeps."""

@functools.lru_cache(maxsize=PARAMETER_CACHE_CAP)
def materialize(text, prec):
    """The decimal string text as an mpf at prec bits: mpmathify(text) at
    that precision, parsed once.  For QParams' validated q, nu and tol
    strings; other input goes through parse_number."""
    with mp.workprec(prec):
        return mpmathify(text)


class QParams:
    """Base q, order nu, target precision in digits, and tolerance.

    q, nu and tol are stored as decimal strings and materialized at the
    active working precision on each access, so a parameter like q = 0.9
    keeps full accuracy no matter how many digits a caller later works with.
    Each access reads the bounded memo materialize, so a string is parsed
    once per precision and gives the bits a fresh mpmathify gives there.
    """

    def __init__(self, q="0.5", nu="0.5", precision_digits=60, tol="1e-40"):
        self.q_str = str(q) if not isinstance(q, float) else repr(q)
        self.nu_str = str(nu) if not isinstance(nu, float) else repr(nu)
        self.tol_str = str(tol) if not isinstance(tol, float) else repr(tol)
        if not isinstance(precision_digits, int) or precision_digits < 30:
            raise InvalidParams("precision_digits must be an integer >= 30")
        self.precision_digits = precision_digits
        with mp.workdps(50):
            qv = parse_number(self.q_str, "q")
            nuv = parse_number(self.nu_str, "nu")
            tv = parse_number(self.tol_str, "tol")
            if not (0 < qv < 1):
                raise InvalidParams(f"q must satisfy 0 < q < 1, got {self.q_str}")
            if not (nuv > -1):
                raise InvalidParams(f"nu must satisfy nu > -1, got {self.nu_str}")
            if not (tv > 0):
                raise InvalidParams(f"tol must be positive, got {self.tol_str}")

    @property
    def q(self):
        return materialize(self.q_str, mp.prec)

    @property
    def nu(self):
        return materialize(self.nu_str, mp.prec)

    @property
    def tol(self):
        return materialize(self.tol_str, mp.prec)

    @property
    def nu_float(self):
        return float(self.nu_str)

    @property
    def log10_inv_q(self):
        """log10(1/q) as a float, the digits-per-lattice-step scale."""
        return -math.log10(float(self.q_str))

    def working(self, extra=0):
        """Context manager setting the working precision to digits + extra."""
        return mp.workdps(self.precision_digits + extra)

    def replace(self, **kw):
        args = dict(q=self.q_str, nu=self.nu_str,
                    precision_digits=self.precision_digits, tol=self.tol_str)
        args.update(kw)
        return QParams(**args)

    def __repr__(self):
        return (f"QParams(q={self.q_str}, nu={self.nu_str}, "
                f"precision_digits={self.precision_digits}, tol={self.tol_str})")

    def __eq__(self, other):
        return (isinstance(other, QParams)
                and self.q_str == other.q_str and self.nu_str == other.nu_str
                and self.precision_digits == other.precision_digits
                and self.tol_str == other.tol_str)

    def __hash__(self):
        return hash((self.q_str, self.nu_str, self.precision_digits, self.tol_str))


class QGrid:
    """Contiguous window of lattice exponents n_min..n_max (x = q^n).

    Larger exponents mean smaller points; n_min is the large-x edge.
    """

    def __init__(self, n_min=-24, n_max=64):
        if not (isinstance(n_min, int) and isinstance(n_max, int)):
            raise InvalidParams("grid bounds must be integers")
        if n_min > n_max:
            raise WindowError(f"empty grid window [{n_min}, {n_max}]")
        self.n_min = n_min
        self.n_max = n_max

    def exponents(self):
        return range(self.n_min, self.n_max + 1)

    def __len__(self):
        return self.n_max - self.n_min + 1

    def __contains__(self, n):
        return self.n_min <= n <= self.n_max

    def index(self, n):
        if n not in self:
            raise WindowError(f"exponent {n} outside window [{self.n_min}, {self.n_max}]")
        return n - self.n_min

    def __eq__(self, other):
        return (isinstance(other, QGrid)
                and self.n_min == other.n_min and self.n_max == other.n_max)

    def __hash__(self):
        return hash((self.n_min, self.n_max))

    def __repr__(self):
        return f"QGrid({self.n_min}, {self.n_max})"


def _man_exp(v):
    """(signed mantissa, exponent) of a finite real sample, exactly, or None.

    Integers keep every digit and floats their 53 bits; other real types are
    converted at the active precision, as arithmetic with them would be.
    The mantissa is odd or zero, as an mpf's is.
    """
    if isinstance(v, int):
        v = int(v)
        zeros = (v & -v).bit_length() - 1 if v else 0
        return v >> zeros, zeros
    if isinstance(v, float):
        v = mpf(v, prec=53)
    elif not isinstance(v, mpf):
        try:
            v = mpmathify(v)
        except (TypeError, ValueError):
            return None
        if not isinstance(v, mpf):
            return None
    sign, man, exp, _ = v._mpf_
    if not man and exp:
        return None
    return (-man if sign else man), exp


class PackedSamples:
    """Finite real samples on a QGrid, packed without losing a bit.

    Sample i is the signed mantissa held as the i-th little-endian integer
    of `width` bytes in one blob, times 2 ** exps[i].  At a plan's 75 digits
    that is about 36 bytes a sample, against about 230 for an mpf.  The
    store is immutable.  The transform reads and writes it as split
    integers, the (mantissas, exponents) lists core.exact_dot reads:
    from_split packs them and split() hands them out, and neither builds an
    mpf.  Only .values and value_at build mpf, each rebuilt at 8 * width
    bits, so exactly.
    """

    __slots__ = ("grid", "_width", "_mants", "_exps")

    def __init__(self, grid, values):
        self._pack(grid, *split_mpf(values))

    @classmethod
    def from_split(cls, grid, mans, exps):
        """The store of the samples mans[i] * 2 ** exps[i] on grid.  mans
        and exps must both have len(grid) entries, or InvalidParams."""
        out = cls.__new__(cls)
        out._pack(grid, mans, exps)
        return out

    def _pack(self, grid, mans, exps):
        if not len(mans) == len(exps) == len(grid):
            raise InvalidParams(
                f"value count {len(mans)} (exponent count {len(exps)}) does not "
                f"match window size {len(grid)}")
        width = max(max(mans), -min(mans)).bit_length() // 8 + 1
        # 32-bit exponents when they fit, as they do at any working precision
        for code in ("i", "q"):
            try:
                packed_exps = array(code, exps)
                break
            except OverflowError:
                pass
        else:
            raise InvalidParams("grid function sample exponent out of range")
        self.grid = grid
        self._width = width
        self._mants = b"".join(man.to_bytes(width, "little", signed=True)
                               for man in mans)
        self._exps = packed_exps

    def __len__(self):
        return len(self._exps)

    def _man(self, i):
        width = self._width
        return int.from_bytes(self._mants[i * width:(i + 1) * width], "little",
                              signed=True)

    def split(self):
        """The samples as two new lists, signed integer mantissas and
        exponents: sample i is mans[i] * 2 ** exps[i]."""
        width = self._width
        blob = self._mants
        from_bytes = int.from_bytes
        mans = [from_bytes(blob[i:i + width], "little", signed=True)
                for i in range(0, len(blob), width)]
        return mans, self._exps.tolist()

    @property
    def values(self):
        """The samples as a new list of mpf."""
        man = self._man
        with mp.workprec(8 * self._width):
            return [mpf((man(i), exp)) for i, exp in enumerate(self._exps)]

    def value_at(self, n):
        """Sample at exponent n, decoded alone."""
        i = self.grid.index(n)
        return mpf((self._man(i), self._exps[i]), prec=8 * self._width)


def split_mpf(values):
    """Signed integer mantissas and exponents of finite real samples, as two
    lists: values[i] is mans[i] * 2 ** exps[i].  An mpf is read from its raw
    tuple, other reals as _man_exp reads them (integers keep every digit,
    floats their 53 bits).  Every mantissa is odd or zero, as
    core.exact_dot needs.  Infinities, NaN and complex values raise
    InvalidParams."""
    mans = []
    exps = []
    for v in values:
        pair = _man_exp(v)
        if pair is None:
            raise InvalidParams("samples must be finite real numbers")
        mans.append(pair[0])
        exps.append(pair[1])
    return mans, exps

def unsplit_mpf(mans, exps):
    """The mpf values split_mpf split into mans and exps, as a list, each
    with exactly its own bits whatever the working precision."""
    make = mp.make_mpf
    return [make((1, -m, e, m.bit_length()) if m < 0 else (0, m, e, m.bit_length()))
            for m, e in zip(mans, exps)]

def exact_dot(a_man, a_exp, b_man, b_exp, prec):
    """Dot product of a and b, given as parallel sequences of signed integer
    mantissas and exponents, as an unrounded (man, exp).

    Rounded to prec bits it is mpmath.fdot(a, b) at prec, bit for bit: the
    loop is mpf_sum's own, fused with the products so no mpf is built per
    term.  Each product goes into one integer accumulator (a long
    accumulator in Kulisch's sense) in index order, under mpf_sum's two
    rules for dropping a term or a partial sum that lies more than 2 * prec
    bits below the other; zero products are skipped, as mpf_sum skips them.
    The sequences are zipped, so the shortest one sets the length.
    Mantissas must be odd or zero, as those of mpf values are.
    """
    limit = 2 * prec
    man = 0
    exp = 0
    for am, ae, bm, be in zip(a_man, a_exp, b_man, b_exp):
        xman = am * bm
        if not xman:
            continue
        xexp = ae + be
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
    return man, exp

def round_split(man, exp, prec):
    """man * 2 ** exp rounded to prec bits, to nearest, as a signed (man,
    exp) with an odd or zero mantissa: the rounding mpmath.fdot gives an
    exact_dot, and an mpf multiplication at prec gives the exact product of
    its factors.  mpmath's own normalize rounds it, given the mantissa's
    exact bit_length."""
    sign = man < 0
    man = MPZ(-man if sign else man)
    _, man, exp, _ = normalize(sign, man, exp, man.bit_length(), prec, round_nearest)
    return (-man if sign else man), exp

def split_products(a_man, a_exp, b_man, b_exp, prec):
    """Pointwise products of two split sequences, each rounded to prec bits
    as the mpf product a[i] * b[i] at prec rounds it (see round_split), as
    two lists; an exact zero product is (0, 0).  The sequences are zipped,
    so the shortest one sets the length."""
    mans = []
    exps = []
    for am, ae, bm, be in zip(a_man, a_exp, b_man, b_exp):
        man, exp = round_split(am * bm, ae + be, prec)
        mans.append(man)
        exps.append(exp)
    return mans, exps


class GridFunction:
    """Samples of a function on a QGrid, with a declared decay class.

    values[i] is the sample at x = q^(n_min + i).  decay_class declares the
    behaviour as x -> infinity (the n -> -infinity side) and gates which
    integrals and transforms accept the function.

    Samples must be finite and real: complex values raise InvalidParams.
    They are kept packed (see PackedSamples) in the read-only .samples, so
    reading .values decodes a new list of mpf: read it once per call, not
    per sample.  Assigning .values, the one way to replace the samples,
    validates and repacks, and drops the lattice record, which extends the
    old samples.

    lattice is None or transform's record of the samples on a plan's whole
    lattice (transform.LatticeRecord), which only transform reads.
    """

    def __init__(self, grid, values, decay_class=DECAY_UNKNOWN):
        if decay_class not in DECAY_CLASSES:
            raise InvalidParams(f"unknown decay class {decay_class!r}")
        self.grid = grid
        self._samples = PackedSamples(grid, values)
        self.decay_class = decay_class
        self.lattice = None

    @classmethod
    def packed(cls, samples, decay_class):
        """Wrap an existing PackedSamples store without repacking it."""
        if decay_class not in DECAY_CLASSES:
            raise InvalidParams(f"unknown decay class {decay_class!r}")
        f = cls.__new__(cls)
        f.grid = samples.grid
        f._samples = samples
        f.decay_class = decay_class
        f.lattice = None
        return f

    @property
    def samples(self):
        """The PackedSamples store."""
        return self._samples

    @property
    def values(self):
        """The samples as a new list of mpf."""
        return self._samples.values

    @values.setter
    def values(self, values):
        self._samples = PackedSamples(self.grid, values)
        self.lattice = None

    def value_at(self, n):
        """Sample at exponent n, i.e. at the point x = q^n."""
        return self._samples.value_at(n)

    def __len__(self):
        return len(self.grid)

    @classmethod
    def from_callable(cls, grid, fn, decay_class=DECAY_UNKNOWN):
        """Build by evaluating fn(n) at every exponent of the grid."""
        return cls(grid, [fn(n) for n in grid.exponents()], decay_class)

    @classmethod
    def zero(cls, grid, decay_class=DECAY_RAPID):
        return cls(grid, [mp.zero] * len(grid), decay_class)

    def __repr__(self):
        return (f"GridFunction(window=[{self.grid.n_min}, {self.grid.n_max}], "
                f"decay={self.decay_class})")


class Constants:
    """Normalization constants attached to a parameter set.

    c_q_nu   weights the transform and convolution integrals,
    B_q_nu   bounds the transform operator norm on L^1,
    sigma_nu scales the limit polynomials of the kernel calculus.
    """

    def __init__(self, c_q_nu, B_q_nu, sigma_nu):
        self.c_q_nu = c_q_nu
        self.B_q_nu = B_q_nu
        self.sigma_nu = sigma_nu


def constants(params, dps=None):
    """The Constants bundle for working precision dps (default: the params' digits).

    Computed at dps + 20 digits and memoized on q, nu and dps, its only inputs.
    """
    return _constants(params.q_str, params.nu_str, dps or params.precision_digits)

@functools.lru_cache(maxsize=256)
def _constants(q_str, nu_str, dps):
    with mp.workdps(dps + 20):
        q = materialize(q_str, mp.prec)
        nu = materialize(nu_str, mp.prec)
        q2 = q * q
        a = qpochhammer_infinite(q ** (2 * nu + 2), q2)
        b = qpochhammer_infinite(q2, q2)
        an = qpochhammer_infinite(-q ** (2 * nu + 2), q2)
        bn = qpochhammer_infinite(-q2, q2)
        c = a / b / (1 - q)
        B = bn * an / b / (1 - q)
        sig = a * b
        return Constants(+c, +B, +sig)


# ---------------------------------------------------------------------------
# q-Pochhammer and the q-exponential

def qpochhammer_finite(a, q, n):
    """(a; q)_n = prod_{i=0..n-1} (1 - a q^i), evaluated at working precision."""
    if not isinstance(n, int) or n < 0:
        raise InvalidParams("pochhammer length n must be a nonnegative integer")
    with mp.workdps(mp.dps + 10):
        a = parse_number(a, "a")
        q = parse_number(q, "q")
        prod = mp.one
        ap = a
        for _ in range(n):
            prod *= (1 - ap)
            ap *= q
        return +prod

POCHHAMMER_CAP = 4_000_000
"""Most factors qpochhammer_infinite multiplies before it refuses."""

def qpochhammer_infinite(a, q):
    """(a; q)_inf for |q| < 1.

    Multiplies factors until the running term a q^i drops below the truncation
    threshold, then applies one log-tail correction exp(-term / (1 - q)) for
    the remaining factors.  Declared stable when one further factor moves the
    corrected value by less than 10^-(dps - 8) at the working dps (the
    active dps + 10); otherwise NonConvergent.  More than POCHHAMMER_CAP
    factors is NonConvergent too, refused up front when the factor count
    log(thresh / |a|) / log|q|, estimated at low precision, exceeds that cap
    by more than 1 %, so a q near 1 fails fast; a count near the cap is left
    to the loop.
    """
    with mp.workdps(mp.dps + 10):
        a = parse_number(a, "a")
        q = parse_number(q, "q")
        if abs(q) >= 1:
            raise NonConvergent("infinite pochhammer needs |q| < 1")
        tol = mpf(10) ** (-(mp.dps - 8))
        thresh = tol * mpf("1e-2")
        cap = POCHHAMMER_CAP
        if q and abs(a) > thresh:
            with mp.workdps(10):
                factors = mp.log(thresh / abs(a)) / mp.log(abs(q))
            if factors > 1.01 * cap:
                raise NonConvergent("pochhammer truncation did not reach threshold")
        prod = mp.one
        term = a
        steps = 0
        while abs(term) > thresh:
            prod *= (1 - term)
            term *= q
            steps += 1
            if steps > cap:
                raise NonConvergent("pochhammer truncation did not reach threshold")
        first = prod * mp.e ** (-term / (1 - q))
        prod *= (1 - term)
        term *= q
        second = prod * mp.e ** (-term / (1 - q))
        if abs(first - second) > tol * max(mp.one, abs(first)):
            raise NonConvergent("pochhammer tail correction did not stabilize")
        return +second

def q_exponential(z, q):
    """e(z, q) = sum_n z^n / (q; q)_n, the q-exponential, for |z| < 1.

    Equals 1 / (z; q)_inf on its disk of convergence.
    """
    with mp.workdps(mp.dps + 10):
        z = parse_number(z, "z")
        q = parse_number(q, "q")
        if abs(q) >= 1:
            raise NonConvergent("q-exponential needs |q| < 1")
        if abs(z) >= 1:
            raise DomainError("q-exponential series needs |z| < 1")
        total = mp.zero
        term = mp.one
        n = 0
        floor = mpf(10) ** (-(mp.dps - 8))
        below = 0
        while below < 10:
            total += term
            n += 1
            term *= z / (1 - q ** n)
            below = below + 1 if abs(term) < floor * max(mp.one, abs(total)) else 0
            if n > 4_000_000:
                raise NonConvergent("q-exponential series did not settle")
        return +total


LATTICE_DPS = 40
"""Digits at which a point is resolved to its lattice exponent."""

LATTICE_SLACK = mpf("1e-9", dps=LATTICE_DPS)
"""How far log_q of a lattice point may lie from its integer exponent."""

@functools.lru_cache(maxsize=256)
def _log_q(q_str):
    with mp.workdps(LATTICE_DPS):
        return mp.log(materialize(q_str, mp.prec))

def nearest_exponent(v, q_str):
    """(k, k_real - k) for a positive mpf v, where k_real = log(v) / log(q)
    at LATTICE_DPS digits for q = q_str and k is the integer nearest it.
    log q comes from a memo per q string."""
    with mp.workdps(LATTICE_DPS):
        k_real = mp.log(v) / _log_q(q_str)
        k = int(mp.nint(k_real))
        return k, k_real - k

def _resolve_exponent(x, q_str, what):
    with mp.workdps(LATTICE_DPS):
        xv = parse_number(x, what)
        if xv <= 0:
            raise DomainError(f"{what} must be a positive lattice point")
        k, off = nearest_exponent(xv, q_str)
        if abs(off) > LATTICE_SLACK:
            raise DomainError(f"{what} = {x} is not a lattice point q^n")
        return k

@functools.lru_cache(maxsize=PARAMETER_CACHE_CAP)
def _exponent(kind, x, q_str):
    """lattice_exponent's memo, keyed by x's type, x and q.  An entry takes
    about 190 bytes (its node, key and the dict slot; the exponent is a
    small int) and keeps the caller's x alive, which adds x's own size: 89
    bytes for a str of 40 ASCII characters, about 100 for an mpf at 60
    digits, so about 0.3 MB for the whole memo with such arguments."""
    return _resolve_exponent(x, q_str, "x")

def lattice_exponent(x, params, what="x"):
    """Resolve a positive real to its lattice exponent; DomainError off-lattice.

    x is parsed at LATTICE_DPS digits and must lie within LATTICE_SLACK of
    its nearest exponent (see nearest_exponent).  The exponent is memoized,
    at most PARAMETER_CACHE_CAP of them, on (type(x), x, params.q_str), all
    its bits depend on: the type is in the key because equal values of two
    types parse apart (0.1 == mpf(0.1), but a float is read through its
    repr).  A refusal is never stored: it is raised again, labelled by
    what, on every call, and an unhashable x is refused by parse_number."""
    try:
        return _exponent(type(x), x, params.q_str)
    except (TypeError, QbftError):
        pass
    return _resolve_exponent(x, params.q_str, what)


# ---------------------------------------------------------------------------
# Jackson integrals

def jackson_integral_finite(f, a, params, with_tail=False):
    """Jackson integral of f from 0 to a: (1-q) a sum_{n>=0} q^n f(a q^n).

    a must be a lattice point q^m with the ray {m, m+1, ...} meeting f's
    window in at least 8 points.  The neglected tail below the window is
    estimated geometrically from the last kept summand.
    """
    m = lattice_exponent(a, params, "upper limit")
    with params.working(10):
        q = params.q
        av = parse_number(a, "a")
        if m < f.grid.n_min:
            raise WindowError(
                f"upper limit exponent {m} lies above the window; "
                f"the leading summands are not available")
        lo = m
        count = f.grid.n_max - lo + 1
        if count < 8:
            raise WindowError(
                f"only {count} summands available above exponent {m}; need >= 8")
        terms = [q ** (n - m) * v for n, v in zip(range(lo, f.grid.n_max + 1),
                                                  f.values[lo - f.grid.n_min:])]
        value = (1 - q) * av * mpmath.fsum(terms)
        tail = abs((1 - q) * av * terms[-1]) * q / (1 - q)
        value = +value
        tail = +tail
    if with_tail:
        return value, tail
    return value

def jackson_integral_infinite(f, params, with_tail=False):
    """Jackson integral of f over (0, inf): (1-q) sum_n q^n f(q^n).

    Requires decay class rapid or integrable.  Raises DivergentTail when the
    head summands (large-x side) grow outward instead of decaying.  The
    two-sided tail estimate covers both truncated ends of the window.
    """
    if f.decay_class not in (DECAY_RAPID, DECAY_INTEGRABLE):
        raise PreconditionError(
            f"integral over (0, inf) needs rapid or integrable decay, "
            f"got {f.decay_class!r}")
    with params.working(10):
        q = params.q
        summands = [q ** n * v for n, v in zip(f.grid.exponents(), f.values)]
        head = [abs(s) for s in summands[:6]]
        if len(head) >= 3 and all(head[i] > head[i + 1] * (1 + mpf("1e-10"))
                                  for i in range(len(head) - 1)) and head[0] > 0:
            raise DivergentTail("head summands grow toward large x")
        value = (1 - q) * mpmath.fsum(summands)
        head_tail = (1 - q) * (head[0] if head else mp.zero)
        low_tail = (1 - q) * abs(summands[-1]) * q / (1 - q) if summands else mp.zero
        value = +value
        tail = +(head_tail + low_tail)
    if with_tail:
        return value, tail
    return value


# ---------------------------------------------------------------------------
# difference operators and shifts

def q_derivative(f, params):
    """D_q f(x) = (f(x) - f(qx)) / ((1-q) x) on the lattice.

    Needs the neighbour sample f(q^(n+1)), so the output window loses its
    n_max exponent.
    """
    if len(f.grid) < 2:
        raise WindowError("q-derivative needs at least two grid points")
    with params.working(10):
        q = params.q
        vals = f.values
        out = []
        for i, n in enumerate(range(f.grid.n_min, f.grid.n_max)):
            out.append(+((vals[i] - vals[i + 1]) / ((1 - q) * q ** n)))
    return GridFunction(QGrid(f.grid.n_min, f.grid.n_max - 1), out, DECAY_UNKNOWN)

def lambda_shift(f, k):
    """Scale shift (Lambda^k f)(x) = f(q^k x), exact on the lattice.

    The output lives on the shifted window: its sample at exponent n is the
    input sample at exponent n + k.  Shifting by k then -k is the identity.
    """
    if not isinstance(k, int):
        raise InvalidParams("shift order k must be an integer")
    if len(f.grid) == 0:
        raise WindowError("cannot shift an empty grid")
    return GridFunction(QGrid(f.grid.n_min - k, f.grid.n_max - k),
                        list(f.values), f.decay_class)

def q_bessel_operator(f, params):
    """Second-order q-Bessel difference operator.

    (Delta f)(x) = x^-2 [ f(x/q) - (1 + q^(2 nu)) f(x) + q^(2 nu) f(qx) ].
    Both window edges are lost (three-point stencil).  Acts as multiplication
    by -a^2 on the eigenfunctions j_nu(a x) of the calculus.
    """
    if len(f.grid) < 3:
        raise WindowError("q-Bessel operator needs at least three grid points")
    with params.working(10):
        q = params.q
        nu = params.nu
        co = 1 + q ** (2 * nu)
        vals = f.values
        out = []
        for i, n in enumerate(range(f.grid.n_min + 1, f.grid.n_max), 1):
            val = (vals[i - 1] - co * vals[i] + q ** (2 * nu) * vals[i + 1])
            out.append(+(q ** (-2 * n) * val))
    return GridFunction(QGrid(f.grid.n_min + 1, f.grid.n_max - 1), out, DECAY_UNKNOWN)


# ---------------------------------------------------------------------------
# serialization

def decimal_str(x, digits):
    """Deterministic decimal string with the given number of significant digits.

    x is first rounded to 2 digits + 20 digits, far more than nstr reads, so
    a value with a mantissa of many thousand bits prints without converting
    it whole.
    """
    with mp.workdps(2 * digits + 20):
        return mp.nstr(+mpmathify(x), digits, strip_zeros=True)

def gridfunction_to_json(f, params):
    """Serialize a grid function with its parameters as decimal strings."""
    d = params.precision_digits + 10
    payload = {
        "q": params.q_str,
        "nu": params.nu_str,
        "n_min": f.grid.n_min,
        "n_max": f.grid.n_max,
        "decay_class": f.decay_class,
        "values": [decimal_str(v, d) for v in f.values],
    }
    return json.dumps(payload, indent=1)

def _window_bound(x, what):
    """A window bound from a payload: an integer, an integral float or an
    integer string.  Booleans and fractions are refused, not truncated."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise InvalidParams(f"malformed grid function payload: {what} must be "
                            f"an integer, got {x!r}")
    return int(x)

def gridfunction_from_json(text, precision_digits=60, tol="1e-40"):
    """Parse a serialized grid function; returns (GridFunction, QParams)."""
    try:
        payload = json.loads(text)
        q = payload["q"]
        nu = payload["nu"]
        n_min = _window_bound(payload["n_min"], "n_min")
        n_max = _window_bound(payload["n_max"], "n_max")
        raw = payload["values"]
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidParams(f"malformed grid function payload: {exc}")
    if not isinstance(raw, list):
        raise InvalidParams(
            f"malformed grid function payload: values must be a list, got {raw!r}")
    params = QParams(q=q, nu=nu, precision_digits=precision_digits, tol=tol)
    decay = payload.get("decay_class", DECAY_UNKNOWN)
    with params.working(10):
        values = [parse_number(s, "values") for s in raw]
    return GridFunction(QGrid(n_min, n_max), values, decay), params
