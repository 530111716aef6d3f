"""q-Bessel special functions on the geometric lattice.

The normalized oscillatory function j_nu drives the transform; the modified
all-positive companion i_nu enters Wronskian-type identities; K_nu is the
positive kernel obtained by transforming the Lorentz profile (1+t^2)^-1, and
g_a its scaled family; like the triple kernel of generalized translation
they are lattice sums over products of j columns, summed by _quadrature.
The Wronskian-like constant d_nu ties K and i together and must come out
grid-independent.

j_nu evaluations near x = q^s with s very negative suffer catastrophic
cancellation (the value sits at scale q^(s^2) while series terms reach scale
q^(-s^2)); evaluation therefore runs on a precision ladder with an explicit
cancellation certificate, and lattice-indexed callers use an envelope bound
to pick the working precision up front.

Callers that need j on a contiguous run of lattice exponents take it from
j_nu_lattice_row, which solves the three-term recurrence instead of summing
one series per sample.  j_nu and j_nu_lattice stay series-only, so they
remain an independent oracle for the rows.  Lattice rows (j_nu_lattice_row,
lattice_weights) come split, as the integers core.exact_dot reads.
"""

import functools
import math

import mpmath
from mpmath import mp, mpf

from .core import (
    DomainError, Overflow, PrecisionExhausted, ConstancyViolation, WindowError,
    LATTICE_DPS, QParams, constants, exact_dot, lattice_exponent, materialize,
    nearest_exponent, parse_number, split_mpf, split_products,
)


class BesselEval:
    """Certified series evaluation: value plus the evidence for trusting it."""

    def __init__(self, value, terms_used, max_term_magnitude, precision_used):
        self.value = value
        self.terms_used = terms_used
        self.max_term_magnitude = max_term_magnitude
        self.precision_used = precision_used

    def digits_lost(self):
        """Decimal digits cancelled between the largest term and the result."""
        if self.value == 0 or self.max_term_magnitude == 0:
            return float(self.precision_used)
        with mp.workdps(30):
            return max(0.0, float(mp.log10(self.max_term_magnitude / abs(self.value))))

    def __repr__(self):
        with mp.workdps(10):
            return (f"BesselEval({mp.nstr(self.value, 8)}, terms={self.terms_used}, "
                    f"lost~{self.digits_lost():.0f}, dps={self.precision_used})")


def bound_constant(params):
    """Envelope constant for |j_nu| on the large-argument side:
    (-q^2; q^2)_inf (-q^(2nu+2); q^2)_inf / (q^(2nu+2); q^2)_inf = B_q_nu / c_q_nu."""
    dps = params.precision_digits + 15
    k = constants(params, dps)
    with mp.workdps(dps):
        return k.B_q_nu / k.c_q_nu

@functools.lru_cache(maxsize=256)
def _log10_bound_constant(q_str, nu_str):
    """log10 of bound_constant for q and nu, at least 2.0; a float needs
    no more than 15 digits of the constant."""
    k = constants(QParams(q=q_str, nu=nu_str), 15)
    with mp.workdps(15):
        return max(2.0, math.log10(k.B_q_nu / k.c_q_nu))

def decay_bound_log10(s, params):
    """log10 of the envelope bound for |j_nu(q^s)|; quadratic decay for s < 0."""
    lq = params.log10_inv_q
    nu = params.nu_float
    base = _log10_bound_constant(params.q_str, params.nu_str)
    if s >= 0:
        return base
    return base - (s * s - (2 * nu + 1) * s) * lq


def _series(x2, sign, q_str, nu_str, dps):
    """The power series of j_nu (sign -1) or i_nu (sign +1) at x^2 = x2 and
    dps digits: term n+1 is term n times sign * num * x2 / den, with
    (num, den) from _term_ratio.

    The sum stops before the first term below 10^-(dps+3) times the larger
    of the largest term and |total|, and does not add it.  The term ratio
    q^(2n+2) x^2 / ((1 - q^(2nu+2+2n)) (1 - q^(2n+2))) strictly decreases
    in n for 0 < q < 1 and nu > -1, so the terms rise to one peak and then
    fall.  Before the peak each term is the largest so far and |total| is
    at most n times it, so the stop lies past the peak.  For i every later
    term is below half an ulp of the total, so summing on changes no bit.
    For j the omitted tail alternates with falling terms, so it is below
    the first of them; |total| is at most twice the largest term (the
    rising head and the falling tail are alternating sums bounded by it),
    so the tail is below 2 * 10^-(dps+3) * max_term_magnitude, which
    digits_lost already charges.
    """
    with mp.workdps(dps):
        step = sign * x2  # exact, so each product has the bits of sign * num * x2
        term = at = max_term = mp.one
        total = mp.zero
        floor = mpf(10) ** (-dps - 3)
        # at >= floor * max(max_term, |total|) as two tests; cut = floor * max_term
        cut = floor
        n = 0
        while at >= cut and at >= floor * abs(total):
            total += term
            if at > max_term:
                max_term = at
                cut = floor * at
            num, den = _term_ratio(q_str, nu_str, n, mp.prec)
            term *= num * step / den
            at = abs(term)
            n += 1
        return BesselEval(total, n, max_term, dps)  # both already rounded to dps

def j_nu(x, params):
    """Normalized q-Bessel function j_nu(x; q^2), certified.

    Runs the series on the precision ladder (digits, 2x, 4x, 8x) until the
    cancellation certificate holds: the digits lost to cancellation plus the
    target precision must fit inside the rung, with ten digits to spare.
    Raises PrecisionExhausted when even the top rung cannot certify.
    """
    with mp.workdps(40):
        xv = parse_number(x, "x")
        if xv < 0:
            raise DomainError("j_nu is evaluated for x >= 0")
    d = params.precision_digits
    for rung in (d, 2 * d, 4 * d, 8 * d):
        with mp.workdps(rung + 10):
            x2 = parse_number(x, "x") ** 2
        ev = _series(x2, -1, params.q_str, params.nu_str, rung + 10)
        if ev.digits_lost() + d + 10 <= ev.precision_used:
            return ev
    raise PrecisionExhausted(
        f"j_nu({x}) cancellation exceeds the precision ladder "
        f"(lost ~{ev.digits_lost():.0f} digits at {ev.precision_used} dps)")


LATTICE_CACHE_CAP = 4096
"""Most series values j_nu_lattice keeps; past it the least recently used goes."""

def _rung(work):
    """Smallest lattice precision rung (a multiple of 60 dps) holding work digits."""
    return 60 * (1 + (work - 1) // 60)

@functools.lru_cache(maxsize=LATTICE_CACHE_CAP)
def _lattice_series(q_str, nu_str, s, rung):
    """The series for j_nu(q^s) at rung dps: its value and the digits it lost."""
    with mp.workdps(rung):
        x2 = materialize(q_str, mp.prec) ** (2 * s)
    ev = _series(x2, -1, q_str, nu_str, rung)
    return ev.value, ev.digits_lost()

def j_nu_lattice(s, params, digits=None):
    """j_nu(q^s; q^2) for integer s, sized from the envelope bound.

    The cancellation allowance is computed up front from the decay envelope,
    so no ladder probing is needed; series values are memoized per precision
    rung so a whole plan build samples every j value at one coherent
    precision.  The allowance is still checked against the digits the series
    lost: near q = 1 the terms grow even for s >= 0, where the envelope
    allows nothing.  A rung that falls short is redone once on the rung
    covering the measured loss, and PrecisionExhausted is raised if that
    falls short as well.  The value depends only on s, q, nu and digits.
    """
    if not isinstance(s, int):
        raise DomainError("lattice evaluation needs an integer exponent")
    d = digits or params.precision_digits
    lq = params.log10_inv_q
    nu = abs(params.nu_float)
    own = math.ceil((2 * s * s + 2 * nu * abs(s) + 4 * abs(s)) * lq) if s < 0 else 0
    rung = _rung(max(d, 60) + own + 10)
    value, lost = _lattice_series(params.q_str, params.nu_str, s, rung)
    if rung - lost < d:
        rung = _rung(max(d, 60) + math.ceil(lost) + 10)
        value, lost = _lattice_series(params.q_str, params.nu_str, s, rung)
        if rung - lost < d:
            raise PrecisionExhausted(
                f"j_nu(q^{s}) cancellation exceeds the lattice rungs "
                f"(lost ~{lost:.0f} digits at {rung} dps)")
    return value

def _fixed(v, bits):
    """v as a fixed-point integer with bits fraction bits."""
    return int(v * mpf(2) ** bits)

def _sweep(s_lo, s_hi, params, depth, dps):
    """Unnormalized j samples on s_lo..s_hi from the q-Bessel recurrence.

    j(s+1) = [(1 + q^(2nu) - q^(2s)) j(s) - j(s-1)] / q^(2nu), run upward
    from the seeds (0, 1) placed depth steps below min(s_lo, 0).  Toward
    small x j is the dominant solution, so the seeds' share of the second
    solution dies out super-exponentially across the large-x side.

    The sweep runs in integer arithmetic at about dps digits: coefficients
    are fixed-point integers, and the pair (j(s-1), j(s)) shares one binary
    exponent, rescaled as the values grow.  Entry i is (m, e) with
    m * 2^e = C j(s_lo + i) for one unknown constant C.
    """
    bits = math.ceil(dps * 3.33) + 40
    start = min(s_lo, 0) - depth
    with mp.workdps(dps + 10):
        q2 = params.q ** 2
        q2nu = q2 ** params.nu
        co = _fixed(1 + q2nu, bits)
        inv = _fixed(1 / q2nu, bits)
        step = _fixed(q2, bits)
        x2 = _fixed(q2 ** start, bits)
    prev, cur, exp = 0, 1 << bits, -bits
    out = []
    for s in range(start, s_hi):
        if s >= s_lo:
            out.append((cur, exp))
        prev, cur = cur, ((((co - x2) * cur) >> bits) - prev) * inv >> bits
        x2 = x2 * step >> bits
        size = max(cur.bit_length(), prev.bit_length())
        if size > bits + 32:
            prev >>= size - bits
            cur >>= size - bits
            exp += size - bits
        elif size < bits - 32:
            prev <<= bits - size
            cur <<= bits - size
            exp -= bits - size
    out.append((cur, exp))
    return out

@functools.lru_cache(maxsize=256)
def _certified_row(s_lo, s_hi, params, digits):
    lq = params.log10_inv_q
    depth = 4 + math.ceil(math.sqrt(digits / lq))
    # for nu > 0 the second solution grows like q^(-2nu s) against j
    guard = max(0, math.ceil(2 * params.nu_float * lq * s_hi))
    dps = digits + 20 + guard
    anchor = min(max(0, s_lo), s_hi)
    ja = j_nu_lattice(anchor, params, digits)
    first = _sweep(s_lo, s_hi, params, depth, dps)
    check = _sweep(s_lo, s_hi, params, 2 * depth, dps + 10)
    m1a, e1a = first[anchor - s_lo]
    m2a, e2a = check[anchor - s_lo]
    inv_tol = 10 ** (digits + 5)
    row = []
    with mp.workdps(dps):
        scale = ja / mpf((m1a, e1a))
        for i, ((m1, e1), (m2, e2)) in enumerate(zip(first, check)):
            # both sweeps relative to their anchor entry, on one exponent
            a, ea = m1 * m2a, e1 - e1a
            b, eb = m2 * m1a, e2 - e2a
            e = min(ea, eb)
            a <<= ea - e
            b <<= eb - e
            if abs(a - b) * inv_tol > abs(b):
                row.append(j_nu_lattice(s_lo + i, params, digits))
            else:
                row.append(mpf((m1, e1)) * scale)
    mans, exps = split_mpf(row)
    return tuple(mans), tuple(exps)

def j_nu_lattice_row(s_lo, s_hi, params, digits=None):
    """Certified j_nu(q^s; q^2) for the lattice exponents s_lo..s_hi, split:
    a (mantissas, exponents) pair of tuples, as core.split_mpf splits.

    The row comes from the three-term recurrence (see _sweep), normalized by
    the one series value j_nu_lattice at the anchor s = 0 clamped into the
    row.  A second sweep from twice the depth at ten more digits certifies
    it: an entry where the two differ by more than 10^-(digits+5) relative
    falls back to j_nu_lattice.  Values keep the sweep's precision.  Where
    the decay envelope certifies |j_nu(q^s)| below the precision floor
    10^-(precision_digits + 50), the entry is an exact zero, (0, 0), and is
    not evaluated.  Whole rows are memoized in a bounded memo of their own,
    once each; j_nu_lattice's cache only ever holds the anchor and the
    fallbacks.  Bounds that are not integers, or s_lo > s_hi, raise
    DomainError.
    """
    if not (isinstance(s_lo, int) and isinstance(s_hi, int)):
        raise DomainError("lattice evaluation needs integer exponents")
    if s_lo > s_hi:
        raise DomainError(f"empty lattice row [{s_lo}, {s_hi}]")
    first = s_lo
    while first <= s_hi and decay_bound_log10(first, params) < -(params.precision_digits + 50):
        first += 1
    zeros = (0,) * (first - s_lo)
    if first > s_hi:
        return zeros, zeros
    mans, exps = _certified_row(first, s_hi, params, digits or params.precision_digits)
    return zeros + mans, zeros + exps

def i_nu(x, params):
    """Modified companion series: all terms positive, no cancellation.

    _series with sign +1 at dps = digits + 20; its early exit leaves every
    bit of the total.  Order nu + 1 is i_nu(x, params.replace(nu=...)).
    """
    with params.working(20):
        xv = parse_number(x, "x")
        if xv < 0:
            raise DomainError("i_nu is evaluated for x >= 0")
        total = _series(xv * xv, 1, params.q_str, params.nu_str, mp.dps).value
    if mp.isinf(total):
        raise Overflow("i_nu overflowed the representable range")
    return total


def envelope_scale(m, params):
    """Digits of j's decay q^(m^2+(2nu+1)m) at x = q^-m, plus 8 steps; 3.0 if m <= 0."""
    lq = params.log10_inv_q
    nu = params.nu_float
    return ((m * m + (2 * nu + 1) * m) + 8) * lq if m > 0 else 3.0

def quadrature_range(ks, est, l_lo, params):
    """Summation range (l_lo, l_hi) of c (1-q) sum_l q^(l(2nu+2)) prod_k j(q^(k+l)).

    est is the envelope_scale of the deepest column.  The tail ends where the
    weight falls below the result's scale; the head runs down from l_lo until
    weight times envelopes is certified below 10^-(est+digits+10).
    """
    lq = params.log10_inv_q
    nu = params.nu_float
    digits = params.precision_digits
    l_hi = math.ceil((est + digits + 12) / ((2 * nu + 2) * lq)) + 2
    floor_log10 = -(est + digits + 10)
    def head_bound(l):
        total = -l * (2 * nu + 2) * lq
        for k in ks:
            total += decay_bound_log10(k + l, params)
        return total
    guard = 0
    while head_bound(l_lo) > floor_log10:
        if guard == 4000:
            raise PrecisionExhausted(
                f"quadrature head for exponents {tuple(ks)} not certified "
                f"within 4000 steps below l = {l_lo + guard}")
        l_lo -= 1
        guard += 1
    return l_lo, l_hi


WEIGHT_TABLE_CAP = 12000
"""Most entries each weight memo (lattice weights, the series' term ratios) keeps."""

WEIGHT_BLOCK = 64
"""Lattice weights are memoized in blocks of this many consecutive l."""

# Each memo below computes its entry at the caller's working precision,
# which callers pass as prec, so an entry has the bits of a fresh evaluation.

@functools.lru_cache(maxsize=WEIGHT_TABLE_CAP // WEIGHT_BLOCK)
def _weight_block(q_str, nu_str, a_raw, b, prec):
    """The weights for l = b * WEIGHT_BLOCK onward, one block of them, at
    prec bits, as core.split_mpf's (mantissas, exponents) tuples: the plain
    q^(l(2nu+2)), or given a's raw tuple g_a's q^(l(2nu+2)) / (1 + q^(2l)/a^2)."""
    with mp.workprec(prec):
        q = materialize(q_str, prec)
        e = 2 * materialize(nu_str, prec) + 2
        ls = range(b * WEIGHT_BLOCK, (b + 1) * WEIGHT_BLOCK)
        if a_raw is None:
            ws = [q ** (mpf(l) * e) for l in ls]
        else:
            a = mp.make_mpf(a_raw)
            ws = [q ** (mpf(l) * e) / (1 + q ** (2 * l) / (a * a)) for l in ls]
    mans, exps = split_mpf(ws)
    return tuple(mans), tuple(exps)

@functools.lru_cache(maxsize=WEIGHT_TABLE_CAP)
def _term_ratio(q_str, nu_str, n, prec):
    """Term n+1 over term n of i_nu's series is num x^2 / den, and of
    j_nu's -num x^2 / den; returns (num, den).  Only _series reads it."""
    q = materialize(q_str, prec)
    nu = materialize(nu_str, prec)
    q2 = q * q
    return q2 ** (n + 1), (1 - q ** (2 * nu + 2 + 2 * n)) * (1 - q2 ** (n + 1))

def _split_weights(params, a, lo, hi):
    """(mantissas, exponents) lists of the weights for l = lo..hi at the
    current precision, joined from their blocks: plain if a is None, else
    g_a's Lorentz weights for a, an mpf at that precision."""
    a_raw = None if a is None else a._mpf_
    first = lo // WEIGHT_BLOCK
    mans = []
    exps = []
    for b in range(first, hi // WEIGHT_BLOCK + 1):
        m, e = _weight_block(params.q_str, params.nu_str, a_raw, b, mp.prec)
        mans += m
        exps += e
    skip = lo - first * WEIGHT_BLOCK
    return mans[skip:skip + hi - lo + 1], exps[skip:skip + hi - lo + 1]

def lattice_weights(params, lo, hi):
    """The lattice weights q ** (mpf(l) * (2 * nu + 2)) for l = lo..hi at
    the current working precision, from their memoized blocks, split: a
    (mantissas, exponents) pair of lists, as core.split_mpf splits."""
    return _split_weights(params, None, lo, hi)

def _quadrature(ks, est, start, dps, a, power, params):
    """c^power (1-q) sum_l w(l) prod_(k in ks) j(q^(k+l)) at dps, over
    quadrature_range(ks, est, start): w(l) is the plain lattice weight if
    a is None, else g_a's Lorentz weight for a, an mpf at dps.

    The inputs arrive split: the weights from their block memo and the j
    row from its certified-row memo, both as the integer mantissas and
    exponents core.exact_dot reads, so a warm call parses nothing and
    builds no mpf per term.  Every column but the last is multiplied in on
    those integers, each product rounded to dps as an mpf product rounds it
    (core.split_products, core owns that rounding); the last enters one
    core.exact_dot, so the sum is rounded once.

    Before the j row is computed, a dps above j_nu's top rung (8 x digits)
    raises PrecisionExhausted, and a row longer than WEIGHT_TABLE_CAP raises
    WindowError: the weight memos are sized for rows up to that length.
    """
    l_lo, l_hi = quadrature_range(ks, est, start, params)
    lo = min(ks) + l_lo
    hi = max(ks) + l_hi
    top = 8 * params.precision_digits
    if dps > top:
        raise PrecisionExhausted(
            f"quadrature over j(q^{lo})..j(q^{hi}) needs {dps} digits, "
            f"beyond the top rung of {top}")
    if hi - lo + 1 > WEIGHT_TABLE_CAP:
        raise WindowError(
            f"quadrature row of {hi - lo + 1} points exceeds the bound of "
            f"{WEIGHT_TABLE_CAP} points")
    jman, jexp = _certified_row(lo, hi, params, dps)
    with mp.workdps(dps):
        c = constants(params, dps).c_q_nu
        wman, wexp = _split_weights(params, a, l_lo, l_hi)
        for k in ks[:-1]:
            i = k + l_lo - lo
            wman, wexp = split_products(wman, wexp, jman[i:], jexp[i:], mp.prec)
        last = ks[-1] + l_lo - lo
        total = mpf(exact_dot(wman, wexp, jman[last:], jexp[last:], mp.prec))
        # not c ** power: for power 1 that rounds c to dps before the product
        scale = c if power == 1 else c * c
        return +(scale * (1 - params.q) * total)

def g_a_lattice(k, a, params):
    """g_a(q^k) for integer k: c (1-q) sum_l q^(l(2nu+2)) j(q^(k+l)) / (1 + q^(2l)/a^2).

    Summed over quadrature_range; for k > 0 the head starts beyond j's
    oscillatory region.  a's nearest lattice exponent, which sizes the
    precision, comes from core.nearest_exponent, the rule lattice_exponent
    applies to points; a is parsed once at its LATTICE_DPS digits and once
    at the working precision, where it keys the weight blocks.
    """
    if not isinstance(k, int):
        raise DomainError("lattice evaluation needs an integer exponent")
    lq = params.log10_inv_q
    nu = params.nu_float
    with mp.workdps(LATTICE_DPS):
        av = parse_number(a, "a")
        if av <= 0:
            raise DomainError("scale a must be positive")
    shift, _ = nearest_exponent(av, params)
    m_eff = max(0, -(k + shift))
    est = envelope_scale(m_eff, params)
    max_weight = (m_eff * (2 * nu + 2)) * lq if m_eff > 0 else 0.0
    digits = params.precision_digits
    dps = int(digits + est + max_weight + 30)
    start = -k - math.ceil(math.sqrt((digits + est) / lq)) - 6 if k > 0 else -4
    with mp.workdps(dps):
        a_dps = parse_number(a, "a")
    return _quadrature((k,), est, start, dps, a_dps, 1, params)

def triple_kernel(x, y, z, params):
    """Symmetric positive-measure kernel coupling three lattice points.

    D(x, y, z) = c^2 (1-q) sum_l q^(l(2nu+2)) j(x q^l) j(y q^l) j(z q^l).
    Its weighted z-marginal integrates to exactly 1, which is what makes the
    translation operator mass-preserving.  Arguments are lattice points.

    D is certified on the absolute scale q^(-min(ks)(2nu+2)) of its terms,
    not relative to D: where D is a deep cancellation of such terms it has
    no relative accuracy, and may even come out with the wrong sign.
    """
    ks = tuple(lattice_exponent(v, params, n) for v, n in zip((x, y, z), "xyz"))
    est = envelope_scale(max(0, -min(ks)), params)
    dps = int(params.precision_digits + 3 * est + 30)
    # above l = -min(ks) every column is still oscillatory: the head cannot end there
    return _quadrature(ks, est, min(-4, -min(ks)), dps, None, 2, params)

def g_a_floored(k, params):
    """True where the envelope certifies g_a below 10^-(digits+40); g_a(q^n)
    with a = q^j has k = n + j."""
    m = max(0, -k)
    return m > 0 and envelope_scale(m, params) - 12 > params.precision_digits + 40

def k_nu(x, params):
    """Positive kernel K_nu at a lattice point: transform of (1+t^2)^-1.

    Strictly positive on the whole lattice; decays like q^(m^2+(2nu+1)m)
    at x = q^-m, which is why the quadrature range adapts to x instead of
    using a fixed window (a fixed window mis-signs the deep tail).
    """
    k = lattice_exponent(x, params)
    return g_a_lattice(k, 1, params)

def g_a(x, a, params):
    """Scaled Lorentz transform g_a: the transform of (1 + t^2/a^2)^-1.

    For a = q^j on the lattice this equals a^(2(nu+1)) K_nu(a x) exactly.
    """
    k = lattice_exponent(x, params)
    return g_a_lattice(k, a, params)

def d_nu(params, with_spread=False):
    """Wronskian-type constant combining K and i at neighbouring orders.

    Evaluates x^(2(nu+1)) [ K_nu(x) i_(nu+1)(x) / (1 - q^(2nu+2))
    + K_(nu+1)(x) i_nu(x) ] at x = q^n for n = 3, 6, 9, 12, 15; the spread
    must stay below ten times the tolerance or ConstancyViolation is raised.
    Returns the mean, or (mean, spread) when asked.
    """
    with params.working(20):
        q = params.q
        nu = params.nu
        up = params.replace(nu=mp.nstr(nu + 1, 50))
        vals = []
        for n in (3, 6, 9, 12, 15):
            x = q ** n
            kn = k_nu(x, params)
            kn1 = k_nu(x, up)
            in0 = i_nu(x, params)
            in1 = i_nu(x, up)
            v = x ** (2 * (nu + 1)) * (kn * in1 / (1 - q ** (2 * nu + 2)) + kn1 * in0)
            vals.append(v)
        mean = mpmath.fsum(vals) / len(vals)
        spread = max(vals) - min(vals)
        if spread > 10 * params.tol * max(mp.one, abs(mean)):
            raise ConstancyViolation(
                f"d_nu spread {mp.nstr(spread, 5)} exceeds 10*tol")
        mean = +mean
        spread = +spread
    if with_spread:
        return mean, spread
    return mean
