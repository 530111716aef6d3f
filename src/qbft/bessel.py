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
remain an independent oracle for the rows.
"""

import functools
import math

import mpmath
from mpmath import mp, mpf, mpmathify

from .core import (
    DomainError, Overflow, PrecisionExhausted, ConstancyViolation, WindowError,
    QParams, constants, lattice_exponent, parse_number,
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


@functools.lru_cache(maxsize=256)
def _q_nu(q_str, nu_str, prec):
    """q, nu and the weight exponent 2 nu + 2 at prec bits, parsed once per
    precision."""
    with mp.workprec(prec):
        q = mpmathify(q_str)
        nu = mpmathify(nu_str)
        return q, nu, 2 * nu + 2

def _jnu_series(x2, q_str, nu_str, dps):
    """One ladder rung: the alternating series at fixed working precision."""
    with mp.workdps(dps):
        term = mp.one
        total = mp.zero
        max_term = mp.one
        floor = mpf(10) ** (-dps - 3)
        n = 0
        below = 0
        while below < 40:
            total += term
            at = abs(term)
            if at > max_term:
                max_term = at
            num, den = _term_ratio(q_str, nu_str, n, mp.prec)
            term *= -num * x2 / den
            n += 1
            scale = max_term if max_term > abs(total) else abs(total)
            below = below + 1 if abs(term) < floor * scale else 0
        return BesselEval(+total, n, +max_term, dps)

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
        ev = _jnu_series(x2, params.q_str, params.nu_str, rung + 10)
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
        x2 = _q_nu(q_str, nu_str, mp.prec)[0] ** (2 * s)
    ev = _jnu_series(x2, q_str, nu_str, rung)
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
    return tuple(row)

def j_nu_lattice_row(s_lo, s_hi, params, digits=None):
    """Certified j_nu(q^s; q^2) for the lattice exponents s_lo..s_hi, as a tuple.

    The row comes from the three-term recurrence (see _sweep), normalized by
    the one series value j_nu_lattice at the anchor s = 0 clamped into the
    row.  A second sweep from twice the depth at ten more digits certifies
    it: an entry where the two differ by more than 10^-(digits+5) relative
    falls back to j_nu_lattice.  Values keep the sweep's precision.  Whole
    rows are memoized in a bounded memo of their own; j_nu_lattice's cache
    only ever holds the anchor and the fallbacks.
    """
    if not (isinstance(s_lo, int) and isinstance(s_hi, int)):
        raise DomainError("lattice evaluation needs integer exponents")
    if s_lo > s_hi:
        raise DomainError(f"empty lattice row [{s_lo}, {s_hi}]")
    return _certified_row(s_lo, s_hi, params, digits or params.precision_digits)

def j_nu_lattice_row_floored(s_lo, s_hi, params, digits=None):
    """j_nu_lattice_row, with exact zeros where the decay envelope certifies
    |j_nu(q^s)| below the precision floor 10^-(precision_digits + 50)."""
    first = s_lo
    while first <= s_hi and decay_bound_log10(first, params) < -(params.precision_digits + 50):
        first += 1
    zeros = (mp.zero,) * (first - s_lo)
    if first > s_hi:
        return zeros
    return zeros + j_nu_lattice_row(first, s_hi, params, digits)

def i_nu(x, params):
    """Modified companion series: all terms positive, no cancellation.

    Its term ratio is j_nu's without the sign, from the same memo.  Order
    nu + 1 is i_nu(x, params.replace(nu=...)).
    """
    with params.working(20):
        xv = parse_number(x, "x")
        if xv < 0:
            raise DomainError("i_nu is evaluated for x >= 0")
        x2 = xv * xv
        term = mp.one
        total = mp.zero
        n = 0
        below = 0
        floor = mpf(10) ** (-mp.dps - 3)
        while below < 10:
            total += term
            num, den = _term_ratio(params.q_str, params.nu_str, n, mp.prec)
            term *= num * x2 / den
            n += 1
            below = below + 1 if term < floor * total else 0
        if mp.isinf(total):
            raise Overflow("i_nu overflowed the representable range")
        return +total


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
"""Most entries each weight memo (plain, Lorentz, the series' term ratios) keeps."""

# Each memo below computes its entry at the caller's working precision,
# which callers pass as prec, so an entry has the bits of a fresh evaluation.

@functools.lru_cache(maxsize=WEIGHT_TABLE_CAP)
def _weight(q_str, nu_str, l, prec):
    q, _, e = _q_nu(q_str, nu_str, prec)
    return q ** (mpf(l) * e)

@functools.lru_cache(maxsize=WEIGHT_TABLE_CAP)
def _lorentz_weight(q_str, nu_str, a_raw, l, prec):
    q, _, e = _q_nu(q_str, nu_str, prec)
    a = mp.make_mpf(a_raw)
    return q ** (mpf(l) * e) / (1 + q ** (2 * l) / (a * a))

@functools.lru_cache(maxsize=WEIGHT_TABLE_CAP)
def _term_ratio(q_str, nu_str, n, prec):
    """Term n+1 over term n of i_nu's series is num x^2 / den, and of
    j_nu's -num x^2 / den; returns (num, den)."""
    q, nu, _ = _q_nu(q_str, nu_str, prec)
    q2 = q * q
    return q2 ** (n + 1), (1 - q ** (2 * nu + 2 + 2 * n)) * (1 - q2 ** (n + 1))

def lattice_weights(params, lo, hi):
    """The lattice weights q ** (mpf(l) * (2 * nu + 2)) for l = lo..hi at
    the current working precision, memoized per entry."""
    q_str, nu_str, prec = params.q_str, params.nu_str, mp.prec
    return [_weight(q_str, nu_str, l, prec) for l in range(lo, hi + 1)]

def _lorentz_weights(params, a, lo, hi):
    """g_a's weights q^(l(2nu+2)) / (1 + q^(2l)/a^2) for l = lo..hi at the
    current precision; a is an mpf at that precision."""
    q_str, nu_str, a_raw, prec = params.q_str, params.nu_str, a._mpf_, mp.prec
    return [_lorentz_weight(q_str, nu_str, a_raw, l, prec) for l in range(lo, hi + 1)]

def _quadrature(ks, est, start, dps, weights, power, params):
    """c^power (1-q) sum_l w(l) prod_(k in ks) j(q^(k+l)) at dps, over
    quadrature_range(ks, est, start); weights(l_lo, l_hi) gives the w(l).

    Every column but the last is multiplied in, rounded to dps; the last
    enters one exact dot product, so the sum is rounded once.

    Before the j row is computed, a dps above j_nu's top rung (8 x digits)
    raises PrecisionExhausted, and a row longer than WEIGHT_TABLE_CAP raises
    WindowError: its weights would not fit in their memo.
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
    row = j_nu_lattice_row(lo, hi, params, dps)
    with mp.workdps(dps):
        c = constants(params, dps).c_q_nu
        terms = weights(l_lo, l_hi)
        for k in ks[:-1]:
            terms = [t * j for t, j in zip(terms, row[k + l_lo - lo:])]
        total = mpmath.fdot(terms, row[ks[-1] + l_lo - lo:])
        # not c ** power: for power 1 that rounds c to dps before the product
        scale = c if power == 1 else c * c
        return +(scale * (1 - params.q) * total)

def g_a_lattice(k, a, params):
    """g_a(q^k) for integer k: c (1-q) sum_l q^(l(2nu+2)) j(q^(k+l)) / (1 + q^(2l)/a^2).

    Summed over quadrature_range; for k > 0 the head starts beyond j's
    oscillatory region.
    """
    if not isinstance(k, int):
        raise DomainError("lattice evaluation needs an integer exponent")
    lq = params.log10_inv_q
    nu = params.nu_float
    with mp.workdps(40):
        av = parse_number(a, "a")
        if av <= 0:
            raise DomainError("scale a must be positive")
        shift = int(mp.nint(mp.log(av) / mp.log(params.q)))
    m_eff = max(0, -(k + shift))
    est = envelope_scale(m_eff, params)
    max_weight = (m_eff * (2 * nu + 2)) * lq if m_eff > 0 else 0.0
    digits = params.precision_digits
    dps = int(digits + est + max_weight + 30)
    start = -k - math.ceil(math.sqrt((digits + est) / lq)) - 6 if k > 0 else -4
    def weights(l_lo, l_hi):
        return _lorentz_weights(params, parse_number(a, "a"), l_lo, l_hi)
    return _quadrature((k,), est, start, dps, weights, 1, params)

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
    return _quadrature(ks, est, min(-4, -min(ks)), dps,
                       functools.partial(lattice_weights, params), 2, params)

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

def d_nu(params, probes=(3, 6, 9, 12, 15), with_spread=False):
    """Wronskian-type constant combining K and i at neighbouring orders.

    Evaluates x^(2(nu+1)) [ K_nu(x) i_(nu+1)(x) / (1 - q^(2nu+2))
    + K_(nu+1)(x) i_nu(x) ] at several interior lattice points; the spread
    must stay below ten times the tolerance or ConstancyViolation is raised.
    Returns the mean, or (mean, spread) when asked.
    """
    with params.working(20):
        q = params.q
        nu = params.nu
        up = params.replace(nu=mp.nstr(nu + 1, 50))
        vals = []
        for n in probes:
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
