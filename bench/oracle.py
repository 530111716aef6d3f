"""Reference values computed without calling qbft.

Every check the benchmark makes compares a library output with a value from
this module or with a closed form.  Nothing here imports qbft: the q-Bessel
series, the q-Pochhammer products, the normalisation constant and the
lattice sums are written out again from their definitions and evaluated at
about twice the digits the library was asked for, so a defect in the
library's window rules, precision choices or caches cannot hide in its own
reference.
"""

import math

import mpmath
from mpmath import mp, mpf

GUARD = 20
LOG10_2 = math.log10(2)


def qpoch(a, q):
    """(a; q)_infinity at the working precision; truncated once the
    neglected factors move the product by less than one unit in the last
    place."""
    eps = mpf(10) ** (-mp.dps - 5)
    prod = mp.one
    term = a
    while abs(term) > eps * (1 - q):
        prod *= 1 - term
        term *= q
    return prod


def _jsum(x2, q, nu):
    """Alternating j series at the working precision: (sum, largest term)."""
    q2 = q * q
    a = q ** (2 * nu + 2)
    stop_ratio = (1 - a) * (1 - q2) / 2
    eps = mpf(10) ** (-mp.dps - 5)
    term = mp.one
    total = mp.zero
    biggest = mp.one
    q2n = mp.one
    aq = a / q2
    while True:
        total += term
        if abs(term) > biggest:
            biggest = abs(term)
        q2n *= q2
        aq *= q2
        term *= -q2n * x2 / ((1 - aq) * (1 - q2n))
        # once q^(2n) x^2 is this small every later ratio is below 1/2, so
        # the neglected tail is smaller than the term just computed
        if q2n * x2 < stop_ratio and abs(term) < eps * biggest:
            return total, biggest


def j_series(x2_of, q_str, nu_str, digits):
    """j_nu(x; q^2) to `digits` significant digits.

    x2_of() returns x^2 at the working precision, so exact inputs such as
    lattice points q^s keep every digit however high the precision climbs.
    """
    extra = GUARD
    while True:
        with mp.workdps(digits + extra):
            total, biggest = _jsum(x2_of(), mpf(q_str), mpf(nu_str))
            if total != 0:
                lost = float(mp.log10(biggest / abs(total)))
                if lost + GUARD // 2 <= extra:
                    return +total
            else:
                lost = extra
        extra = int(math.ceil(lost)) + 2 * GUARD
        if extra > 50000:
            raise ArithmeticError("j series cancellation beyond 50000 digits")


def j_at(x_str, q_str, nu_str, digits):
    """j_nu at a decimal point, for `eval jnu`."""
    return j_series(lambda: mpf(x_str) ** 2, q_str, nu_str, digits)


def gauss_h(x2, c_str, q_str, nu_str):
    """Gauss kernel h_c at the point with square x2 (closed product form)."""
    q = mpf(q_str)
    nu = mpf(nu_str)
    c2 = mpf(c_str) ** 2
    q2 = q * q
    num = qpoch(-q ** (2 * nu + 2) * c2, q2) * qpoch(-q ** (-2 * nu) / c2, q2)
    den = qpoch(-c2, q2) * qpoch(-q2 / c2, q2)
    return num / den / qpoch(-q ** (-2 * nu) * x2 / c2, q2)


def gauss_spectrum(l, c_str, q_str):
    """Closed-form transform of h_c at t = q^l: 1 / (-c^2 t^2; q^2)_inf."""
    q = mpf(q_str)
    return 1 / qpoch(-mpf(c_str) ** 2 * q ** (2 * l), q * q)


def lattice_sum(term, digits, start=0):
    """Sum term(l, prec) over all integers l to `digits` correct digits;
    returns (sum, largest term).

    Sweeps away from `start` in both directions until six terms in a row
    sit below the precision floor of the largest term, then checks the
    cancellation: if the sum lost so many digits that fewer than `digits`
    remain, the sweep is redone at a higher precision.
    """
    prec = digits + GUARD
    while True:
        with mp.workdps(prec):
            floor = mpf(10) ** (-prec)
            terms = []
            biggest = mp.zero
            for step in (1, -1):
                l = start if step == 1 else start - 1
                small = 0
                while small < 6:
                    t = term(l, prec)
                    terms.append(t)
                    if abs(t) > biggest:
                        biggest = abs(t)
                    small = small + 1 if abs(t) <= floor * biggest else 0
                    l += step
            total = mpmath.fsum(terms)
            if total == 0:
                return total, biggest
            lost = float(mp.log10(biggest / abs(total)))
            if prec - lost >= digits + GUARD // 2:
                return +total, biggest
        prec = digits + int(math.ceil(lost)) + 2 * GUARD


class Lattice:
    """Reference calculus for one (q, nu) pair, memoising j on the lattice.

    `digits` is the accuracy asked of every returned value; callers pass
    about twice the library's precision.
    """

    def __init__(self, q_str, nu_str, digits):
        self.q_str = q_str
        self.nu_str = nu_str
        self.digits = digits
        self._j = {}
        self._c1q = {}
        self._weights = {}

    def j(self, s, prec):
        """j_nu(q^s; q^2) with at least `prec` correct digits."""
        hit = self._j.get(s)
        if hit is None or hit[0] < prec:
            q_str = self.q_str
            hit = (prec, j_series(lambda: mpf(q_str) ** (2 * s),
                                  q_str, self.nu_str, prec))
            self._j[s] = hit
        return hit[1]

    def c1q(self, prec):
        """c_{q,nu} (1 - q) = (q^(2nu+2); q^2)_inf / (q^2; q^2)_inf."""
        if prec not in self._c1q:
            with mp.workdps(prec + 10):
                q = mpf(self.q_str)
                nu = mpf(self.nu_str)
                self._c1q[prec] = qpoch(q ** (2 * nu + 2), q * q) / qpoch(q * q, q * q)
        return self._c1q[prec]

    def weight(self, n):
        """q^(n(2nu+2)) at the working precision."""
        key = (n, mp.dps)
        if key not in self._weights:
            self._weights[key] = mpf(self.q_str) ** (n * (2 * mpf(self.nu_str) + 2))
        return self._weights[key]

    def log10_envelope(self, s):
        """A bound on log10 |j(q^s)|, used only to skip terms that cannot
        reach the precision floor.  Sampled at q in {0.5, 0.6, 0.7}, nu in
        {-0.5, 0, 0.5, 1}, s >= -45, the values stay within 0.9 of the
        quadratic decay term; the constant 10 leaves nine digits spare."""
        if s >= 0:
            return 10.0
        nu = float(self.nu_str)
        return 10.0 - (s * s - (2 * nu + 1) * s) * -math.log10(float(self.q_str))

    def lorentz(self, k, a_str):
        """g_a at x = q^k: the transform of 1/(1+t^2/a^2)."""
        def term(l, prec):
            return (self.weight(l) * self.j(k + l, prec)
                    / (1 + mpf(self.q_str) ** (2 * l) / mpf(a_str) ** 2))
        total, _ = lattice_sum(term, self.digits, start=-k if k < 0 else 0)
        with mp.workdps(self.digits + GUARD):
            return self.c1q(self.digits + GUARD) * total

    def triple(self, kx, ky, kz):
        """Triple-product kernel D(q^kx, q^ky, q^kz) and the size of the
        largest term of its defining sum, on the same scale."""
        def term(l, prec):
            return (self.weight(l) * self.j(kx + l, prec) * self.j(ky + l, prec)
                    * self.j(kz + l, prec))
        total, biggest = lattice_sum(term, self.digits, start=-min(kx, ky, kz, 0))
        with mp.workdps(self.digits + GUARD):
            c1q = self.c1q(self.digits + GUARD)
            norm = c1q * c1q / (1 - mpf(self.q_str))
            return norm * total, norm * biggest

    def spectrum(self, n_min, values):
        """The transform of window samples (zero outside the window) as a
        function l -> value at t = q^l, memoised per precision."""
        memo = {}
        def at(l, prec):
            key = (l, prec)
            if key not in memo:
                with mp.workdps(prec + GUARD):
                    terms = [(n_min + i, self.weight(n_min + i) * v)
                             for i, v in enumerate(values) if v != 0]
                    est = [mp.mag(w) * LOG10_2 + self.log10_envelope(n + l)
                           for n, w in terms]
                    cut = max(est, default=0.0) - prec - 2 * GUARD
                    acc = mpmath.fsum(w * self.j(n + l, prec + GUARD)
                                      for (n, w), e in zip(terms, est) if e > cut)
                    memo[key] = self.c1q(prec + GUARD) * acc
            return memo[key]
        return at

    def synthesize(self, ks, multiplier):
        """Transform of a spectrum l -> multiplier(l, prec), read at every
        q^k for k in ks, to `digits` digits of the largest value.

        One sweep over l serves all points: it stops where six rows in a row
        are below the precision floor of the largest term, and is redone at
        a higher precision if cancellation ate into the target digits.
        """
        prec = self.digits + GUARD
        while True:
            with mp.workdps(prec):
                floor = mpf(10) ** (-prec)
                acc = [mp.zero] * len(ks)
                biggest = mp.zero
                for step in (1, -1):
                    l = 0 if step == 1 else -1
                    small = 0
                    while small < 6:
                        m = self.weight(l) * multiplier(l, prec)
                        log_m = mp.mag(m) * LOG10_2 if m else -math.inf
                        log_floor = (mp.mag(biggest) * LOG10_2 - prec - GUARD
                                     if biggest else -math.inf)
                        row = mp.zero
                        for i, k in enumerate(ks):
                            if log_m + self.log10_envelope(k + l) < log_floor:
                                continue
                            t = m * self.j(k + l, prec)
                            acc[i] += t
                            if abs(t) > row:
                                row = abs(t)
                        if row > biggest:
                            biggest = row
                        small = small + 1 if row <= floor * biggest else 0
                        l += step
                top = max(abs(a) for a in acc)
                lost = float(mp.log10(biggest / top)) if top else prec
                if prec - lost >= self.digits + GUARD // 2:
                    c1q = self.c1q(prec)
                    return [c1q * a for a in acc]
            prec = self.digits + int(math.ceil(lost)) + 2 * GUARD

    def mass(self, n_min, values):
        """Weighted mass c (1-q) sum q^(n(2nu+2)) K(q^n) of window samples."""
        with mp.workdps(self.digits + GUARD):
            acc = mpmath.fsum(self.weight(n_min + i) * v
                              for i, v in enumerate(values))
            return self.c1q(self.digits + GUARD) * acc

    def d_nu(self):
        """The Wronskian-type constant, 1 / (c_{q,nu} (1 - q))."""
        with mp.workdps(self.digits + GUARD):
            return 1 / self.c1q(self.digits + GUARD)


def rel_error(got, want):
    """|got - want| / |want| at the working precision."""
    return abs(got - want) / abs(want)


def sup_rel_error(got, want):
    """max |got - want| / max |want| over paired samples."""
    scale = max(abs(w) for w in want)
    return max(abs(g - w) for g, w in zip(got, want)) / scale


def digits_of(err):
    """-log10 of a relative error; an exact match counts as 1000 digits."""
    if err == 0:
        return 1000.0
    with mp.workdps(30):
        return float(-mp.log10(err))
