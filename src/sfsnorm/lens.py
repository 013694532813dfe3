"""Minimal genus of one-sided surfaces in solid tori and lens spaces.

A coprime pair (2k, q) is the boundary slope 2k[l] + q[m] of a simple
closed curve on the boundary of a solid torus.  For 2k != 0 there is a
unique geometric incompressible one-sided surface bounded by such a curve
(Bredon-Wood, Rubinstein), and its genus N(2k, q) is also the minimal
genus of a closed one-sided surface in the lens space L(2k, q).  The
meridian case is N(0, 1) = 0, the slope bounding a disk.

Two independent evaluation routes are implemented:

* ``n_genus`` runs Euclid on 2k/q and the Bredon-Wood skip sum on its
  continued fraction digits in one integer loop;
* ``n_genus_oracle`` runs the one-step recursion N(2k, 1) = k,
  N(2k, q) = N(2(k - Q), q - 2m) + 1 with 2km - Qq = +-1 and 0 < Q < k.

They must agree everywhere; the test suite checks this exhaustively on a
grid.  ``cf_expand`` and ``b_sequence`` spell the first route out digit
by digit for ``n-genus --explain``.  Everything is exact integer
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import LensCurveError


@dataclass(frozen=True)
class LensCurve:
    """Slope ``twok``[l] + ``q``[m] on a solid torus boundary.

    The longitude coefficient must be even and coprime to the meridian
    coefficient, which forces q odd unless twok = 0 (and then q = +-1).
    """

    twok: int
    q: int

    def __post_init__(self):
        if self.twok % 2 != 0:
            raise LensCurveError(
                f"longitude coefficient must be even, got {self.twok}")
        if gcd(self.twok, self.q) != 1:
            raise LensCurveError(
                f"slope ({self.twok}, {self.q}) is not coprime")


def cf_expand(numerator, denominator):
    """Canonical continued fraction digits of numerator/denominator.

    The tuple (a0, a1, ..., an) has a0 >= 0, positive inner digits and a
    last digit above 1 whenever there is more than one, so every positive
    rational has exactly one digit tuple and prefix comparisons are well
    defined.  Plain Euclidean division already produces this form: the
    final quotient is the penultimate remainder, hence > 1 whenever there
    is more than one digit.
    """
    if numerator < 1 or denominator < 1:
        raise ValueError(
            f"fraction must be positive, got {numerator}/{denominator}")
    if gcd(numerator, denominator) != 1:
        raise ValueError(
            f"fraction {numerator}/{denominator} is not in lowest terms")
    digits = []
    n, d = numerator, denominator
    while d:
        a, r = divmod(n, d)
        digits.append(a)
        n, d = d, r
    return tuple(digits)


def b_sequence(digits):
    """The Bredon-Wood summation sequence b0, ..., bn.

    b0 = a0, and a digit is skipped (bi = 0) exactly when the previous
    digit was kept in full and the running sum so far is even.
    """
    ds = tuple(digits)
    bs = []
    total = 0
    for i, a in enumerate(ds):
        if i > 0 and bs[i - 1] == ds[i - 1] and total % 2 == 0:
            b = 0
        else:
            b = a
        bs.append(b)
        total += b
    return bs


def normalize_lens(curve):
    """Unique representative of a slope under lens space equivalences.

    N is invariant under (2k, q) -> (-2k, -q), q -> q + 2k and
    q -> 2k - q, so every nonzero slope reduces to 2k > 0 with
    0 < q <= k (q = k only for the slope (2, 1)); the meridian
    normalizes to (0, 1).
    """
    return LensCurve(*_normal_pair(curve))


def _normal_pair(curve):
    # (2k, q) of normalize_lens(curve), without building the curve.
    if not isinstance(curve, LensCurve):
        raise LensCurveError(f"expected a LensCurve, got {curve!r}")
    twok, q = curve.twok, curve.q
    if twok == 0:
        return 0, 1
    if twok < 0:
        twok, q = -twok, -q
    q %= twok
    if q > twok // 2:
        q = twok - q
    return twok, q


def normalize_lens_steps(curve):
    """Like ``normalize_lens`` but also reports the rules applied, as the
    text ``n-genus --explain`` prints."""
    if not isinstance(curve, LensCurve):
        raise LensCurveError(f"expected a LensCurve, got {curve!r}")
    twok, q = curve.twok, curve.q
    steps = []
    if twok == 0:
        if q != 1:
            steps.append(f"meridian: ({twok}, {q}) -> (0, 1)")
        return LensCurve(0, 1), steps
    if twok < 0:
        twok, q = -twok, -q
        steps.append(f"negate both: -> ({twok}, {q})")
    r = q % twok
    if r != q:
        q = r
        steps.append(f"reduce q mod {twok}: -> ({twok}, {q})")
    if q > twok // 2:
        q = twok - q
        steps.append(f"reflect q -> {twok} - q: -> ({twok}, {q})")
    return LensCurve(twok, q), steps


@lru_cache(maxsize=1 << 16)  # bounded: a long scan meets ever new slopes
def _n_normalized(twok, q):
    # Half the b-sequence sum of cf_expand(twok, q), in one loop: a digit
    # is skipped when the one before was kept and the running sum is even.
    if twok == 0:
        return 0
    if twok < 1 or q < 1:
        raise ValueError(f"fraction must be positive, got {twok}/{q}")
    n, d = twok, q
    total = 0
    kept = False
    while d:
        if kept and total % 2 == 0:
            kept = False
        else:
            total += n // d
            kept = True
        n, d = d, n % d
    if n != 1:  # n is now gcd(twok, q)
        raise ValueError(f"fraction {twok}/{q} is not in lowest terms")
    if total % 2 != 0:  # an invariant breach: 2k/q is not an even slope
        raise ValueError(f"b-sequence of {twok}/{q} has odd sum {total}")
    return total // 2


def n_genus(curve):
    """Genus N of the incompressible one-sided surface with this slope.

    Continued fraction route: normalize, expand 2k/q, skip sum.
    """
    return _n_normalized(*_normal_pair(curve))


def n_genus_oracle(curve):
    """N computed by the one-step recursion, independent of cf_expand.

    Each step finds 0 < Q < k and m with 2km - Qq = +-1 (taking the +1
    solution when it is the one in range), replaces the slope by
    (2(k - Q), q - 2m), renormalizes, and adds one to the genus.
    """
    c = normalize_lens(curve)
    genus = 0
    while True:
        if c.twok == 0:
            return genus
        k, q = c.twok // 2, c.q
        if q == 1:
            return genus + k
        qinv = pow(q, -1, c.twok)
        # Qq = -1 mod 2k solves the +1 equation, Qq = +1 the -1 one;
        # the two candidates sum to 2k, so exactly one lies in (0, k).
        for quo, sign in (((c.twok - qinv) % c.twok, 1), (qinv, -1)):
            if 0 < quo < k:
                m = (sign + quo * q) // c.twok
                c = normalize_lens(LensCurve(2 * (k - quo), q - 2 * m))
                genus += 1
                break
        else:
            raise LensCurveError(
                f"no recursion step in range for ({c.twok}, {c.q})")
