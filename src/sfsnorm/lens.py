"""Minimal genus of one-sided surfaces in solid tori and lens spaces.

A coprime pair (2k, q) is the boundary slope 2k[l] + q[m] of a simple
closed curve on the boundary of a solid torus.  For 2k != 0 there is a
unique geometric incompressible one-sided surface bounded by such a curve
(Bredon-Wood, Rubinstein), and its genus N(2k, q) is also the minimal
genus of a closed one-sided surface in the lens space L(2k, q).  The
meridian case is N(0, 1) = 0, the slope bounding a disk.

Two independent evaluation routes are implemented:

* ``n_genus`` expands 2k/q as a continued fraction and applies the
  Bredon-Wood skip sum to the digits;
* ``n_genus_oracle`` runs the one-step recursion N(2k, 1) = k,
  N(2k, q) = N(2(k - Q), q - 2m) + 1 with 2km - Qq = +-1 and 0 < Q < k.

They must agree everywhere; the test suite checks this exhaustively on a
grid.  Everything is exact integer arithmetic.
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


@dataclass(frozen=True)
class CFDigits:
    """Canonical continued fraction [a0, a1, ..., an].

    a0 >= 0, the inner digits are positive, and the last digit exceeds 1
    whenever there is more than one digit, so every positive rational has
    exactly one digit list and prefix comparisons are well defined.
    """

    digits: tuple

    def __post_init__(self):
        ds = tuple(self.digits)
        object.__setattr__(self, "digits", ds)
        if not ds:
            raise ValueError("empty digit list")
        if ds[0] < 0:
            raise ValueError(f"leading digit must be >= 0, got {ds[0]}")
        if any(d < 1 for d in ds[1:]):
            raise ValueError("inner digits must be positive")
        if len(ds) > 1 and ds[-1] < 2:
            raise ValueError("last digit must exceed 1 in canonical form")

    def __len__(self):
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)


def cf_expand(numerator, denominator):
    """Canonical continued fraction digits of numerator/denominator.

    Plain Euclidean division, which already produces the canonical form:
    the final quotient is the penultimate remainder, hence > 1 whenever
    there is more than one digit.
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
    return CFDigits(tuple(digits))


def cf_value(digits):
    """Rebuild the fraction (numerator, denominator) from its digits."""
    ds = tuple(digits)
    n, d = ds[-1], 1
    for a in reversed(ds[:-1]):
        n, d = a * n + d, n
    return n, d


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


def skip_sum(digits):
    """Half the b-sequence sum.  Rejects digit lists with odd total.

    An odd total cannot arise from digits of a normalized even slope, so
    it signals an invariant breach upstream rather than a usage error.
    """
    if not isinstance(digits, CFDigits):
        digits = CFDigits(tuple(digits))
    total = sum(b_sequence(digits))
    if total % 2 != 0:
        raise ValueError(
            f"b-sequence of {list(digits)} has odd sum {total}; "
            "the source fraction is not an even slope")
    return total // 2


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


@lru_cache(maxsize=None)
def _n_normalized(twok, q):
    if twok == 0:
        return 0
    return skip_sum(cf_expand(twok, q))


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


def n_lower_bound_reached(curve, target):
    """True when the digits of ``target`` are a strict prefix of ``curve``'s.

    The skip sum is causal in the digits: the shared prefix contributes
    the same b-values to both slopes and the extra digits of ``curve``
    contribute nonnegatively, so a strict prefix certifies
    N(curve) >= N(target).  A False return proves nothing.
    """
    if normalize_lens(target) != target:
        raise LensCurveError(f"target {target} is not normalized")
    c = normalize_lens(curve)
    if c.twok == 0 or target.twok == 0:
        return False
    cd = cf_expand(c.twok, c.q).digits
    td = cf_expand(target.twok, target.q).digits
    return len(td) < len(cd) and cd[:len(td)] == td
