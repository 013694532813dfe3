"""Certified lower bounds for N along one-parameter slope families.

Sweeping a boundary slope parameter mu produces N-arguments of the form
(A*t + B, C*t + D) in the step count t.  For t large the quotients of the
Euclidean algorithm on such a pair stabilize: the digit expansion of the
normalized slope begins with a fixed prefix, followed by a digit that
grows linearly in t.  Since the skip sum is causal in the digits, the
prefix pins down a lower bound for N that (usually) grows without bound,
which is what lets an outward mu-sweep stop after finitely many steps
without giving up exhaustiveness.

Everything here is exact integer arithmetic on linear forms.  Each
"eventual" decision (a floor, a sign, a comparison) also yields the onset
step from which it is valid, so the returned certificate carries a hard
threshold t_min, not an asymptotic promise.  Before t_min,
``lead_floor`` bounds N over a whole span of steps by the leading digit
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .lens import b_sequence


class Lin(NamedTuple):
    """The integer linear form a*t + b on t = 0, 1, 2, ..."""

    a: int
    b: int

    def at(self, t):
        return self.a * t + self.b


def _neg(f):
    return Lin(-f.a, -f.b)


def _sub(f, g):
    return Lin(f.a - g.a, f.b - g.b)


def _scale(f, c):
    return Lin(f.a * c, f.b * c)


def _onset_nonneg(f):
    """Least T >= 0 with f(t) >= 0 for every t >= T, or None."""
    if f.a > 0:
        return max(0, -(f.b // f.a))
    if f.a == 0 and f.b >= 0:
        return 0
    return None


def _eventual_floor(num, den):
    """floor(num(t)/den(t)) for all large t; den must have positive slope."""
    if num.a % den.a == 0:
        m = num.a // den.a
        return m if num.b - m * den.b >= 0 else m - 1
    return num.a // den.a


@dataclass(frozen=True)
class TailCertificate:
    """Stable digit prefix and lower bound for N along a slope pencil.

    ``prefix`` are the leading digits of the normalized slope for every
    step t >= ``t_min``.  ``base_half`` is the b-sequence sum over the
    prefix.  When the digit following the prefix is kept by the skip rule,
    ``growth`` = (a, b, c) bounds it below by (a*t + b)//c and the bound
    for N grows linearly; when the skip rule zeroes it, only the constant
    prefix bound remains.
    """

    prefix: tuple
    t_min: int
    base_half: int
    growth: tuple | None

    def bound_at(self, t):
        """Certified lower bound for N at every step >= max(t, t_min)."""
        if self.growth is None:
            return (self.base_half + 1) // 2
        a, b, c = self.growth
        digit = max(0, (a * t + b) // c)
        return (self.base_half + digit + 1) // 2


def _constant_pair_certificate(twok, second):
    """Certificate for a pencil whose first entry is the constant 2k > 0.

    N then depends only on second(t) mod 2k, which ranges over a single
    residue class; the exact minimum of N over the coprime residues in
    that class is a bound valid from t = 0 on.
    """
    from math import gcd

    from .lens import LensCurve, n_genus

    g = gcd(second.a, twok)
    best = None
    for r in range(twok):
        if (r - second.b) % g != 0 or gcd(r, twok) != 1:
            continue
        val = n_genus(LensCurve(twok, r))
        best = val if best is None else min(best, val)
    if best is None:
        # No step of the pencil is a coprime slope; nothing to bound.
        return None
    return TailCertificate((), 0, 2 * best, None)


def certified_tail(first, second):
    """Analyze N(first(t), second(t)) for integer t >= 0.

    Returns a TailCertificate, or None when no certificate exists (the
    pencil degenerates; callers then fall back to the hard sweep cap).
    The certificate is sound for every t >= t_min at which the pair is a
    valid slope; steps with a common factor are simply not slopes.  Each
    eventual floor, sign and comparison the digits rest on goes through
    ``need``, which records the step from which that linear form stays
    nonnegative, and t_min is the largest of these onsets.  From t_min
    on every decision therefore holds exactly, so the normalized digits
    strictly extend ``prefix`` and N is at least ``bound_at(t)``.
    """
    thresholds = [0]

    def need(f):
        t = _onset_nonneg(f)
        if t is None:
            return False
        thresholds.append(t)
        return True

    if first.a < 0 or (first.a == 0 and first.b < 0):
        first, second = _neg(first), _neg(second)
    if first.a == 0:
        if first.b == 0:
            return None
        return _constant_pair_certificate(first.b, second)
    if not need(Lin(first.a, first.b - 1)):
        return None

    # second mod first, i.e. one eventual-floor reduction.
    q = _eventual_floor(second, first)
    r = _sub(second, _scale(first, q))
    if not (need(r) and need(_sub(_sub(first, r), Lin(0, 1)))):
        return None
    if r.a == 0 and r.b == 0:
        return None

    # Reflect into 0 < q <= k: replace r by first - r when 2r > first.
    s = _sub(_scale(r, 2), first)
    if s.a > 0 or (s.a == 0 and s.b > 0):
        if not need(_sub(s, Lin(0, 1))):
            return None
        r = _sub(first, r)
    elif s.a == 0 and s.b == 0:
        return None
    else:
        if not need(_sub(_neg(s), Lin(0, 1))):
            return None

    # Euclidean digits of (first, r) until the divisor has constant slope.
    digits = []
    x, y = first, r
    growth = None
    while True:
        if y.a == 0:
            c = y.b
            if c < 1:
                return None
            # The next digit is floor(x(t)/c) >= (x(t) - c + 1)//c.  For
            # c = 1 the expansion ends exactly there; for c > 1 later
            # digits depend on t mod c and are not stable.
            growth = (x.a, x.b - c + 1, c)
            break
        q = _eventual_floor(x, y)
        if q < 1:
            return None
        rem = _sub(x, _scale(y, q))
        if not (need(rem) and need(_sub(_sub(y, rem), Lin(0, 1)))):
            return None
        if rem.a == 0 and rem.b == 0:
            return None
        digits.append(q)
        x, y = y, rem

    bs = b_sequence(digits) if digits else []
    base_half = sum(bs)
    skipped = bool(digits) and bs[-1] == digits[-1] and base_half % 2 == 0
    return TailCertificate(tuple(digits), max(thresholds), base_half,
                           None if skipped else growth)


def lead_floor(first, second, t0, t1):
    """Lower bound on N(first(t), second(t)) over the steps t0..t1.

    The leading digit a0 of the normalized slope (2k, q) is always kept
    by the skip rule, so N >= ceil(a0/2) at every step that is a slope.
    On a single step that is the bound itself; the meridian and a step
    with an odd longitude coefficient get 0.  On a longer span the
    longitude form X = first must keep one strict sign and floor(Y/X),
    Y = second, one value m at both ends.  Then Y/X is monotone, so
    r = Y - m*X stays in [0, X) and u = r/X is monotone; q/X = min(u,
    1 - u) is at most min(max u, 1 - min u), taken at the endpoints,
    which bounds a0 = floor(X/q) below over the whole span.  In every
    other case the bound is 0.
    """
    a, b = first
    c, d = second
    x0, y0 = a * t0 + b, c * t0 + d
    if t0 == t1:
        if x0 == 0 or x0 % 2 != 0:
            return 0
        if x0 < 0:
            x0, y0 = -x0, -y0
        r = y0 % x0
        q = min(r, x0 - r)
        return 0 if q == 0 else (x0 // q + 1) // 2
    x1, y1 = a * t1 + b, c * t1 + d
    if x0 < 0 and x1 < 0:
        x0, x1, y0, y1 = -x0, -x1, -y0, -y1
    elif x0 <= 0 or x1 <= 0:
        return 0
    m = y0 // x0
    if y1 // x1 != m:
        return 0
    r0, r1 = y0 - m * x0, y1 - m * x1
    # max u = hn/hd and 1 - min u = ln/ld, each taken at an endpoint.
    hn, hd = (r0, x0) if r0 * x1 >= r1 * x0 else (r1, x1)
    s0, s1 = x0 - r0, x1 - r1
    ln, ld = (s0, x0) if s0 * x1 >= s1 * x0 else (s1, x1)
    if hn * ld > ln * hd:
        hn, hd = ln, ld
    if hn == 0:
        return 0  # r = 0 throughout: no step is a slope
    return (hd // hn + 1) // 2


def slope_pencil(fiber, lam, mu0, step):
    """N-argument forms for the cap slope of one fiber along a mu-sweep.

    At sweep step t the slope coefficient is mu = mu0 + step*t, and the
    cap slope in the solid torus is
    (mu*alpha - lam*beta, lam*delta - mu*gamma).
    """
    first = Lin(fiber.alpha * step, fiber.alpha * mu0 - lam * fiber.beta)
    second = Lin(-fiber.gamma * step, lam * fiber.delta - fiber.gamma * mu0)
    return first, second
