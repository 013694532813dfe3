"""Certified lower bounds for N along one-parameter slope families.

Sweeping a boundary slope parameter mu produces N-arguments of the form
(A*t + B, C*t + D) in the step count t.  For t large the quotients of the
Euclidean algorithm on such a pair stabilize: the digit expansion of the
normalized slope begins with a fixed prefix, followed by a digit that
grows linearly in t.  Since the skip sum is causal in the digits, the
prefix pins down a lower bound for N that (usually) grows without bound,
which is what lets an outward mu-sweep stop after finitely many steps
without giving up exhaustiveness.

Everything here is exact integer arithmetic on linear forms, which
``slope_pencil`` hands out as ``Lin`` pairs and ``certified_tail`` runs
through Euclid as plain pairs of ints.  Each "eventual" decision (a
floor, a sign, a comparison) also yields the onset step from which it is
valid, so the returned certificate carries a hard threshold t_min, not
an asymptotic promise.  Before t_min, ``lead_floor`` bounds N over a
whole span of steps by the leading digit alone.
"""

from __future__ import annotations

from typing import NamedTuple


class Lin(NamedTuple):
    """The integer linear form a*t + b on t = 0, 1, 2, ..."""

    a: int
    b: int

    def at(self, t):
        return self.a * t + self.b


class TailCertificate(NamedTuple):
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


def _constant_pair_certificate(twok, c, d):
    """Certificate for the pencil (2k, c*t + d) with constant 2k > 0.

    N then depends only on c*t + d mod 2k, which ranges over a single
    residue class; the exact minimum of N over the coprime residues in
    that class is a bound valid from t = 0 on.
    """
    from math import gcd

    from .lens import LensCurve, n_genus

    g = gcd(c, twok)
    best = None
    for r in range(twok):
        if (r - d) % g != 0 or gcd(r, twok) != 1:
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
    valid slope; steps with a common factor are simply not slopes.

    Euclid runs on forms x = (xa, xb), y = (ya, yb) with ya > 0.  Each
    quotient q is the eventual floor of x(t)/y(t), so 0 <= rem(t) and
    rem(t) <= y(t) - 1 for rem = x - q*y and all large t.  Each such form
    p*t + c (p >= 0, and c >= 0 if p = 0) holds from step -(c // p) on,
    and t_min is the largest of these onsets.  From t_min on the digits
    therefore strictly extend ``prefix`` and N is at least ``bound_at``.
    """
    xa, xb = first
    ya, yb = second
    if xa < 0 or (xa == 0 and xb < 0):
        xa, xb, ya, yb = -xa, -xb, -ya, -yb
    if xa == 0:
        if xb == 0:
            return None
        return _constant_pair_certificate(xb, ya, yb)
    # first(t) >= 1.
    t_min = max(0, -((xb - 1) // xa))

    # second mod first: 0 <= r(t) <= first(t) - 1.
    q = ya // xa
    ra, rb = ya - q * xa, yb - q * xb
    if ra == 0 and rb <= 0:
        if rb == 0:
            return None
        ra, rb = xa, rb + xb
    if ra and (t := -(rb // ra)) > t_min:
        t_min = t
    if ra < xa and (t := -((xb - rb - 1) // (xa - ra))) > t_min:
        t_min = t

    # Reflect into 0 < q <= k: replace r by first - r when 2r > first.
    sa, sb = 2 * ra - xa, 2 * rb - xb
    if sa == 0 and sb == 0:
        return None
    if sa > 0 or (sa == 0 and sb > 0):
        ra, rb = xa - ra, xb - rb
    else:
        sa, sb = -sa, -sb
    if sa and (t := -((sb - 1) // sa)) > t_min:
        t_min = t

    # Euclidean digits of (first, r) until the divisor has constant
    # slope, with the b-sequence summed alongside.
    ya, yb = ra, rb
    digits = []
    total = 0
    kept = False
    while ya:
        q = xa // ya
        rema, remb = xa - q * ya, xb - q * yb
        if rema == 0 and remb <= 0:  # x = q*y exactly, or x < q*y for good
            if remb == 0:
                return None
            q, rema, remb = q - 1, ya, remb + yb
        if q < 1:
            return None
        if rema and (t := -(remb // rema)) > t_min:
            t_min = t
        if rema < ya and (t := -((yb - remb - 1) // (ya - rema))) > t_min:
            t_min = t
        digits.append(q)
        if kept and total % 2 == 0:
            kept = False
        else:
            total += q
            kept = True
        xa, xb, ya, yb = ya, yb, rema, remb

    # The next digit is floor(x(t)/c) >= (x(t) - c + 1)//c.  For c = 1
    # the expansion ends exactly there; for c > 1 later digits depend on
    # t mod c and are not stable.  A last digit kept with an even sum
    # makes the skip rule zero the next one.
    c = yb
    if c < 1:
        return None
    skipped = kept and total % 2 == 0
    return TailCertificate(tuple(digits), t_min, total,
                           None if skipped else (xa, xb - c + 1, c))


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
