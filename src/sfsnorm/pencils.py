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
an asymptotic promise.  ``lead_floor`` needs no Euclid: wherever the
first form keeps one sign, the leading digit alone bounds N over a whole
span of steps, or over every step from one on.  ``region_floors`` takes
it once over each region of the whole line of steps, cut where a
pencil's first form changes sign.
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


def certified_tail(first, second):
    """Analyze N(first(t), second(t)) for integer t >= 0.

    Returns a TailCertificate, or None when no certificate exists (the
    pencil degenerates, for example with a constant first form; callers
    then fall back to the hard sweep cap).  The search's pencils come
    from ``slope_pencil``, whose first form has slope alpha*step != 0.
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
    if xa == 0:
        return None
    if xa < 0:
        xa, xb, ya, yb = -xa, -xb, -ya, -yb
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


def lead_floor(first, second, t0, t1=None):
    """Lower bound on N(first(t), second(t)) over the steps t0..t1, over
    every step from t0 on when ``t1`` is None (a tail), or over every step
    up to t1 when ``t0`` is None (a tail of the pencil reflected, t -> -t).

    The leading digit a0 of the normalized slope (2k, q) is always kept
    by the skip rule, so N >= ceil(a0/2) at every step that is a slope,
    and a0 = floor(1/dist(u, Z)) for u = Y/X, X = first, Y = second.
    The longitude form X must keep one strict sign over the range; then
    u is monotone on it, and runs between u(t0) and u(t1), or for a tail
    between u(t0) and its limit c/a (a constant X needs a constant Y).
    For every integer m, dist(u, Z) <= |u - m|, which is largest at an
    end of that range; with m nearest its middle and d the larger end
    distance, a0 >= floor(1/d) throughout.  A single step is a span of
    one step: there d = dist(u, Z), so at a slope the floor is
    ceil(a0/2) itself.  In every other case the bound is 0.
    """
    a, b = first
    c, d = second
    if t0 is None:
        a, c, t0, t1 = -a, -c, -t1, None
    x0 = a * t0 + b
    y0 = c * t0 + d
    if t1 is None:
        if a:
            x1, y1 = a, c
        elif c:
            return 0
        else:
            x1, y1 = x0, y0
    else:
        x1 = a * t1 + b
        y1 = c * t1 + d
    if x0 < 0:
        if x1 >= 0:
            return 0
        x0, y0, x1, y1 = -x0, -y0, -x1, -y1
    elif x0 == 0 or x1 <= 0:
        return 0
    m = (y0 * x1 + y1 * x0 + x0 * x1) // (2 * x0 * x1)
    # d = e/x, the larger of |u - m| at the two ends; e = 0 means u = m
    # throughout, and no step is a slope.
    e0 = abs(y0 - m * x0)
    e1 = abs(y1 - m * x1)
    if e0 * x1 >= e1 * x0:
        return (x0 // e0 + 1) // 2 if e0 else 0
    return (x1 // e1 + 1) // 2


def region_floors(pencils):
    """Cut the whole line of steps t in Z at each pencil's pole and bound
    the sum of the pencils' N over each region.

    A pencil whose first form a*t + b has a != 0 is cut as a sweep
    direction cuts it: at ceil(-b/a) and at floor(-b/a) + 1, so a step
    where the form is zero is a region of its own.  Returns (cuts,
    floors): region r holds the steps cuts[r-1] <= t < cuts[r], the first
    and last unbounded, and floors[r] is the sum over the pencils of
    ``lead_floor`` on it, the first and last regions as tails.  No first
    form changes sign inside a region, so each floor holds at every step
    of its region.
    """
    cuts = sorted({cut for (a, b), _ in pencils if a
                   for cut in (-(b // a), -b // a + 1)}) or [0]
    floors = []
    lo = None
    for hi in cuts + [None]:
        floor = 0
        for first, second in pencils:
            floor += lead_floor(first, second, lo,
                                None if hi is None else hi - 1)
        floors.append(floor)
        lo = hi
    return cuts, floors


def slope_pencil(fiber, lam, mu0, step):
    """N-argument forms for the cap slope of one fiber along a mu-sweep.

    At sweep step t the slope coefficient is mu = mu0 + step*t, and the
    cap slope in the solid torus is ``fiber.cap_slope(lam, mu)``.  That
    map is linear, so the forms are its value at mu0 plus t times its
    value at (0, step).
    """
    first, second = fiber.cap_slope(lam, mu0)
    first_step, second_step = fiber.cap_slope(0, step)
    return Lin(first_step, first), Lin(second_step, second)
