"""Per-class minimal genus and Z/2-Thurston norm of a small Seifert space.

Every geometric incompressible one-sided surface in a Seifert fibered
space is isotopic to a pseudo-vertical or a pseudo-horizontal surface
(Frohman), so the norm of a class is found by minimizing genus over both
families.  The pseudo-vertical side is finite.  The pseudo-horizontal
side is enumerated by the shape of the slope multiplicities l_1, l_2,
l_3 relative to the covering degree:

* three distinct values: the two smaller slopes are forced to equal
  their fiber pairs and the third is solved from the zero-sum identity,
  a finite list (``enumerate_case4``);
* one strictly smaller value: that slope is its fiber pair, the other
  two share the degree p*a_i, and one free coefficient sweeps
  (``enumerate_case3``);
* all equal: the degree is odd, possible only when every multiplicity
  is odd, and two coefficients sweep (``enumerate_case1``);
* two smaller equal values cannot occur (the zero-sum identity forces
  the reduced denominator of the paired slopes below the largest one),
  which is asserted on every emitted candidate.

The sweeps are infinite a priori.  Termination is by branch and bound,
and every skip and stop in this module compares a lower bound on what
it would leave out against one bound per class (``_SearchState.need``):
the least genus already offered to the class, of either kind, or two
less once a pseudo-horizontal surface reaches it.  Every surface of one
class of one presentation has the same genus parity, because
chi(F) = <w^3, [M]> (mod 2) depends on the class of F alone, so below
the best genus the next that can occur is two less.  A further tie
with a horizontal best changes no output: not the minimum, not the
witness (the first surface offered at the best genus), not the kinds
that reach it and neither per-kind minimum.  Until a horizontal
surface reaches the best, ties are priced, so one that ties a vertical
surface is recorded.  A candidate is left out only when its lower bound
exceeds the bound, so no output moves with the pruning, but a check
that over-claimed N by one could drop a minimum.  For the same reason a
sweep or loop that is skipped, or that stops, on the bound owes its
class no capped mark: what it leaves out costs more than the bound, so
by parity it is no cheaper than the best, and at the best it would only
tie a horizontal surface already found.
Every outward coefficient sweep, the one of case 3 and both of case 1,
runs through ``_sweep``.  Each of its legs is a cap slope (2k, q) moving
with the swept coefficient, and its leading continued-fraction digit a0
gives N >= ceil(a0/2).  Wherever 2k keeps one strict sign, that floor
holds over a whole span of steps, or over every step from one on
(``pencils.lead_floor``).  So a sweep first cuts the whole line of its
coefficient at each leg's pole, where 2k changes sign, and bounds each
region once (``pencils.region_floors``).  A region is dead when its base
plus floors exceeds the bound, and when every region is, the sweep ends
before it builds a direction: on S2((2,-1),(3,1),(800,1)) each of the
99 case-3 degrees ends there.  Otherwise each direction stacks the spans
of its window in live regions, each carrying its region's base plus
floors, which hold on every part that halving leaves; a span is
dropped when that exceeds the bound as read when it is popped.  A
direction with a live span first builds each leg's slope-pencil
certificate (exact Euclid on linear forms, see ``pencils``), whose N
bound holds at every step from the leg's own threshold t_min on.  It
bisects its spans left-first and stops at the first where its base
plus the bounds of the legs past their t_min, which hold at every
later step, exceed the bound.  The last span of a direction is its
tail, every step past the window, carrying the least bound of the
regions it meets: unless that, the legs' lead floors from the
window's end on or their certificates exclude it, it marks the class
non-exhaustive, so nothing is silently dropped.  A single step that
survives is checked once more before it is priced: each leg's cap
slope at that step is two ints, whose exact N ``slope_genus`` reads
from a cache, and the step is priced only when its base plus those N
is at most the bound.
In case 3 and the case-1 inner sweep that sum is the candidate's exact
genus (case 3's pinned fiber caps with the meridian, N = 0); in the
case-1 outer sweep it is the lower bound its inner sweep is pruned by.
Case 4 has no sweep but prunes on the same exact genus: with two fibers
pinned to their pairs, each candidate's existence and genus are a few
integer tests and one ``slope_genus``, and only a candidate that exists
within the bound is priced.
The capped-cover part of the genus prunes the degree loops.  A case-3
candidate of degree p*a_i costs p*(a_i - 1) + N_j + N_k, and
N_j + N_k >= 1: two meridian caps would give the slopes b_j/a_j and
b_k/a_k, and the zero-sum identity would then make the Euler sum zero.
So the loop stops once p*(a_i - 1) alone reaches the bound.
Case 1 bounds its caps the same way: N >= 1 for every cap slope but the
meridian, which the slope (lam, m_j) gives only when lam = a_j.  That
floor of one per off-meridian cap prunes the case-1 degree loop, the
outer sweep and each inner sweep.
``compute_norms`` builds one ``_SearchState`` per presentation, which
resolves the budget once and is all that each enumerator reads.  It
offers the pseudo-vertical surfaces first, then runs case 4, case 1 and
case 3, in that order.  On an all-odd presentation
the low degrees of case 1 usually hold the minimum, and case 3's degree
loop then mostly stops at p = 2: on S2((19,-16),(19,-1),(25,-23)) the
best genus is 15 after case 1 but 61 after case 3.  On the all-odd
ladder S2((a,2),(a+2,5),(a-2,-3)) the search prices 4 candidates and
makes 3,399 search ``gcd`` calls at a = 61 and 77,801 at a = 121, where
a scan executes 2.3 and 31.4 million bytecodes (``tools/opcount.py``);
a = 121 takes about 0.3 s on a 2-CPU Linux host under Python 3.11.
``_sweep`` is a generator of the coefficients that survive its floors
and the exact check.  Each enumerator, a plain call, prices every one
into the search state before the sweep's next step, so the bounds stay
current, and returns the list of candidates it priced.  Pricing is one
existence check, one integer genus count and the class read off the
interned homology structure, and no candidate fails the check: each
condition is met where a loop is set up, not re-tested on its steps.
l_i = a_i, m_i = b_i (mod 2) hold by case 3's degree parities, case
1's odd degrees and a sweep center of matching parity stepped by 2, so
every cap slope's 2k is even; the zero sum by solving for the last
coefficient; the lcm rule by each case's shape.  So ``_price`` raises
``InternalInvariantError`` on a rejected candidate rather than drop it
behind an exhaustive flag.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from itertools import count
from math import gcd, inf

from ._value import Value, _set
from .errors import (
    InternalInvariantError,
    NoSurfaceError,
    PresentationError,
    SfsNormError,
)
from .lens import LensCurve, slope_genus
from .notation import parse_presentation
from .pencils import certified_tail, lead_floor, region_floors, slope_pencil
from .report import ClassNorm, NormReport
from .scan import class_rows, instances
from .seifert import HomologyCase, SeifertPresentation, homology_structure
from .surfaces import (
    HORIZONTAL,
    PHParams,
    horizontal_report,
    ph_exists,  # noqa: F401 - unused here; perfbench/tracer.py patches it
    vertical_surfaces,
)

log = logging.getLogger(__name__)


class SearchBudget(Value):
    """Explicit constants behind the 'sufficiently large' cutoffs.

    ``mu_window`` is the half-width of every coefficient sweep and
    ``lambda_cap`` bounds the covering degree when no candidate has
    bounded it yet; None leaves each to the default that ``_SearchState``
    works out from the presentation.  A sweep that reaches either cap
    marks its class non-exhaustive.
    """

    __slots__ = _fields = ("mu_window", "lambda_cap")

    def __init__(self, mu_window=None, lambda_cap=None):
        for name, value in (("mu_window", mu_window),
                            ("lambda_cap", lambda_cap)):
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise PresentationError(
                    f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise PresentationError(f"{name} must be positive")
        _set(self, "mu_window", mu_window)
        _set(self, "lambda_cap", lambda_cap)


def _checked(budget):
    """``budget``, which must be None or a ``SearchBudget``."""
    if budget is not None and not isinstance(budget, SearchBudget):
        raise PresentationError(f"not a search budget: {budget!r}")
    return budget


class _SearchState:
    """The whole input of one search of ``presentation``, and its results
    per class.  The enumerators and ``_price`` read everything from it.

    It holds the homology ``structure`` the enumerators loop over, and
    it resolves ``budget`` once:
    ``window`` is its ``mu_window`` (default 64 * max(alpha)) and
    ``degree_cap`` its ``lambda_cap`` (default 8 * sum(alpha) + 64).
    ``best[cls]`` is the least genus offered, ``witness[cls]`` the first
    report offered at that genus and ``kinds[cls]`` the set of kinds that
    reach it; ``capped`` holds the classes whose sweeps hit a cap.
    ``need(cls)`` is the bound every skip and stop compares against.
    """

    def __init__(self, presentation, budget=None):
        self.presentation = presentation
        self.structure = homology_structure(presentation)
        window = degree_cap = None
        if _checked(budget) is not None:
            window, degree_cap = budget.mu_window, budget.lambda_cap
        f1, f2, f3 = presentation.fibers
        a1, a2, a3 = f1.alpha, f2.alpha, f3.alpha
        # A limit the budget sets is positive, so ``or`` keeps it.
        self.window = window or 64 * max(a1, a2, a3)
        # Binds only while no candidate genus bounds the search yet.
        self.degree_cap = degree_cap or 8 * (a1 + a2 + a3) + 64
        self.best = {}
        self.witness = {}
        self.kinds = {}
        self.capped = set()

    def need(self, cls):
        best = self.best.get(cls, inf)
        if HORIZONTAL in self.kinds.get(cls, ()):
            # A further tie changes nothing, and by genus parity the
            # next genus that can matter is two below.
            return best - 2
        return best

    def offer(self, report):
        cls, genus = report.z2class, report.genus
        best = self.best.get(cls, inf)
        if genus < best:
            self.best[cls] = genus
            self.witness[cls] = report
            self.kinds[cls] = {report.kind}
        elif genus == best:
            self.kinds[cls].add(report.kind)


def _check_shape(params):
    (l1, _), (l2, _), (l3, _) = params.pairs
    if l1 == l2 < l3 or l1 == l3 < l2 or l2 == l3 < l1:
        raise InternalInvariantError(
            f"two equal multiplicities below a larger one should be "
            f"impossible: {params.pairs}")


def _parity_center(center, parity_like):
    return center + (center - parity_like) % 2


def _case1_center(lam, fiber):
    """lam*beta/alpha rounded half up, raised to the parity of beta.  Case
    1 has odd alpha, so lam*beta/alpha is never a half: this rounds as
    ``round`` does."""
    a, b = fiber.alpha, fiber.beta
    return _parity_center((2 * lam * b + a) // (2 * a), b)


# The ordered fiber pairs (i, j) of case 4 with their third fiber k, in
# the order the search prices them: witnesses can follow that order.
_CASE4_ORDER = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
                (2, 1, 0))
# Case 3's pinned fiber i and its two swept fibers j < k.
_CASE3_ORDER = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


def enumerate_case4(state):
    """Candidates whose three slope multiplicities are strictly ordered.

    For each fiber pair (i, j) with a_i < a_j the two lower slopes are
    the fiber pairs themselves and the remaining slope (den, num) on
    fiber k is the zero-sum complement in lowest terms, a candidate when
    den > a_j.  At most six candidates, no sweep.  With two slopes
    pinned, existence comes down to integers: a_i and a_j divide den
    (either implies the other), which is then the degree, and den = a_k,
    num = b_k (mod 2).  The genus of a candidate that exists is
    1 + den - den/a_i - den/a_j plus the N of its cap slope on fiber k,
    the pinned fibers capping with meridians.  A candidate is priced
    only when it exists and that exact genus is at most the largest
    bound over the presentation's classes, the same rule as a sweep's
    exact check, so no output moves; pricing checks existence again and
    raises if it fails.  Each priced candidate goes into ``state``, and
    their list is returned.
    """
    classes = state.structure.nonzero_classes
    fibers = state.presentation.fibers
    out = []
    if not classes:
        return out  # a surface represents a nonzero class
    for i, j, k in _CASE4_ORDER:
        fi, fj = fibers[i], fibers[j]
        if not fi.alpha < fj.alpha:
            continue
        fk = fibers[k]
        # rest = -(b_i/a_i + b_j/a_j) in lowest terms, den > 0.
        # num != 0: b_i/a_i = -b_j/a_j in lowest terms needs a_i = a_j.
        num = -(fi.beta * fj.alpha + fj.beta * fi.alpha)
        den = fi.alpha * fj.alpha
        g = math.gcd(num, den)  # not the sweeps' traced ``gcd``
        num, den = num // g, den // g
        # a_j divides den exactly when a_i does: both fail exactly
        # when a prime of gcd(a_i, a_j) cancels from the sum.
        if not fj.alpha < den or den % fj.alpha or \
                (den - fk.alpha) % 2 or (num - fk.beta) % 2:
            continue
        genus = 1 + den - den // fi.alpha - den // fj.alpha + \
            slope_genus(*fk.cap_slope(den, num))
        if genus > max([state.need(cls) for cls in classes]):
            continue
        pairs = [None, None, None]
        pairs[i] = fi.pair
        pairs[j] = fj.pair
        pairs[k] = (den, num)
        _price(state, PHParams(tuple(pairs)), out)
    return out


def _price(state, params, out):
    """Offer the surface ``params`` to ``state`` and append it to ``out``.

    ``horizontal_report`` checks existence once.  Every enumerator builds
    only slopes that meet the existence conditions, so a
    ``NoSurfaceError`` there is a fault of the search, and it raises
    ``InternalInvariantError`` rather than narrow the search unseen.
    """
    try:
        report = horizontal_report(state.presentation, params)
    except NoSurfaceError as err:
        raise InternalInvariantError(
            f"enumerated candidate {params.pairs} bounds no surface: "
            f"{err}") from None
    _check_shape(params)
    state.offer(report)
    out.append(params)


def _sweep(state, cls, lam, base, legs, center):
    """Certified outward coefficient sweep at degree ``lam``, both ways.

    A generator of the coefficients mu worth pricing.  mu runs from
    ``center`` by 2 and from ``center - 2`` by -2 while it stays within
    ``state.window`` of the center.  Each leg ``(fiber, offset, sign)``
    is a slope of coefficient ``offset + sign*mu`` on that fiber, and a
    candidate at mu costs at least ``base`` plus the N of its legs.
    First the legs' forms along the whole line mu = center + 2s, s in Z,
    are cut at every leg's pole, where its longitude form changes sign,
    and ``pencils.region_floors`` bounds each region; a region is dead
    when its base plus floors exceeds the bound of ``cls``, and when
    every region is, the sweep ends there.  Otherwise each direction
    stacks one span [t0, t1] per live region its window meets, with
    that region's base plus floors, over its tail (steps, None) of every
    step past the window with the least of those it meets, if live.
    With a live span it builds the legs' certificates and pops the spans
    left-first.  It drops a span whose carried bound exceeds the bound,
    stops once ``_certified_bound`` at t0, a bound at every later step,
    exceeds it, halves a longer span, both halves keeping the carried
    bound, and yields a single step when ``_worth_pricing`` holds.  The
    tail survives only when ``_lead_bound`` from its first step does not
    exceed the bound either, and then marks ``cls`` capped, the one
    place a sweep does: what lies past the window may still be cheaper.

    The bound of ``cls`` is read afresh at every span, so what the
    caller prices between two yields prunes the rest of the sweep.
    Callers drain the generator: the capped mark is set only when a
    direction ends, so a sweep abandoned early would flag nothing.
    """
    # The first direction's steps are s >= 0 of the line.
    line = [slope_pencil(fiber, lam, offset + sign * center, 2 * sign)
            for fiber, offset, sign in legs]
    cuts, floors = region_floors(line)
    if base + min(floors) > state.need(cls):
        return
    bounds = [base + floor for floor in floors]
    for step in (2, -2):
        if step > 0:
            mu0, pencils = center, line
        else:
            mu0 = center - 2
            pencils = [slope_pencil(fiber, lam, offset + sign * mu0,
                                    sign * step)
                       for fiber, offset, sign in legs]
            # Its step t is s = -1 - t of the line.
            cuts, bounds = [-cut for cut in reversed(cuts)], bounds[::-1]
        steps = (state.window - abs(mu0 - center)) // 2 + 1  # in window
        need = state.need(cls)
        # Region r holds the steps cuts[r-1] <= t < cuts[r]; the window's
        # spans are those of regions lo..hi, cut at cuts[lo:hi].  Each
        # span carries its region's bound, the tail the least of those
        # of the regions it meets.
        lo, hi = bisect_right(cuts, 0), bisect_left(cuts, steps)
        edges = [0] + cuts[lo:hi] + [steps]
        tail = min(bounds[bisect_right(cuts, steps):])
        spans = [(steps, None, tail)] if tail <= need else []
        for r in range(hi, lo - 1, -1):
            t0, t1 = edges[r - lo], edges[r - lo + 1] - 1
            if t0 <= t1 and bounds[r] <= need:
                spans.append((t0, t1, bounds[r]))
        if not spans:
            continue
        certs = _certificates(pencils)
        while spans:
            t0, t1, bound = spans.pop()
            need = state.need(cls)
            if bound > need:
                continue
            if _certified_bound(base, certs, t0) > need:
                break
            if t1 is None:
                if _lead_bound(base, pencils, t0) <= need:
                    state.capped.add(cls)
            elif t0 < t1:
                mid = (t0 + t1) // 2
                spans += [(mid + 1, t1, bound), (t0, mid, bound)]
            elif _worth_pricing(state, cls, base, pencils, t0):
                yield mu0 + step * t0


def _certificates(pencils):
    """The slope-pencil certificates of the legs that have one."""
    return [cert for cert in (certified_tail(*pencil) for pencil in pencils)
            if cert is not None]


def _certified_bound(base, certs, t):
    """``base`` plus the N bound at t of each leg whose t_min is <= t."""
    total = base
    for cert in certs:
        if cert.t_min <= t:
            total += cert.bound_at(t)
    return total


def _lead_bound(base, pencils, t0):
    """``base`` plus the legs' lead floors over every step from t0 on."""
    total = base
    for first, second in pencils:
        total += lead_floor(first, second, t0)
    return total


def _worth_pricing(state, cls, base, pencils, t):
    """Whether step ``t`` survives the checks that need no pricing.

    Each leg's pencil gives its cap slope (2k, q) at step t.  The step is
    ruled out when a cap slope is not coprime (one search ``gcd`` call
    per leg up to the first common factor), or when ``base`` plus the
    legs' exact N exceeds the bound of ``cls``.  The gluing matrix has
    determinant 1, so gcd(2k, q) is the gcd of the leg's slope (lam, c)
    itself.
    """
    caps = [(first.a * t + first.b, second.a * t + second.b)
            for first, second in pencils]
    for twok, q in caps:
        if gcd(twok, q) != 1:
            return False
    best = state.need(cls)
    total = base
    # 2k = m*a - l*b is even: every sweep keeps l = a, m = b (mod 2).
    for twok, q in caps:
        total += slope_genus(twok, q)
        if total > best:
            return False
    return True


def enumerate_case3(state):
    """Candidates with one slope strictly below the two equal others.

    For each fiber i the slope (l_i, m_i) is pinned to (a_i, b_i), the
    other two multiplicities equal the degree p*a_i for p >= 2, and the
    free coefficient mu_j sweeps outward from the balanced center with
    mu_k determined by the zero-sum identity.  Parity prunes most p; the
    degree loop stops when the capped-cover genus p*(a_i - 1) alone
    reaches the bound of the class this sweep represents, since the two
    swept caps add N_j + N_k >= 1.
    Each candidate is priced into ``state`` as it is found, so the bounds
    prune the rest of the search, and the list of candidates priced is
    returned.
    """
    structure = state.structure
    out = []
    if not structure.nonzero_classes:
        return out
    fibers = state.presentation.fibers
    for i, j, k in _CASE3_ORDER:
        fi, fj, fk = fibers[i], fibers[j], fibers[k]
        if (fj.alpha - fk.alpha) % 2 != 0:
            continue  # no degree parity can satisfy both congruences
        cls = structure.class_off(i)
        for p in count(2):
            lam = p * fi.alpha
            base = lam - p
            # The swept caps add N_j + N_k >= 1: two meridian caps would
            # make the Euler sum zero.
            if base >= state.need(cls):
                break
            if lam > state.degree_cap:
                state.capped.add(cls)
                break
            if (lam - fj.alpha) % 2 != 0 or \
                    (p * fi.beta + fj.beta + fk.beta) % 2 != 0:
                continue
            total = -p * fi.beta  # mu_j + mu_k
            for mu_j in _sweep(state, cls, lam, base,
                               ((fj, 0, 1), (fk, total, -1)),
                               _parity_center(total // 2, fj.beta)):
                pairs = [None, None, None]
                pairs[i] = fi.pair
                pairs[j] = (lam, mu_j)
                pairs[k] = (lam, total - mu_j)
                _price(state, PHParams(tuple(pairs)), out)
    return out


def enumerate_case1(state):
    """Candidates with all three multiplicities equal to an odd degree.

    Possible only when every multiplicity is odd; the coefficients sum
    to zero and match the beta parities.  At each degree mu_1 sweeps
    outward, and at each of its steps mu_2 sweeps with mu_3 = -mu_1 -
    mu_2.  A candidate costs lam - 1 + N_1 + N_2 + N_3, and N_j >= 1
    unless the cap slope on fiber j is the meridian, which needs lam =
    a_j; the three caps are never all meridians.  With these floors the
    degree loop stops once lam - 1 plus the floors (at least 1) exceeds
    the bound of the class, a lower bound that never falls as lam grows;
    the outer sweep's certificate counts the floors of the two inner
    legs; and the inner sweep at mu_1 is skipped when lam - 1 + N_1 plus
    those floors exceeds the bound.  Candidates are priced into
    ``state`` as in ``enumerate_case3``.
    """
    from .lens import n_genus

    out = []
    # Odd l_i = a_i and m-sum 0 = b-sum (mod 2): all a_i odd, even b-sum.
    if state.structure.case is not HomologyCase.CYCLIC_VERTICAL:
        return out
    cls = state.structure.nonzero_classes[0]
    fibers = state.presentation.fibers
    f1, f2, f3 = fibers
    for lam in count(1, 2):
        floor1, floor2, floor3 = (0 if lam == f.alpha else 1 for f in fibers)
        # N_j >= 1 unless lam == a_j, and the three caps are never all
        # meridians.  The bound at lam + 2 is at least its largest value
        # here, so the break covers every higher degree too.
        if lam - 1 + max(1, floor1 + floor2 + floor3) > state.need(cls):
            break
        if lam > state.degree_cap:
            state.capped.add(cls)
            break
        center1, center2 = _case1_center(lam, f1), _case1_center(lam, f2)
        for mu1 in _sweep(state, cls, lam, lam - 1 + floor2 + floor3,
                          ((f1, 0, 1),), center1):
            n1 = n_genus(LensCurve(*f1.cap_slope(lam, mu1)))
            for mu2 in _sweep(state, cls, lam, lam - 1 + n1,
                              ((f2, 0, 1), (f3, -mu1, -1)), center2):
                _price(state, PHParams(
                    ((lam, mu1), (lam, mu2), (lam, -mu1 - mu2))), out)
    return out


def compute_norms(presentation, budget=None):
    """Minimal genus, witness and norm for every nonzero Z/2 class.

    Pseudo-vertical surfaces seed the bounds, then the finite
    distinct-multiplicity candidates, then the case-1 sweeps, whose low
    degrees bound case 3 on all-odd presentations, then case 3.  Every
    class of the homology structure is guaranteed a representative; a
    class whose sweep hit a window cap without certification is flagged
    non-exhaustive.
    """
    if not isinstance(presentation, SeifertPresentation):
        raise PresentationError(f"not a presentation: {presentation!r}")
    state = _SearchState(presentation, budget)
    structure = state.structure
    vertical = {}  # each class has at most one pseudo-vertical surface
    if structure.nonzero_classes:
        for report in vertical_surfaces(presentation):
            vertical[report.z2class] = report.genus
            state.offer(report)
        # The enumerators price into ``state`` themselves.
        enumerate_case4(state)
        enumerate_case1(state)
        enumerate_case3(state)
    entries = []
    for cls in structure.nonzero_classes:
        if cls not in state.witness:
            raise InternalInvariantError(
                f"class {cls.label} ended with no representative")
        entries.append(ClassNorm(
            witness=state.witness[cls],
            witness_kinds=tuple(sorted(state.kinds[cls])),
            min_vertical_genus=vertical.get(cls),
            exhaustive=cls not in state.capped,
        ))
    return NormReport(presentation, tuple(entries))


def family_scan(template, grid, budget=None):
    """One row per (instance, class) over a parameter grid.

    ``template`` and ``grid`` are one line of a family file, as in
    ``scan.instances``, whose instances run one at a time as they are
    made.  A template error, a syntax error included, raises before any
    instance runs, and a slot or bound error at the first instance that
    meets it: a caller who wants every error of a file raised before
    anything runs calls ``scan.check_families`` first, as ``sfs-norm
    scan`` does.  An instance is its template with integer literals in
    the slots, so its syntax is the template's; instances that fail
    validation are skipped and logged.  The rows are those of
    ``scan.class_rows``.  A budget that is not a ``SearchBudget`` raises
    before any instance runs.
    """
    _checked(budget)
    rows = []
    for text in instances(template, grid):
        # No syntax error reaches here: ``instances`` raised it first.
        try:
            presentation = parse_presentation(text)
            report = compute_norms(presentation, budget)
        except SfsNormError as err:
            log.warning("skipping %s: %s", text, err)
            continue
        rows.extend(class_rows(report))
    return rows
