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

The sweeps are infinite a priori.  Termination is by branch and bound:
the capped-cover part of the genus prunes the degree loops, and every
outward coefficient sweep, the one of case 3 and both of case 1, runs
through ``_sweep``.  Its one stop rule is a slope-pencil certificate
(exact Euclid on linear forms, see ``pencils``), whose N bound holds at
every step from its threshold t_min on: a direction stops once that
bound proves every further candidate exceeds the best genus known for
the class the sweep feeds.  A sweep that instead hits the hard window
cap marks its class non-exhaustive; nothing is silently dropped.
Before t_min no certificate holds, but the leading continued-fraction
digit a0 of a cap slope (2k, q) still gives N >= ceil(a0/2), and on a
span of steps where the integer part of q/2k stays fixed that floor
holds for the whole span (``pencils.lead_floor``).  The sweep bisects
its steps before t_min and skips every span and step whose floor
prices it above the best horizontal genus of the class.  A skipped
candidate then costs more than a horizontal surface already priced, so
it could change no minimum of either kind, no witness and no
exhaustive flag: every output is the same as when those steps are
priced one by one.
Case 1 also bounds the caps before it prices them: N >= 1 for every cap
slope but the meridian, which the slope (lam, m_j) gives only when lam =
a_j.  That floor of one per off-meridian cap prunes the case-1 degree
loop, the outer sweep and each inner sweep.
Every enumerator is a plain call that prices each candidate into the
search state as it finds it, so the bounds the sweeps prune against are
always current, whether they run inside ``compute_norms`` or on their
own, and returns the list of candidates it priced.  Pricing is one
existence check and one integer genus count per candidate, against the
homology structure the state holds for the presentation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from math import gcd, inf

from .errors import (
    InternalInvariantError,
    NoSurfaceError,
    NotationSyntaxError,
    PresentationError,
    SfsNormError,
)
from .lens import LensCurve
from .notation import parse_presentation
from .pencils import certified_tail, lead_floor, slope_pencil
from .report import ClassNorm, NormReport
from .scan import class_rows, instances
from .seifert import (
    HomologyCase,
    SeifertPresentation,
    Z2Class,
    homology_structure,
)
from .surfaces import (
    HORIZONTAL,
    VERTICAL,
    PHParams,
    horizontal_report,
    ph_exists,  # noqa: F401 - unused here; perfbench/tracer.py patches it
    vertical_surfaces,
)

log = logging.getLogger(__name__)

# Spans before t_min of at most this many steps are stepped through.
LEAD_SPAN = 8


@dataclass(frozen=True)
class SearchBudget:
    """Explicit constants behind the 'sufficiently large' cutoffs.

    ``mu_window`` is the half-width of every coefficient sweep (default
    64 * max(alpha)); ``lambda_cap`` bounds the covering degree when no
    candidate has bounded it yet (default 8 * sum(alpha) + 64).
    A sweep that reaches either cap marks its class non-exhaustive.
    """

    mu_window: int | None = None
    lambda_cap: int | None = None

    def __post_init__(self):
        for name in ("mu_window", "lambda_cap"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise PresentationError(f"{name} must be positive")

    def window(self, presentation):
        if self.mu_window is not None:
            return self.mu_window
        return 64 * max(presentation.alphas)

    def degree_cap(self, presentation):
        # Binds only while no candidate genus bounds the search yet.
        if self.lambda_cap is not None:
            return self.lambda_cap
        return 8 * sum(presentation.alphas) + 64


class _SearchState:
    """Search results per class, for the presentation whose homology
    ``structure`` it holds.

    ``best[cls]`` is the least genus offered, ``witness[cls]`` the first
    report offered at that genus and ``kinds[cls]`` the set of kinds that
    reach it; ``kind_best[(cls, kind)]`` is the least genus of each kind
    and ``capped`` holds the classes whose sweeps hit a cap.
    """

    def __init__(self, structure):
        self.structure = structure
        self.best = {}
        self.witness = {}
        self.kinds = {}
        self.kind_best = {}
        self.capped = set()

    def need(self, cls):
        return self.best.get(cls, inf)

    def offer(self, report):
        cls = report.z2class
        key = (cls, report.kind)
        if report.genus < self.kind_best.get(key, inf):
            self.kind_best[key] = report.genus
        if report.genus < self.need(cls):
            self.best[cls] = report.genus
            self.witness[cls] = report
            self.kinds[cls] = {report.kind}
        elif report.genus == self.best[cls]:
            self.kinds[cls].add(report.kind)


def _check_shape(params):
    ls = sorted(l for l, _ in params.pairs)
    if ls[0] == ls[1] < ls[2]:
        raise InternalInvariantError(
            f"two equal multiplicities below a larger one should be "
            f"impossible: {params.pairs}")


def _round_half_even(num, den):
    """round(num/den) for den > 0, ties to even as ``round`` does."""
    quo, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and quo % 2 != 0):
        quo += 1
    return quo


def _parity_center(center, parity_like):
    if (center - parity_like) % 2 != 0:
        center += 1
    return center


def enumerate_case4(presentation, state=None):
    """Candidates whose three slope multiplicities are strictly ordered.

    For each fiber pair (i, j) with a_i < a_j the two lower slopes are
    the fiber pairs themselves and the remaining slope is the zero-sum
    complement in lowest terms; the candidate survives when that slope
    is strictly the largest and the existence conditions hold.  At most
    six candidates, no sweep.  Each survivor is priced into ``state`` (a
    fresh one when omitted), and the list of survivors is returned.
    """
    if state is None:
        state = _SearchState(homology_structure(presentation))
    fibers = presentation.fibers
    out = []
    for i in range(3):
        for j in range(3):
            if i == j or not fibers[i].alpha < fibers[j].alpha:
                continue
            k = 3 - i - j
            # rest = -(b_i/a_i + b_j/a_j) in lowest terms, den > 0.
            num = -(fibers[i].beta * fibers[j].alpha
                    + fibers[j].beta * fibers[i].alpha)
            if num == 0:
                continue
            den = fibers[i].alpha * fibers[j].alpha
            g = math.gcd(num, den)  # not the sweeps' traced ``gcd``
            num, den = num // g, den // g
            pairs = [None, None, None]
            pairs[i] = fibers[i].pair
            pairs[j] = fibers[j].pair
            pairs[k] = (den, num)
            if not fibers[j].alpha < den:
                continue
            _price(presentation, state, PHParams(tuple(pairs)), out)
    return out


def _price(presentation, state, params, out):
    """Offer the surface ``params`` to ``state`` and append it to ``out``
    if it exists.

    ``horizontal_report`` checks existence once and raises
    ``NoSurfaceError`` for slopes that bound no surface, which are
    dropped.
    """
    try:
        report = horizontal_report(presentation, params, state.structure)
    except NoSurfaceError:
        return
    _check_shape(params)
    state.offer(report)
    out.append(params)


def _sweep(state, cls, lam, base, legs, center, window, visit):
    """Certified outward coefficient sweep at degree ``lam``, both ways.

    The sweep parameter mu runs from ``center`` in steps of 2 and from
    ``center - 2`` in steps of -2 while it stays within ``window`` of the
    center.  Each leg ``(fiber, offset, sign)`` is a slope of coefficient
    ``offset + sign*mu`` on that fiber, and a candidate at mu costs at
    least ``base`` plus the N of its legs.  At every mu where all leg
    coefficients are prime to ``lam`` it calls ``visit(mu)``, which
    prices what it finds into ``state``.  The one stop rule: at every
    step t >= the largest ``t_min`` of the legs' pencil certificates, a
    direction stops once ``base`` plus their N bounds at t, which hold at
    every later step, exceed the best genus of ``cls``.  A direction that
    runs out of window instead marks ``cls`` capped.  The steps before
    t_min go through ``_lead_steps``, which skips those the legs'
    leading-digit floors price above the best horizontal genus of
    ``cls``.
    """
    for step in (2, -2):
        mu0 = center if step > 0 else center - 2
        pencils = [slope_pencil(fiber, lam, offset + sign * mu0, sign * step)
                   for fiber, offset, sign in legs]
        certs = [certified_tail(*pencil) for pencil in pencils]
        # Without a certificate on every leg the direction never stops early.
        t_min = max(cert.t_min for cert in certs) if None not in certs \
            else inf
        steps = (window - abs(mu0 - center)) // 2 + 1  # mu within window
        lead = min(t_min, steps)
        _lead_steps(state, cls, lam, base, legs, pencils, mu0, step, lead,
                    visit)
        for t in range(lead, steps):
            mu = mu0 + step * t
            if _coprime(lam, legs, mu):
                visit(mu)
            bound = base
            for cert in certs:
                bound += cert.bound_at(t)
            if bound > state.need(cls):
                break
        else:
            state.capped.add(cls)


def _lead_steps(state, cls, lam, base, legs, pencils, mu0, step, end,
                visit):
    """Steps 0..end-1 of one ``_sweep`` direction, in order.

    The steps are bisected left-first.  A span is dropped when ``base``
    plus the legs' ``lead_floor`` over it exceeds the best horizontal
    genus of ``cls``, read afresh at each span.  A span of at most
    ``LEAD_SPAN`` steps is stepped through, skipping each step that the
    same floor rules out on its own.  Every skipped candidate costs more
    than that horizontal best, which is at least the class best, so it
    could move no minimum, witness or flag.  The one ``visit`` that does
    more than price, the case-1 outer sweep's, returns at once above
    the class best without running its inner sweep, so a skip marks no
    class capped either.
    """
    key = (cls, HORIZONTAL)
    spans = [(0, end - 1)] if end > 0 else []
    while spans:
        t0, t1 = spans.pop()
        if _lead_bound(base, pencils, t0, t1) > state.kind_best.get(key, inf):
            continue
        if t1 - t0 >= LEAD_SPAN:
            mid = (t0 + t1) // 2
            spans.append((mid + 1, t1))
            spans.append((t0, mid))
            continue
        for t in range(t0, t1 + 1):
            if _lead_bound(base, pencils, t, t) > \
                    state.kind_best.get(key, inf):
                continue
            mu = mu0 + step * t
            if _coprime(lam, legs, mu):
                visit(mu)


def _lead_bound(base, pencils, t0, t1):
    total = base
    for first, second in pencils:
        total += lead_floor(first, second, t0, t1)
    return total


def _coprime(lam, legs, mu):
    # One search ``gcd`` call per leg up to the first common factor.
    for _, offset, sign in legs:
        if gcd(lam, offset + sign * mu) != 1:
            return False
    return True


def _case3_class(structure, i):
    if structure.case is HomologyCase.KLEIN_FOUR:
        return Z2Class(tuple(0 if x == i else 1 for x in range(3)))
    return structure.nonzero_classes[0]


def enumerate_case3(presentation, budget=None, state=None):
    """Candidates with one slope strictly below the two equal others.

    For each fiber i the slope (l_i, m_i) is pinned to (a_i, b_i), the
    other two multiplicities equal the degree p*a_i for p >= 2, and the
    free coefficient mu_j sweeps outward from the balanced center with
    mu_k determined by the zero-sum identity.  Parity prunes most p; the
    degree loop stops when the capped-cover genus p*(a_i - 1) alone
    reaches the best genus known for the class this sweep represents.
    Each candidate is priced into ``state`` (a fresh one when omitted) as
    it is found, so the bounds prune the rest of the search, and the list
    of candidates priced is returned.
    """
    budget = budget if budget is not None else SearchBudget()
    if state is None:
        state = _SearchState(homology_structure(presentation))
    structure = state.structure
    out = []
    if not structure.nonzero_classes:
        return out
    window = budget.window(presentation)
    degree_cap = budget.degree_cap(presentation)
    fibers = presentation.fibers
    for i in range(3):
        j, k = (x for x in range(3) if x != i)
        fi, fj, fk = fibers[i], fibers[j], fibers[k]
        if (fj.alpha - fk.alpha) % 2 != 0:
            continue  # no degree parity can satisfy both congruences
        cls = _case3_class(structure, i)
        p = 2
        while True:
            lam = p * fi.alpha
            base = lam - p
            if base >= state.need(cls):
                break
            if lam > degree_cap:
                state.capped.add(cls)
                break
            if (lam - fj.alpha) % 2 != 0 or \
                    (p * fi.beta + fj.beta + fk.beta) % 2 != 0:
                p += 1
                continue
            total = -p * fi.beta  # mu_j + mu_k

            def visit(mu_j):
                pairs = [None, None, None]
                pairs[i] = fi.pair
                pairs[j] = (lam, mu_j)
                pairs[k] = (lam, total - mu_j)
                _price(presentation, state, PHParams(tuple(pairs)), out)

            _sweep(state, cls, lam, base, ((fj, 0, 1), (fk, total, -1)),
                   _parity_center(total // 2, fj.beta), window, visit)
            p += 1
    return out


def enumerate_case1(presentation, budget=None, state=None):
    """Candidates with all three multiplicities equal to an odd degree.

    Possible only when every multiplicity is odd; the coefficients sum
    to zero and match the beta parities.  At each degree mu_1 sweeps
    outward, and at each of its steps mu_2 sweeps with mu_3 = -mu_1 -
    mu_2.  A candidate costs lam - 1 + N_1 + N_2 + N_3, and N_j >= 1
    unless the cap slope on fiber j is the meridian, which needs lam =
    a_j; the three caps are never all meridians.  With these floors the
    degree loop stops once lam - 1 plus the floors (at least 1) reaches
    the best genus, a bound that never falls as lam grows; the outer
    sweep's certificate counts the floors of the two inner legs; and the
    inner sweep at mu_1 is skipped when lam - 1 + N_1 plus those floors
    exceeds the best genus.  Candidates are priced into ``state`` as in
    ``enumerate_case3``.
    """
    from .lens import n_genus

    budget = budget if budget is not None else SearchBudget()
    fibers = presentation.fibers
    out = []
    if any(f.alpha % 2 == 0 for f in fibers):
        return out
    if state is None:
        state = _SearchState(homology_structure(presentation))
    if not state.structure.nonzero_classes:
        return out  # odd beta sum: parity excludes every candidate
    cls = state.structure.nonzero_classes[0]
    window = budget.window(presentation)
    degree_cap = budget.degree_cap(presentation)
    f1, f2, f3 = fibers
    lam = 1
    while True:
        floor1, floor2, floor3 = (0 if lam == f.alpha else 1 for f in fibers)
        # N_j >= 1 unless lam == a_j, and the three caps are never all
        # meridians.  The bound at lam + 2 is at least its largest value
        # here, so the break covers every higher degree too.
        if lam - 1 + max(1, floor1 + floor2 + floor3) >= state.need(cls):
            break
        if lam > degree_cap:
            state.capped.add(cls)
            break
        outer_base = lam - 1 + floor2 + floor3
        center2 = _parity_center(_round_half_even(lam * f2.beta, f2.alpha),
                                 f2.beta)

        def visit(mu1):
            def price(mu2):
                _price(presentation, state, PHParams(
                    ((lam, mu1), (lam, mu2), (lam, -mu1 - mu2))), out)

            n1 = n_genus(LensCurve(mu1 * f1.alpha - lam * f1.beta,
                                   lam * f1.delta - mu1 * f1.gamma))
            if outer_base + n1 <= state.need(cls):
                _sweep(state, cls, lam, lam - 1 + n1,
                       ((f2, 0, 1), (f3, -mu1, -1)), center2, window, price)

        _sweep(state, cls, lam, outer_base, ((f1, 0, 1),),
               _parity_center(_round_half_even(lam * f1.beta, f1.alpha),
                              f1.beta),
               window, visit)
        lam += 2
    return out


def compute_norms(presentation, budget=None):
    """Minimal genus, witness and norm for every nonzero Z/2 class.

    Pseudo-vertical surfaces seed the bounds, then the finite
    distinct-multiplicity candidates, then the sweeps.  Every class of
    the homology structure is guaranteed a representative; a class whose
    sweep hit a window cap without certification is flagged
    non-exhaustive.
    """
    if not isinstance(presentation, SeifertPresentation):
        raise PresentationError(f"not a presentation: {presentation!r}")
    budget = budget if budget is not None else SearchBudget()
    structure = homology_structure(presentation)
    state = _SearchState(structure)
    if structure.nonzero_classes:
        for report in vertical_surfaces(presentation):
            state.offer(report)
        # The enumerators price into ``state`` themselves.
        enumerate_case4(presentation, state)
        enumerate_case3(presentation, budget, state)
        enumerate_case1(presentation, budget, state)
    entries = []
    for cls in structure.nonzero_classes:
        if cls not in state.witness:
            raise InternalInvariantError(
                f"class {cls.label} ended with no representative")
        entries.append(ClassNorm(
            z2class=cls,
            min_genus=state.best[cls],
            witness=state.witness[cls],
            witness_kinds=tuple(sorted(state.kinds[cls])),
            min_vertical_genus=state.kind_best.get((cls, VERTICAL)),
            min_horizontal_genus=state.kind_best.get((cls, HORIZONTAL)),
            exhaustive=cls not in state.capped,
        ))
    return NormReport(presentation, structure.case, tuple(entries))


def family_scan(template, grid, budget=None):
    """One row per (instance, class) over a parameter grid.

    ``template`` and ``grid`` are one line of a family file, as in
    ``scan.instances``.  A template error, a syntax error included,
    raises before any instance runs.  Instances that fail validation are
    skipped and logged.  The rows are those of ``scan.class_rows``.
    """
    rows = []
    for text in instances(template, grid):
        try:
            presentation = parse_presentation(text)
            report = compute_norms(presentation, budget)
        except NotationSyntaxError:
            raise
        except SfsNormError as err:
            log.warning("skipping %s: %s", text, err)
            continue
        rows.extend(class_rows(report))
    return rows
