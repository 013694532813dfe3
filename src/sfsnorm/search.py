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
through ``_sweep``.  It stops once a slope-pencil certificate (exact
Euclid on linear forms, see ``pencils``) proves every further candidate
exceeds the best genus known for the class the sweep feeds, confirmed by
PREFIX_STOP_RUN consecutive steps whose digit expansions extend the
certified prefix.  A sweep that instead hits the hard window cap marks
its class non-exhaustive in the report; nothing is silently dropped.
Every enumerator prices each candidate into the search state as it
finds it, so the bounds the sweeps prune against are always current,
whether they run inside ``compute_norms`` or on their own.  Pricing is
one existence check and one integer genus count per candidate, against
the homology structure the state holds for the presentation.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf

from .errors import (
    InternalInvariantError,
    NoSurfaceError,
    PresentationError,
    SfsNormError,
)
from .lens import LensCurve, cf_expand, normalize_lens
from .notation import canonical_form, format_presentation, parse_presentation
from .pencils import certified_tail, slope_pencil
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
    SurfaceReport,
    horizontal_report,
    ph_exists,  # noqa: F401 - unused here; perfbench/tracer.py patches it
    surface_report_from_json,
    vertical_surfaces,
)

log = logging.getLogger(__name__)

MAX_TIE_WITNESSES = 16
# Consecutive prefix-certified steps a sweep direction needs to stop.
PREFIX_STOP_RUN = 8


@dataclass(frozen=True)
class SearchBudget:
    """Explicit constants behind the 'sufficiently large' cutoffs.

    ``mu_window`` is the half-width of every coefficient sweep (default
    64 * max(alpha)); ``lambda_cap`` bounds the covering degree when no
    candidate has bounded it yet (default derived from the presentation).
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
    """Best genus, tie witnesses and exhaustiveness flags per class, for
    the presentation whose homology ``structure`` it holds."""

    def __init__(self, structure):
        self.structure = structure
        self.best = {}
        self.witnesses = {}
        self.kind_best = {}
        self.capped = set()

    def need(self, cls):
        return self.best.get(cls, inf)

    def offer(self, report):
        cls = report.z2class
        key = (cls, report.kind)
        if report.genus < self.kind_best.get(key, inf):
            self.kind_best[key] = report.genus
        cur = self.best.get(cls)
        if cur is None or report.genus < cur:
            self.best[cls] = report.genus
            self.witnesses[cls] = [report]
        elif report.genus == cur:
            ws = self.witnesses[cls]
            if report not in ws and len(ws) < MAX_TIE_WITNESSES:
                ws.append(report)


def _check_shape(params):
    ls = sorted(l for l, _ in params.pairs)
    if ls[0] == ls[1] < ls[2]:
        raise InternalInvariantError(
            f"two equal multiplicities below a larger one should be "
            f"impossible: {params.pairs}")


def _parity_center(value, parity_like):
    center = round(value) if isinstance(value, Fraction) else value
    if (center - parity_like) % 2 != 0:
        center += 1
    return center


def _cap_digits(fiber, lam, mu):
    curve = normalize_lens(LensCurve(mu * fiber.alpha - lam * fiber.beta,
                                     lam * fiber.delta - mu * fiber.gamma))
    if curve.twok == 0:
        return None
    return cf_expand(curve.twok, curve.q).digits


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
            rest = -(Fraction(fibers[i].beta, fibers[i].alpha)
                     + Fraction(fibers[j].beta, fibers[j].alpha))
            if rest == 0:
                continue
            pairs = [None, None, None]
            pairs[i] = fibers[i].pair
            pairs[j] = fibers[j].pair
            pairs[k] = (rest.denominator, rest.numerator)
            if not fibers[j].alpha < rest.denominator:
                continue
            out.extend(_price(presentation, state, PHParams(tuple(pairs))))
    return out


def _price(presentation, state, params):
    """Offer the surface ``params`` to ``state`` if it exists.

    Returns ``(params,)`` when it does and ``()`` when it does not, for a
    sweep to ``yield from``.  ``horizontal_report`` checks existence once
    and raises ``NoSurfaceError`` for slopes that bound no surface.
    """
    try:
        report = horizontal_report(presentation, params, state.structure)
    except NoSurfaceError:
        return ()
    _check_shape(params)
    state.offer(report)
    return (params,)


def _sweep(state, cls, lam, base, legs, center, window, visit):
    """Certified outward coefficient sweep at degree ``lam``, both ways.

    The sweep parameter mu runs from ``center`` in steps of 2 and from
    ``center - 2`` in steps of -2 while it stays within ``window`` of the
    center.  Each leg ``(fiber, offset, sign)`` is a slope of coefficient
    ``offset + sign*mu`` on that fiber.  At every mu where all leg
    coefficients are prime to ``lam`` this yields what ``visit(mu)``
    returns.  A direction stops once the legs' pencil certificates put
    ``base`` plus their N bounds above the best genus of ``cls``, after
    PREFIX_STOP_RUN consecutive such steps whose cap digits extend the
    certified prefixes; a direction that runs out of window instead
    marks ``cls`` capped.
    """
    for step in (2, -2):
        mu = center if step > 0 else center - 2
        certs = [certified_tail(*slope_pencil(fiber, lam, offset + sign * mu,
                                              sign * step))
                 for fiber, offset, sign in legs]
        # Without a certificate on every leg the direction never stops early.
        t_min = max(cert.t_min for cert in certs) if None not in certs \
            else inf
        run = 0
        t = 0
        while abs(mu - center) <= window:
            for _, offset, sign in legs:
                if gcd(lam, offset + sign * mu) != 1:
                    break
            else:
                yield from visit(mu)
                if t >= t_min:
                    run += 1
                    for cert, (fiber, offset, sign) in zip(certs, legs):
                        digits = _cap_digits(fiber, lam, offset + sign * mu)
                        if not digits or not cert.matches(digits):
                            run = 0
                            log.warning("prefix certificate missed at step "
                                        "%d of a degree-%d sweep", t, lam)
                            break
            if run >= PREFIX_STOP_RUN:
                bound = base
                for cert in certs:
                    bound += cert.bound_at(t)
                if bound > state.need(cls):
                    break
            mu += step
            t += 1
        else:
            state.capped.add(cls)


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
    Each candidate is priced into ``state`` (a fresh one when omitted)
    before it is yielded, so the bounds prune the rest of the stream.
    """
    budget = budget if budget is not None else SearchBudget()
    if state is None:
        state = _SearchState(homology_structure(presentation))
    structure = state.structure
    if not structure.nonzero_classes:
        return
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
                return _price(presentation, state, PHParams(tuple(pairs)))

            yield from _sweep(state, cls, lam, base,
                              ((fj, 0, 1), (fk, total, -1)),
                              _parity_center(total // 2, fj.beta), window,
                              visit)
            p += 1


def enumerate_case1(presentation, budget=None, state=None):
    """Candidates with all three multiplicities equal to an odd degree.

    Possible only when every multiplicity is odd; the coefficients sum
    to zero and match the beta parities.  At each degree mu_1 sweeps
    outward, and at each of its steps mu_2 sweeps with mu_3 = -mu_1 -
    mu_2; the degree loop stops at best genus + 1 since even the
    all-disk cover already costs lam - 1.  Candidates are priced into
    ``state`` as in ``enumerate_case3``.
    """
    from .lens import n_genus

    budget = budget if budget is not None else SearchBudget()
    fibers = presentation.fibers
    if any(f.alpha % 2 == 0 for f in fibers):
        return
    if state is None:
        state = _SearchState(homology_structure(presentation))
    if not state.structure.nonzero_classes:
        return  # odd beta sum: parity excludes every candidate
    cls = state.structure.nonzero_classes[0]
    window = budget.window(presentation)
    degree_cap = budget.degree_cap(presentation)
    f1, f2, f3 = fibers
    lam = 1
    while True:
        if lam - 1 >= state.need(cls):
            break
        if lam > degree_cap:
            state.capped.add(cls)
            break
        center2 = _parity_center(Fraction(lam * f2.beta, f2.alpha), f2.beta)

        def visit(mu1):
            def price(mu2):
                return _price(presentation, state, PHParams(
                    ((lam, mu1), (lam, mu2), (lam, -mu1 - mu2))))

            n1 = n_genus(LensCurve(mu1 * f1.alpha - lam * f1.beta,
                                   lam * f1.delta - mu1 * f1.gamma))
            return _sweep(state, cls, lam, lam - 1 + n1,
                          ((f2, 0, 1), (f3, -mu1, -1)), center2, window,
                          price)

        yield from _sweep(
            state, cls, lam, lam - 1, ((f1, 0, 1),),
            _parity_center(Fraction(lam * f1.beta, f1.alpha), f1.beta),
            window, visit)
        lam += 2


@dataclass(frozen=True)
class ClassNorm:
    """Search result for one nonzero Z/2 class."""

    z2class: Z2Class
    min_genus: int
    witness: SurfaceReport
    witness_kinds: tuple
    min_vertical_genus: int | None
    min_horizontal_genus: int | None
    exhaustive: bool

    @property
    def norm(self):
        return max(0, self.min_genus - 2)

    def to_json_dict(self):
        e1, e2, e3 = self.z2class.parities
        return {
            "class": self.z2class.label,
            "e1": e1, "e2": e2, "e3": e3,
            "min_genus": self.min_genus,
            "norm": self.norm,
            "witness": self.witness.to_json_dict(),
            "witness_kinds": list(self.witness_kinds),
            "min_vertical_genus": self.min_vertical_genus,
            "min_horizontal_genus": self.min_horizontal_genus,
            "exhaustive": self.exhaustive,
        }


@dataclass(frozen=True)
class NormReport:
    """Per-class minima for one presentation."""

    presentation: SeifertPresentation
    case: HomologyCase
    entries: tuple

    @property
    def per_class(self):
        return {entry.z2class: entry for entry in self.entries}

    @property
    def exhaustive(self):
        return all(entry.exhaustive for entry in self.entries)

    def to_json_dict(self):
        return {
            "presentation": format_presentation(self.presentation),
            "canonical_form": canonical_form(self.presentation),
            "homology": self.case.value,
            "exhaustive": self.exhaustive,
            "classes": [entry.to_json_dict() for entry in self.entries],
        }


def norm_report_from_json(data):
    presentation = parse_presentation(data["presentation"])
    entries = []
    for item in data["classes"]:
        entries.append(ClassNorm(
            z2class=Z2Class((item["e1"], item["e2"], item["e3"])),
            min_genus=item["min_genus"],
            witness=surface_report_from_json(item["witness"]),
            witness_kinds=tuple(item["witness_kinds"]),
            min_vertical_genus=item["min_vertical_genus"],
            min_horizontal_genus=item["min_horizontal_genus"],
            exhaustive=item["exhaustive"],
        ))
    return NormReport(presentation, HomologyCase(data["homology"]),
                      tuple(entries))


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
        for _ in enumerate_case3(presentation, budget, state):
            pass
        for _ in enumerate_case1(presentation, budget, state):
            pass
    entries = []
    for cls in structure.nonzero_classes:
        witnesses = state.witnesses.get(cls)
        if not witnesses:
            raise InternalInvariantError(
                f"class {cls.label} ended with no representative")
        kinds = tuple(sorted({w.kind for w in witnesses}))
        entries.append(ClassNorm(
            z2class=cls,
            min_genus=state.best[cls],
            witness=witnesses[0],
            witness_kinds=kinds,
            min_vertical_genus=state.kind_best.get((cls, VERTICAL)),
            min_horizontal_genus=state.kind_best.get((cls, HORIZONTAL)),
            exhaustive=cls not in state.capped,
        ))
    return NormReport(presentation, structure.case, tuple(entries))


SCAN_CSV_HEADER = ("canonical_form", "class", "e1", "e2", "e3",
                   "min_genus", "norm", "witness_kind", "gap", "exhaustive")

_ALLOWED_EXPR = re.compile(r"^[0-9a-zA-Z_+\-*/() ]*$")


def _eval_int(expr, bindings):
    import ast

    if not _ALLOWED_EXPR.match(expr):
        raise PresentationError(f"bad arithmetic expression {expr!r}")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as err:
        raise PresentationError(f"bad arithmetic expression {expr!r}") \
            from err

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        if isinstance(node, ast.Name):
            if node.id not in bindings:
                raise PresentationError(f"unbound variable {node.id!r}")
            return bindings[node.id]
        if isinstance(node, ast.UnaryOp) and \
                isinstance(node.op, (ast.USub, ast.UAdd)):
            value = walk(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.BinOp):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.FloorDiv):
                if right == 0:
                    raise PresentationError(f"division by zero in {expr!r}")
                return left // right
        raise PresentationError(f"unsupported arithmetic in {expr!r}")

    return walk(tree)


def _instantiate(template, bindings):
    # A single "/" is Hatcher's fraction bar; "//" is floor division.
    parts = re.split(r"([()\[\],;\s]|(?<!/)/(?!/))", template)
    out = []
    for part in parts:
        if part and re.search("[a-zA-Z]", part) and \
                any(name in part for name in bindings):
            out.append(str(_eval_int(part, bindings)))
        else:
            out.append(part)
    return "".join(out)


def _grid_bindings(grid, bindings=None, index=0):
    bindings = dict(bindings or {})
    if index == len(grid):
        yield bindings
        return
    name, lo_expr, hi_expr = grid[index]
    lo = _eval_int(str(lo_expr), bindings)
    hi = _eval_int(str(hi_expr), bindings)
    for value in range(lo, hi + 1):
        bindings[name] = value
        yield from _grid_bindings(grid, bindings, index + 1)


def family_scan(template, grid, budget=None):
    """One row per (instance, class) over a parameter grid.

    ``template`` is a presentation string with integer arithmetic in the
    slots (for example ``S2((2,-1),(2*m+1,m),(2*n,1))``); ``grid`` is an
    ordered list of (name, lo, hi) with bounds that may use earlier
    variables.  Instances that fail to parse or validate are skipped and
    logged.  The gap column is vertical minus horizontal minimal genus
    when both kinds produced a candidate in the class.
    """
    rows = []
    for bindings in _grid_bindings(list(grid)):
        text = _instantiate(template, bindings)
        try:
            presentation = parse_presentation(text)
            report = compute_norms(presentation, budget)
        except SfsNormError as err:
            log.warning("skipping %s: %s", text, err)
            continue
        key = canonical_form(presentation)
        for entry in report.entries:
            if entry.min_vertical_genus is not None \
                    and entry.min_horizontal_genus is not None:
                gap = entry.min_vertical_genus - entry.min_horizontal_genus
            else:
                gap = None
            kinds = entry.witness_kinds
            e1, e2, e3 = entry.z2class.parities
            rows.append({
                "canonical_form": key,
                "class": entry.z2class.label,
                "e1": e1, "e2": e2, "e3": e3,
                "min_genus": entry.min_genus,
                "norm": entry.norm,
                "witness_kind": "both" if len(kinds) == 2 else kinds[0],
                "gap": gap,
                "exhaustive": entry.exhaustive,
            })
    return rows
