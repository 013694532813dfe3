"""Candidate one-sided surfaces in a small Seifert fibered space.

Two shapes occur.  A pseudo-vertical surface V_{i,j} is a vertical
annulus capped off by one-sided surfaces in the solid tori around two
even-multiplicity fibers; its genus is N(a_i, b_i) + N(a_j, b_j).  A
pseudo-horizontal surface is a horizontal branched cover of the base
capped off, in each solid torus, by meridian disks or a single one-sided
surface, and is determined by three boundary slopes (l_i, m_i) with
l_i > 0 written against the horizontal/vertical curve basis.

Existence of the pseudo-horizontal surface with given slopes is an
if-and-only-if list of elementary conditions; its genus follows from the
Riemann-Hurwitz count of the covering plus one N-term per solid torus.
Every l_i divides the covering degree lam, so both are integer sums of
the terms lam // l_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

from .errors import InternalInvariantError, NoSurfaceError, PresentationError
from .lens import LensCurve, n_genus
from .seifert import HomologyCase, Z2Class, homology_structure

VERTICAL = "vertical"
HORIZONTAL = "horizontal"


@dataclass(frozen=True)
class PHParams:
    """Boundary slopes ((l1,m1),(l2,m2),(l3,m3)) of a pseudo-horizontal
    candidate; ``lam`` is the lcm of the l_i, the degree of the branched
    cover over the base sphere."""

    pairs: tuple
    lam: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = tuple((int(l), int(m)) for l, m in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if len(pairs) != 3:
            raise PresentationError("need three slope pairs")
        for l, m in pairs:
            if l <= 0:
                raise PresentationError(f"slope ({l}, {m}) needs l > 0")
            if gcd(l, m) != 1:
                raise PresentationError(f"slope ({l}, {m}) is not coprime")
        object.__setattr__(self, "lam", lcm(*(l for l, _ in pairs)))


@dataclass(frozen=True)
class VerticalSurface:
    """The pseudo-vertical surface connecting fibers i and j (1-based)."""

    connects: tuple

    def __post_init__(self):
        ij = tuple(sorted(self.connects))
        object.__setattr__(self, "connects", ij)
        if len(ij) != 2 or not set(ij) <= {1, 2, 3} or ij[0] == ij[1]:
            raise PresentationError(f"bad fiber pair {self.connects}")


@dataclass(frozen=True)
class SurfaceReport:
    """One candidate surface: its kind, parameters, genus and class."""

    kind: str
    vertical: VerticalSurface | None
    horizontal: PHParams | None
    genus: int
    z2class: Z2Class

    def __post_init__(self):
        if self.kind not in (VERTICAL, HORIZONTAL):
            raise PresentationError(f"unknown surface kind {self.kind!r}")
        if (self.kind == VERTICAL) != (self.vertical is not None):
            raise PresentationError("vertical report needs fiber pair")
        if (self.kind == HORIZONTAL) != (self.horizontal is not None):
            raise PresentationError("horizontal report needs slopes")
        if self.genus < 1:
            raise InternalInvariantError(
                f"surface genus must be positive, got {self.genus}")

    @property
    def norm_contribution(self):
        # -chi = genus - 2 for a connected one-sided surface; a Klein
        # bottle or projective plane contributes nothing.
        return max(0, self.genus - 2)

    def params(self):
        if self.kind == VERTICAL:
            return list(self.vertical.connects)
        return [list(p) for p in self.horizontal.pairs]

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "params": self.params(),
            "genus": self.genus,
            "class": self.z2class.label,
            "norm": self.norm_contribution,
        }


def surface_report_from_json(data):
    kind = data["kind"]
    z2class = Z2Class(tuple(int(ch) for ch in data["class"]))
    if kind == VERTICAL:
        return SurfaceReport(kind, VerticalSurface(tuple(data["params"])),
                             None, data["genus"], z2class)
    return SurfaceReport(kind, None, PHParams(tuple(map(tuple,
                                                        data["params"]))),
                         data["genus"], z2class)


# Reason codes, in the order the conditions are tested.
REASON_SLOPE_SUM = "slope_sum_nonzero"
REASON_PARITY = "parity_trichotomy"
REASON_LCM = "lcm_restriction"
REASON_CONGRUENCE = "fiber_congruence"
REASON_ALL_FIXED = "orientable_horizontal"


def ph_obstruction(presentation, params):
    """First failed existence condition, or None when the surface exists.

    The conditions: the slopes sum to zero; their parities fall in one of
    the three admissible patterns (all l odd with even m-sum, exactly two
    l even, all l even); every l_i either equals the covering degree or
    the slope is the fiber pair itself (two parallel one-sided caps in
    one solid torus would intersect); l_i = a_i and m_i = b_i mod 2; and
    not every slope is its fiber pair, which would cap every boundary by
    disks and produce an orientable horizontal surface, impossible in a
    small manifold.  The slopes sum to zero exactly when the integers
    m_i * (lam // l_i) do.
    """
    pairs = params.pairs
    lam = params.lam
    (l1, m1), (l2, m2), (l3, m3) = pairs
    if m1 * (lam // l1) + m2 * (lam // l2) + m3 * (lam // l3) != 0:
        return REASON_SLOPE_SUM
    evens = sum(1 for l, _ in pairs if l % 2 == 0)
    mu_sum = m1 + m2 + m3
    if not (evens == 2 or (evens == 0 and mu_sum % 2 == 0) or evens == 3):
        return REASON_PARITY
    fixed = [pairs[i] == presentation.fibers[i].pair for i in range(3)]
    for i in range(3):
        if pairs[i][0] != lam and not fixed[i]:
            return REASON_LCM
    for i, (l, m) in enumerate(pairs):
        f = presentation.fibers[i]
        if (l - f.alpha) % 2 != 0 or (m - f.beta) % 2 != 0:
            return REASON_CONGRUENCE
    if all(fixed):
        return REASON_ALL_FIXED
    return None


def ph_exists(presentation, params):
    return ph_obstruction(presentation, params) is None


def cap_slopes(presentation, params):
    """Boundary slope, on each solid torus, of the surface piece capping
    the staircase there: the image of (l_i, m_i) under the inverse gluing.

    The longitude coefficient m_i*a_i - l_i*b_i is even for every
    existing candidate, and the pair is coprime, so each is a valid input
    to N; fibers with (l_i, m_i) = (a_i, b_i) give the meridian (0, 1).
    """
    out = []
    for (l, m), f in zip(params.pairs, presentation.fibers):
        out.append(LensCurve(m * f.alpha - l * f.beta,
                             l * f.delta - m * f.gamma))
    return tuple(out)


def _require_surface(presentation, params):
    reason = ph_obstruction(presentation, params)
    if reason is not None:
        raise NoSurfaceError(
            f"no pseudo-horizontal surface with these slopes: {reason}")


def _genus(presentation, params):
    # The genus of ``ph_genus`` for slopes already known to exist.
    lam = params.lam
    (l1, _), (l2, _), (l3, _) = params.pairs
    genus = 2 + lam - lam // l1 - lam // l2 - lam // l3
    for curve in cap_slopes(presentation, params):
        genus += n_genus(curve)
    if genus < 1:
        raise InternalInvariantError(
            f"nonpositive genus {genus} for {params.pairs}")
    return genus


def ph_genus(presentation, params):
    """Genus of the pseudo-horizontal surface with the given slopes.

    2 + lam*(1 - sum(1/l_i)) = 2 + lam - sum(lam // l_i) counts the
    capped-off branched cover by Riemann-Hurwitz; each solid torus then
    swaps a disk for a one-sided surface of genus N(cap slope).  Integer
    arithmetic throughout: every l_i divides lam.  Raises
    ``NoSurfaceError`` (a ``PresentationError``) when the slopes bound
    no surface.
    """
    _require_surface(presentation, params)
    return _genus(presentation, params)


def ph_class(presentation, params, structure=None):
    """The Z/2 class represented by the pseudo-horizontal surface.

    When H_2 is cyclic the surface represents its only nonzero class.
    In the Klein four case the class is read off from the parities of the
    intersection numbers with the h-curves, m_i * lam / l_i.
    ``structure`` is ``homology_structure(presentation)``, computed here
    when not given.
    """
    if structure is None:
        structure = homology_structure(presentation)
    if structure.case is HomologyCase.TRIVIAL:
        raise PresentationError(
            "H_2(M; Z/2) = 0: no nonzero class to represent")
    if structure.case is not HomologyCase.KLEIN_FOUR:
        return structure.nonzero_classes[0]
    lam = params.lam
    parities = tuple((m * (lam // l)) % 2 for l, m in params.pairs)
    cls = Z2Class(parities)
    if cls not in structure.nonzero_classes:
        raise InternalInvariantError(
            f"parities {parities} name no class of the Klein four group")
    return cls


def horizontal_report(presentation, params, structure=None):
    """The priced surface with these slopes: one existence check, then
    its genus and class.  Raises ``NoSurfaceError`` as ``ph_genus`` does;
    ``structure`` is passed on to ``ph_class``."""
    _require_surface(presentation, params)
    return SurfaceReport(HORIZONTAL, None, params,
                         _genus(presentation, params),
                         ph_class(presentation, params, structure))


def vertical_surfaces(presentation):
    """All pseudo-vertical surfaces, one per pair of even-alpha fibers.

    With zero or one even multiplicity there are none (the annulus part
    needs an even-slope cap on both ends).  Two even multiplicities give
    the single surface representing the only nonzero class; three give
    V_12, V_13, V_23 representing the three classes of the Klein four
    group, with V_{i,j} pairing nontrivially with h_i and h_j only.
    """
    structure = homology_structure(presentation)
    evens = [i for i, a in enumerate(presentation.alphas) if a % 2 == 0]
    if structure.case in (HomologyCase.TRIVIAL,
                          HomologyCase.CYCLIC_VERTICAL):
        return []
    reports = []
    for a in range(len(evens)):
        for b in range(a + 1, len(evens)):
            i, j = evens[a], evens[b]
            genus = sum(n_genus(LensCurve(presentation.fibers[x].alpha,
                                          presentation.fibers[x].beta))
                        for x in (i, j))
            if structure.case is HomologyCase.KLEIN_FOUR:
                cls = Z2Class(tuple(1 if x in (i, j) else 0
                                    for x in range(3)))
            else:
                cls = structure.nonzero_classes[0]
            reports.append(SurfaceReport(
                VERTICAL, VerticalSurface((i + 1, j + 1)), None, genus,
                cls))
    return reports
