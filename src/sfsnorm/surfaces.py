"""Candidate one-sided surfaces in a small Seifert fibered space.

Two shapes occur.  A pseudo-vertical surface V_{i,j} is a vertical
annulus capped off by one-sided surfaces in the solid tori around two
even-multiplicity fibers; its genus is N(a_i, b_i) + N(a_j, b_j).  A
pseudo-horizontal surface is a horizontal branched cover of the base
capped off, in each solid torus, by meridian disks or a single one-sided
surface, and is determined by three boundary slopes (l_i, m_i) with
l_i > 0 written against the horizontal/vertical curve basis.  A
``SurfaceReport`` holds a surface of either shape, whose type is its kind.

Existence of the pseudo-horizontal surface with given slopes is an
if-and-only-if list of elementary conditions; its genus follows from the
Riemann-Hurwitz count of the covering plus one N-term per solid torus.
Every l_i divides the covering degree lam, so both are integer sums of
the terms lam // l_i.  Pricing a candidate builds no per-candidate
curve objects: each cap slope is two ints priced by ``slope_genus``,
and its class is the interned ``Z2Class`` of its parities.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import attrgetter

from ._value import Value, _set
from .errors import InternalInvariantError, NoSurfaceError, PresentationError
from .lens import LensCurve, n_genus, slope_genus
from .seifert import (
    HomologyCase,
    SeifertPresentation,
    Z2Class,
    homology_structure,
)

VERTICAL = "vertical"
HORIZONTAL = "horizontal"


class PHParams(Value):
    """Boundary slopes ((l1,m1),(l2,m2),(l3,m3)) of a pseudo-horizontal
    candidate; ``lam`` is the lcm of the l_i, the degree of the branched
    cover over the base sphere, kept out of the repr and comparisons."""

    __slots__ = ("pairs", "lam")
    _fields = ("pairs",)
    kind = HORIZONTAL

    def __init__(self, pairs):
        try:
            pairs = tuple([(l, m) for l, m in pairs])
        except (TypeError, ValueError):  # not an iterable of pairs
            raise PresentationError(f"slopes {pairs!r} are not pairs") \
                from None
        if len(pairs) != 3:
            raise PresentationError("need three slope pairs")
        for l, m in pairs:
            if type(l) is not int or type(m) is not int:
                raise PresentationError(
                    f"slope ({l!r}, {m!r}) needs integer entries")
            if l <= 0:
                raise PresentationError(f"slope ({l}, {m}) needs l > 0")
            if gcd(l, m) != 1:
                raise PresentationError(f"slope ({l}, {m}) is not coprime")
        _set(self, "pairs", pairs)
        _set(self, "lam", lcm(pairs[0][0], pairs[1][0], pairs[2][0]))


class VerticalSurface(Value):
    """The pseudo-vertical surface connecting fibers i and j (1-based)."""

    __slots__ = _fields = ("connects",)
    kind = VERTICAL

    def __init__(self, connects):
        try:
            ij = tuple(connects)
        except TypeError:  # not an iterable
            raise PresentationError(f"fiber pair {connects!r} is not a "
                                    "pair") from None
        if any(type(i) is not int for i in ij):
            raise PresentationError(f"fiber pair {ij!r} needs integer entries")
        ij = tuple(sorted(ij))
        if len(ij) != 2 or not set(ij) <= {1, 2, 3} or ij[0] == ij[1]:
            raise PresentationError(f"bad fiber pair {ij}")
        _set(self, "connects", ij)


class SurfaceReport(Value):
    """One candidate surface with its genus and class."""

    __slots__ = _fields = ("surface", "genus", "z2class")

    def __init__(self, surface, genus, z2class):
        if type(surface) not in (VerticalSurface, PHParams):
            raise PresentationError(f"not a surface: {surface!r}")
        if type(genus) is not int:
            raise PresentationError(f"genus {genus!r} is not an integer")
        if genus < 1:
            raise InternalInvariantError(
                f"surface genus must be positive, got {genus}")
        if type(z2class) is not Z2Class:
            raise PresentationError(f"not a Z/2 class: {z2class!r}")
        _set(self, "surface", surface)
        _set(self, "genus", genus)
        _set(self, "z2class", z2class)

    kind = property(attrgetter("surface.kind"))

    @property
    def norm_contribution(self):
        # -chi = genus - 2 for a connected one-sided surface; a Klein
        # bottle or projective plane contributes nothing.
        return max(0, self.genus - 2)

    def params(self):
        if self.kind == VERTICAL:
            return list(self.surface.connects)
        return [list(p) for p in self.surface.pairs]

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "params": self.params(),
            "genus": self.genus,
            "class": self.z2class.label,
            "norm": self.norm_contribution,
        }


def _require(value, types, what):
    """Raise ``PresentationError`` unless ``value`` is of ``types``, a
    type or a tuple of types: a public argument of the wrong type."""
    if not isinstance(value, types):
        raise PresentationError(f"not {what}: {value!r}")


def json_fields(data, what, fields):
    """The values of the JSON object ``data`` under the keys of
    ``fields``, in order, each of one of the types ``fields`` names for
    it (the exact type, so a bool is no int); raises
    ``PresentationError``, naming the ``what`` of ``data``, otherwise."""
    if type(data) is not dict:
        raise PresentationError(f"{what} is not a JSON object")
    values = []
    for key, types in fields.items():
        if key not in data:
            raise PresentationError(f"{what} has no {key!r}")
        if type(data[key]) not in types:
            raise PresentationError(f"{what} has a {key!r} of type "
                                    f"{type(data[key]).__name__}")
        values.append(data[key])
    return values


def surface_report_from_json(data, presentation):
    """The ``SurfaceReport`` of the witness record ``data`` in
    ``presentation``, read from its kind and params alone: a horizontal
    witness is priced and a vertical one looked up.  Raises
    ``PresentationError`` on a record that names no surface there."""
    kind, params = json_fields(data, "witness", {
        "kind": (str,), "params": (list,)})
    if kind == HORIZONTAL:
        return horizontal_report(presentation, PHParams(params))
    if kind != VERTICAL:
        raise PresentationError(f"unknown surface kind {kind!r}")
    surface = VerticalSurface(params)
    for report in vertical_surfaces(presentation):
        if report.surface == surface:
            return report
    raise PresentationError(
        f"no pseudo-vertical surface connects fibers {surface.connects}")


# Reason codes, in the order the conditions are tested.
REASON_SLOPE_SUM = "slope_sum_nonzero"
REASON_LCM = "lcm_restriction"
REASON_CONGRUENCE = "fiber_congruence"
REASON_ALL_FIXED = "orientable_horizontal"


def ph_obstruction(presentation, params):
    """First failed existence condition, or None when the surface exists.

    The conditions: the slopes sum to zero; every l_i either equals the
    covering degree or the slope is the fiber pair itself (two parallel
    one-sided caps in one solid torus would intersect); l_i = a_i and
    m_i = b_i mod 2; and not every slope is its fiber pair, which would
    cap every boundary by disks and produce an orientable horizontal
    surface, impossible in a small manifold.  The slopes sum to zero
    exactly when the integers m_i * (lam // l_i) do.

    The existence theorem also asks the parities to fall in one of three
    patterns (all l odd with even m-sum, exactly two l even, all l even).
    A zero slope sum implies this, so it is not tested.  With exactly one
    even l_i, lam // l_i is odd for it and even for the two odd l, and
    its m_i is odd (coprime to an even l_i), so the integer sum is odd.
    With every l_i odd, each lam // l_i is odd, so the sum has the parity
    of the m-sum.
    """
    _require(presentation, SeifertPresentation, "a presentation")
    _require(params, PHParams, "pseudo-horizontal slopes")
    (l1, m1), (l2, m2), (l3, m3) = params.pairs
    lam = params.lam
    if m1 * (lam // l1) + m2 * (lam // l2) + m3 * (lam // l3) != 0:
        return REASON_SLOPE_SUM
    f1, f2, f3 = presentation.fibers
    a1, b1, a2, b2, a3, b3 = (f1.alpha, f1.beta, f2.alpha, f2.beta,
                              f3.alpha, f3.beta)
    fixed1 = l1 == a1 and m1 == b1
    fixed2 = l2 == a2 and m2 == b2
    fixed3 = l3 == a3 and m3 == b3
    if (l1 != lam and not fixed1) or (l2 != lam and not fixed2) or \
            (l3 != lam and not fixed3):
        return REASON_LCM
    if (l1 - a1) % 2 or (m1 - b1) % 2 or (l2 - a2) % 2 or \
            (m2 - b2) % 2 or (l3 - a3) % 2 or (m3 - b3) % 2:
        return REASON_CONGRUENCE
    if fixed1 and fixed2 and fixed3:
        return REASON_ALL_FIXED
    return None


def ph_exists(presentation, params):
    return ph_obstruction(presentation, params) is None


def ph_genus(presentation, params):
    """Genus of the pseudo-horizontal surface with the given slopes.

    2 + lam*(1 - sum(1/l_i)) = 2 + lam - sum(lam // l_i) counts the
    capped-off branched cover by Riemann-Hurwitz; each solid torus then
    swaps a disk for a one-sided surface of genus N(cap slope).  Integer
    arithmetic throughout: every l_i divides lam.  Raises
    ``NoSurfaceError`` (a ``PresentationError``) when the slopes bound
    no surface.
    """
    return horizontal_report(presentation, params).genus


def ph_class(presentation, params):
    """The Z/2 class represented by the pseudo-horizontal surface.
    Raises ``NoSurfaceError`` as ``ph_genus`` does."""
    return horizontal_report(presentation, params).z2class


def _ph_class(presentation, params):
    """The class of the surface of slopes that pass ``ph_obstruction``.

    Such slopes force a nonzero class: by the parity argument there,
    every a_i is odd with an even b-sum, or two or three a_i are even.
    When H_2 is cyclic the surface represents its only nonzero class.
    In the Klein four case the class is read off from the parities of
    the intersection numbers with the h-curves, m_i * lam / l_i, two of
    them odd: every m_i is odd, the zero sum makes their sum even, and
    lam / l_i is odd for the l_i of largest 2-power.  The case and the
    classes are those of the interned ``homology_structure``.
    """
    structure = homology_structure(presentation)
    if structure.case is not HomologyCase.KLEIN_FOUR:
        return structure.nonzero_classes[0]
    lam = params.lam
    (l1, m1), (l2, m2), (l3, m3) = params.pairs
    return Z2Class((m1 * (lam // l1) % 2, m2 * (lam // l2) % 2,
                    m3 * (lam // l3) % 2))


def horizontal_report(presentation, params):
    """The priced surface with these slopes: one existence check, then
    its genus (see ``ph_genus``) and class (see ``_ph_class``).  This is
    the one checked entry that prices a pseudo-horizontal surface.
    Raises ``NoSurfaceError`` as ``ph_genus`` does."""
    reason = ph_obstruction(presentation, params)
    if reason is not None:
        raise NoSurfaceError(
            f"no pseudo-horizontal surface with these slopes: {reason}")
    # Each cap slope is two ints priced by ``slope_genus``: its longitude
    # coefficient is even for every existing candidate, and fibers with
    # (l_i, m_i) = (a_i, b_i) give the meridian (0, 1).
    lam = params.lam
    genus = 2 + lam
    for (l, m), f in zip(params.pairs, presentation.fibers):
        genus += slope_genus(*f.cap_slope(l, m)) - lam // l
    return SurfaceReport(params, genus, _ph_class(presentation, params))


# V_{i+1,j+1} for each pair i < j of 0-based fiber indices, built once.
_VERTICAL_SURFACES = {(i, j): VerticalSurface((i + 1, j + 1))
                      for i, j in ((0, 1), (0, 2), (1, 2))}


def vertical_surfaces(presentation):
    """All pseudo-vertical surfaces, one per pair of even-alpha fibers.

    With zero or one even multiplicity there are none (the annulus part
    needs an even-slope cap on both ends).  Two even multiplicities give
    the single surface representing the only nonzero class; three give
    V_12, V_13, V_23 representing the three classes of the Klein four
    group, with V_{i,j} pairing nontrivially with h_i and h_j only: the
    class off the third fiber in the interned
    ``homology_structure(presentation)``.
    """
    _require(presentation, SeifertPresentation, "a presentation")
    evens = [(i, fiber) for i, fiber in enumerate(presentation.fibers)
             if fiber.alpha % 2 == 0]
    if len(evens) < 2:
        return []
    structure = homology_structure(presentation)
    # N(a_i, b_i) once per even fiber: V_ij has genus N_i + N_j.
    genera = [(i, n_genus(LensCurve(fiber.alpha, fiber.beta)))
              for i, fiber in evens]
    reports = []
    for n, (i, ni) in enumerate(genera):
        for j, nj in genera[n + 1:]:
            reports.append(SurfaceReport(
                _VERTICAL_SURFACES[i, j], ni + nj,
                structure.class_off(3 - i - j)))
    return reports
