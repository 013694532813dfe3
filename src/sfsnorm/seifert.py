"""Small Seifert fibered spaces over S^2 with three exceptional fibers.

A presentation S^2((a1,b1),(a2,b2),(a3,b3)) records, for each exceptional
fiber, the gluing of a solid torus to the trivially fibered complement:
meridian and longitude map to a*[h] + b*[v] and g*[h] + d*[v] with
determinant ad - bg = 1.  Only (a, b) is intrinsic; (g, d) is a choice of
completion, and every quantity computed downstream is invariant under
(g, d) -> (g + t*a, d + t*b).  A boundary slope (l, m) in that basis is
capped in the solid torus at ``FiberMatrix.cap_slope``, its image under
the inverse gluing.

Smallness requires sum(b_i/a_i) != 0, otherwise the manifold contains an
orientable horizontal incompressible surface and none of the one-sided
machinery applies.
"""

from __future__ import annotations

from enum import Enum
from math import gcd

from ._value import Value, _set
from .errors import PresentationError


def complete_matrix(alpha, beta):
    """Canonical determinant-one completion of an exceptional fiber pair.

    delta is the least positive solution of alpha*delta = 1 (mod beta),
    gamma = (alpha*delta - 1)/beta.  For |beta| = 1 this gives delta = 1,
    matching the completions conventionally written for (2,-1), (2n,1)
    and friends.
    """
    _check_fiber_pair(alpha, beta)
    m = abs(beta)
    delta = 1 if m == 1 else pow(alpha, -1, m)
    gamma = (alpha * delta - 1) // beta
    # The pair is checked and the determinant is 1 by construction, so
    # the matrix is stored past the checks of ``FiberMatrix.__init__``.
    matrix = object.__new__(FiberMatrix)
    matrix._store(alpha, beta, gamma, delta)
    return matrix


def _check_fiber_pair(alpha, beta):
    if type(alpha) is not int or type(beta) is not int:
        raise PresentationError(
            f"fiber pair ({alpha!r}, {beta!r}) needs integer entries")
    _check_multiplicity(alpha)
    if gcd(alpha, beta) != 1:
        raise PresentationError(
            f"fiber pair ({alpha}, {beta}) is not coprime")


def _check_multiplicity(alpha):
    if alpha < 2:
        raise PresentationError(
            f"fiber multiplicity must be at least 2, got alpha={alpha} "
            "(alpha < 2 degenerates to a lens space)")


class FiberMatrix(Value):
    """Gluing matrix (alpha beta; gamma delta) of one exceptional fiber."""

    __slots__ = _fields = ("alpha", "beta", "gamma", "delta")

    def __init__(self, alpha, beta, gamma, delta):
        if type(alpha) is not int or type(beta) is not int or \
                type(gamma) is not int or type(delta) is not int:
            raise PresentationError(
                f"gluing matrix ({alpha!r} {beta!r}; {gamma!r} {delta!r}) "
                "needs integer entries")
        # A determinant of 1 already makes (alpha, beta) coprime.
        _check_multiplicity(alpha)
        det = alpha * delta - beta * gamma
        if det != 1:
            raise PresentationError(
                f"gluing matrix ({alpha} {beta}; {gamma} {delta}) has "
                f"determinant {det}, not 1")
        self._store(alpha, beta, gamma, delta)

    def _store(self, alpha, beta, gamma, delta):
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)
        _set(self, "gamma", gamma)
        _set(self, "delta", delta)

    @property
    def pair(self):
        return (self.alpha, self.beta)

    def cap_slope(self, l, m):
        """The slope (2k, q) in the solid torus of the boundary slope
        (l, m): its image (m*alpha - l*beta, l*delta - m*gamma) under the
        inverse gluing.  The map is unimodular, so gcd(2k, q) = gcd(l, m),
        and a change of completion moves q by a multiple of 2k."""
        return (m * self.alpha - l * self.beta,
                l * self.delta - m * self.gamma)

    def shifted(self, t):
        """The equivalent completion (gamma + t*alpha, delta + t*beta)."""
        return FiberMatrix(self.alpha, self.beta,
                           self.gamma + t * self.alpha,
                           self.delta + t * self.beta)


class SeifertPresentation(Value):
    """Ordered triple of fiber matrices with nonzero Euler sum."""

    __slots__ = _fields = ("fibers",)

    def __init__(self, fibers):
        try:
            fibers = tuple(fibers)
        except TypeError:  # not an iterable
            fibers = ()
        if len(fibers) != 3 or not (isinstance(fibers[0], FiberMatrix)
                                    and isinstance(fibers[1], FiberMatrix)
                                    and isinstance(fibers[2], FiberMatrix)):
            raise PresentationError("a presentation needs three fiber "
                                    "matrices")
        _check_small(*fibers)
        self._store(fibers)

    def _store(self, fibers):
        _set(self, "fibers", fibers)

    @classmethod
    def from_pairs(cls, pairs):
        try:
            pairs = [(a, b) for a, b in pairs]
        except (TypeError, ValueError):  # not an iterable of pairs
            raise PresentationError(f"fiber pairs {pairs!r} are not "
                                    "pairs") from None
        if len(pairs) != 3:
            raise PresentationError("a presentation needs three (alpha, "
                                    "beta) pairs")
        (a1, b1), (a2, b2), (a3, b3) = pairs
        fibers = (complete_matrix(a1, b1), complete_matrix(a2, b2),
                  complete_matrix(a3, b3))
        _check_small(*fibers)
        # Three completed matrices: what ``__init__`` checks besides the
        # Euler sum holds by construction.
        self = object.__new__(cls)
        self._store(fibers)
        return self

    def pairs(self):
        return tuple(f.pair for f in self.fibers)


def _check_small(f1, f2, f3):
    # sum(b_i/a_i) = 0 with the denominators cleared (every a_i >= 2).
    a1, a2, a3 = f1.alpha, f2.alpha, f3.alpha
    if f1.beta * a2 * a3 + a1 * f2.beta * a3 + a1 * a2 * f3.beta == 0:
        raise PresentationError(
            "sum(beta_i/alpha_i) = 0: the manifold is not small "
            "(a horizontal incompressible surface exists)")


class HomologyCase(Enum):
    TRIVIAL = "trivial"
    CYCLIC_VERTICAL = "cyclic_vertical"
    CYCLIC_TWO_EVEN = "cyclic_two_even"
    KLEIN_FOUR = "klein_four"


class Z2Class(Value):
    """A nonzero class in H_2(M; Z/2), tagged by parities against the
    horizontal curves h_1, h_2, h_3.

    In the Klein four case the three nonzero classes are exactly the
    triples of even weight, dual to the pseudo-vertical surfaces.  In the
    single-class cases the tag is a fixed conventional label: the even-a
    indicator when exactly two multiplicities are even, and (1, 1, 1)
    when all multiplicities are odd (an intentionally impossible honest
    parity vector, so it cannot be mistaken for one).

    Classes are interned: ``Z2Class`` returns the one instance of its
    parity triple, also through ``copy`` and ``pickle``, so equality and
    hashing are those of identity.
    """

    # ``label`` is the parities as a string, set once per class.
    __slots__ = ("parities", "label")
    _fields = ("parities",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, parities):
        try:
            return _Z2_CLASSES[parities]
        except (KeyError, TypeError):  # new, or not yet a tuple of bits
            pass
        ps = tuple(int(p) for p in parities)
        if len(ps) != 3 or any(p not in (0, 1) for p in ps):
            raise PresentationError(f"parities must be three bits: {ps}")
        if ps == (0, 0, 0):
            raise PresentationError("(0, 0, 0) is the zero class")
        self = object.__new__(cls)
        _set(self, "parities", ps)
        _set(self, "label", "".join(map(str, ps)))
        return _Z2_CLASSES.setdefault(ps, self)

    def __reduce__(self):
        return Z2Class, (self.parities,)


# The interned classes, keyed by parity triple.
_Z2_CLASSES = {}


class HomologyStructure(Value):
    """H_1(M; Z/2) = H_2(M; Z/2) and its nonzero classes."""

    # ``_off`` is the table of ``class_off``, built once per structure.
    __slots__ = ("case", "nonzero_classes", "_off")
    _fields = ("case", "nonzero_classes")

    def __init__(self, case, nonzero_classes):
        expected = {HomologyCase.TRIVIAL: 0,
                    HomologyCase.CYCLIC_VERTICAL: 1,
                    HomologyCase.CYCLIC_TWO_EVEN: 1,
                    HomologyCase.KLEIN_FOUR: 3}[case]
        if len(nonzero_classes) != expected:
            raise PresentationError(
                f"{case.value} needs {expected} classes, got "
                f"{len(nonzero_classes)}")
        _set(self, "case", case)
        _set(self, "nonzero_classes", nonzero_classes)
        if case is HomologyCase.KLEIN_FOUR:
            off = tuple([Z2Class(tuple([int(x != k) for x in range(3)]))
                         for k in range(3)])
        else:
            off = tuple(nonzero_classes) * 3
        _set(self, "_off", off)

    def class_off(self, k):
        """The nonzero class off fiber k (0-based).

        In the Klein four case it is the class with parity 0 at fiber k,
        which pairs nontrivially with the two other h-curves; in a cyclic
        case it is the only nonzero class, whatever k.  A structure with
        no nonzero class has none off any fiber, and raises IndexError.
        """
        return self._off[k]


# Conventional tag for the unique class when all multiplicities are odd.
VERTICAL_DUAL_CLASS = Z2Class((1, 1, 1))


def homology_structure(presentation):
    """Case analysis of H_1(M; Z/2) on the parities of the alphas.

    With all alphas odd the group is trivial or Z/2 according to the
    parity of beta1 + beta2 + beta3 (and the nonzero class, when present,
    pairs with the regular fiber).  One even alpha kills the group, two
    even alphas give Z/2, three give the Klein four group whose nonzero
    classes pair nontrivially with exactly the two h-curves of the
    corresponding even fibers.

    Structures are interned: every presentation with the same parity
    key (a1 % 2, a2 % 2, a3 % 2, (b1 + b2 + b3) % 2) gets the one
    instance built the first time that key is met.
    """
    key = _parity_key(presentation)
    try:
        return _STRUCTURES[key]
    except KeyError:
        return _STRUCTURES.setdefault(key, _build_structure(key))


def _parity_key(presentation):
    f1, f2, f3 = presentation.fibers
    return (f1.alpha % 2, f2.alpha % 2, f3.alpha % 2,
            (f1.beta + f2.beta + f3.beta) % 2)


def _build_structure(key):
    """A new ``HomologyStructure`` for the parity key of
    ``homology_structure``; callers want that function's interned one."""
    evens = [i for i in range(3) if key[i] == 0]
    if len(evens) == 0:
        if key[3] != 0:
            return HomologyStructure(HomologyCase.TRIVIAL, ())
        return HomologyStructure(HomologyCase.CYCLIC_VERTICAL,
                                 (VERTICAL_DUAL_CLASS,))
    if len(evens) == 1:
        return HomologyStructure(HomologyCase.TRIVIAL, ())
    if len(evens) == 2:
        parities = tuple(1 if i in evens else 0 for i in range(3))
        return HomologyStructure(HomologyCase.CYCLIC_TWO_EVEN,
                                 (Z2Class(parities),))
    return HomologyStructure(HomologyCase.KLEIN_FOUR,
                             (Z2Class((1, 1, 0)), Z2Class((1, 0, 1)),
                              Z2Class((0, 1, 1))))


# The interned structures, keyed by parity key.
_STRUCTURES = {}


def to_orlik_normal_form(presentation):
    """(e, ((a1,b1'),(a2,b2'),(a3,b3'))) with 0 < b' < a.

    e + sum(b'_i/a_i) = sum(b_i/a_i); the triple plus e is constant on
    fiber move orbits, so its string form serves as a canonical key.
    """
    f1, f2, f3 = presentation.fibers
    a1, b1, a2, b2, a3, b3 = (f1.alpha, f1.beta, f2.alpha, f2.beta,
                              f3.alpha, f3.beta)
    return (b1 // a1 + b2 // a2 + b3 // a3,
            ((a1, b1 % a1), (a2, b2 % a2), (a3, b3 % a3)))
