"""Tests for pseudo-horizontal and pseudo-vertical surface machinery."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from sfsnorm.errors import NoSurfaceError, PresentationError
from sfsnorm.lens import LensCurve, n_genus
from sfsnorm.seifert import SeifertPresentation, homology_structure
from sfsnorm.surfaces import (
    HORIZONTAL,
    VERTICAL,
    PHParams,
    REASON_ALL_FIXED,
    REASON_CONGRUENCE,
    REASON_LCM,
    REASON_SLOPE_SUM,
    cap_slopes,
    horizontal_report,
    ph_class,
    ph_exists,
    ph_genus,
    ph_obstruction,
    surface_report_from_json,
    vertical_surfaces,
)


def M(*pairs):
    return SeifertPresentation.from_pairs(pairs)


def P(*pairs):
    return PHParams(tuple(pairs))


M_238 = M((2, -1), (3, 1), (8, 1))


class TestPHParams:
    def test_lcm(self):
        assert P((2, -1), (3, 1), (6, 1)).lam == 6

    def test_rejects_nonpositive_or_noncoprime(self):
        with pytest.raises(PresentationError):
            P((0, 1), (3, 1), (6, 1))
        with pytest.raises(PresentationError):
            P((2, -1), (3, 1), (6, 2))


class TestPhExists:
    def test_figure_example(self):
        assert ph_exists(M_238, P((2, -1), (3, 1), (6, 1)))

    def test_all_fixed_triple_fails(self):
        # Capping every boundary with disks would need the fiber slopes
        # themselves, whose sum is the (nonzero) Euler sum, so the slope
        # sum condition already rejects the orientable configuration.
        p = P((2, -1), (3, 1), (8, 1))
        assert not ph_exists(M_238, p)
        assert ph_obstruction(M_238, p) == REASON_SLOPE_SUM

    def test_all_lambda_equal_even_fails(self):
        m = M((2, -1), (2, 1), (6, 1))
        # With all three l equal and even every m is odd, so the slope
        # sum cannot vanish; the first violated condition reports it.
        assert ph_obstruction(m, P((2, 1), (2, 1), (2, 1))) \
            == REASON_SLOPE_SUM
        assert not ph_exists(m, P((2, 1), (2, 1), (2, 1)))

    def test_reason_order(self):
        assert ph_obstruction(M_238, P((2, -1), (3, 1), (7, 2))) \
            == REASON_SLOPE_SUM
        # Sum zero, parities fine, l_3 neither the lcm nor the fiber pair.
        assert ph_obstruction(M_238, P((2, -1), (6, 1), (3, 1))) \
            == "lcm_restriction"
        assert ph_obstruction(M_238, P((3, -1), (3, 1), (1, 0))) \
            == "lcm_restriction"
        # Sum zero, lcm fine, but m_1 and b_1 have different parities.
        m = M((3, 2), (5, 2), (7, 4))
        assert ph_obstruction(m, P((1, 1), (1, 1), (1, -2))) \
            == "fiber_congruence"


class TestCapSlopes:
    def test_fixed_pairs_give_meridian(self):
        caps = cap_slopes(M_238, P((2, -1), (3, 1), (6, 1)))
        assert caps[0] == LensCurve(0, 1)
        assert caps[1] == LensCurve(0, 1)
        assert caps[2] == LensCurve(2, -1)

    def test_even_and_coprime_for_existing_candidates(self):
        m = M((2, -1), (2, 1), (6, 1))
        for s in (1, 3, -1, 5):
            p = P((2, -1), (4, s), (4, 2 - s))
            if not ph_exists(m, p):
                continue
            for c in cap_slopes(m, p):
                assert c.twok % 2 == 0  # construction validates coprime


class TestPhGenus:
    def test_figure_example(self):
        assert ph_genus(M_238, P((2, -1), (3, 1), (6, 1))) == 3

    def test_isotopic_pair_example(self):
        m = M((2, -1), (3, 1), (4, 1))
        assert ph_genus(m, P((2, -1), (3, 1), (6, 1))) == 3

    def test_twelve_cover_example(self):
        m = M((3, -1), (4, 1), (14, 1))
        assert ph_genus(m, P((3, -1), (4, 1), (12, 1))) == 7

    def test_rejects_nonexistent(self):
        p = P((2, -1), (3, 1), (8, 1))
        with pytest.raises(PresentationError):
            ph_genus(M_238, p)
        with pytest.raises(NoSurfaceError):
            horizontal_report(M_238, p)

    def test_closed_form_families(self):
        # Witness slopes of the three example families and their genus
        # in closed form, over the constraint-respecting grids.
        for m in (1, 2, 3):
            for n in range(2 * m + 2, 2 * m + 8):
                space = M((2, -1), (2 * m + 1, m), (2 * n, 1))
                p = P((2, -1), (2 * m + 1, m), (4 * m + 2, 1))
                assert ph_genus(space, p) == n - 1
        for n in range(7, 14):
            space = M((3, -1), (4, 1), (2 * n, 1))
            assert ph_genus(space, P((3, -1), (4, 1), (12, 1))) == n
        for mm in (2, 3, 4):
            for n2 in range(mm, mm + 4):
                for n3 in range(mm, mm + 4):
                    if n2 + n3 <= 2 * mm:
                        continue
                    space = M((mm, -1), (2 * n2, 1), (2 * n3, 1))
                    p = P((mm, -1), (2 * mm, 1), (2 * mm, 1))
                    assert ph_genus(space, p) == n2 + n3 - 2

    def test_completion_invariance(self):
        m = M((2, -1), (2, 1), (6, 1))
        p = P((2, -1), (4, 1), (4, 1))
        base = ph_genus(m, p)
        for t in range(-5, 6):
            shifted = SeifertPresentation(
                tuple(f.shifted(t) for f in m.fibers))
            assert ph_genus(shifted, p) == base


class TestPhClass:
    def test_cyclic_returns_unique_class(self):
        cls = ph_class(M_238, P((2, -1), (3, 1), (6, 1)))
        assert cls.parities == (1, 0, 1)

    def test_klein_four_parities(self):
        m = M((2, -1), (2, 1), (6, 1))
        p = P((2, -1), (4, 1), (4, 1))
        assert ph_exists(m, p)
        # Intersections with h: m_i * lam / l_i = (-2, 1, 1).
        assert ph_class(m, p).parities == (0, 1, 1)

    def test_family_three_example(self):
        # ((m,-1),(2m,1),(2m,1)) hits h_2 and h_3 once each.
        m = M((2, -1), (4, 1), (6, 1))
        p = P((2, -1), (4, 1), (4, 1))
        assert ph_exists(m, p)
        assert ph_class(m, p).parities == (0, 1, 1)

    def test_trivial_homology_rejected(self):
        m = M((3, 1), (5, 1), (7, 1))
        with pytest.raises(PresentationError):
            ph_class(m, P((1, 0), (1, 1), (1, -1)))


class TestVerticalSurfaces:
    def test_klein_four_triple(self):
        reports = vertical_surfaces(M((2, -1), (2, 1), (6, 1)))
        by_pair = {r.vertical.connects: r for r in reports}
        assert by_pair[(1, 2)].genus == 2
        assert by_pair[(1, 3)].genus == 4
        assert by_pair[(2, 3)].genus == 4
        assert by_pair[(1, 2)].z2class.parities == (1, 1, 0)
        assert by_pair[(1, 2)].norm_contribution == 0

    def test_two_even_single(self):
        reports = vertical_surfaces(M_238)
        assert len(reports) == 1
        r = reports[0]
        assert r.vertical.connects == (1, 3)
        assert r.genus == 5
        assert r.z2class.parities == (1, 0, 1)

    def test_all_odd_none(self):
        assert vertical_surfaces(M((3, 2), (5, 2), (7, 4))) == []

    def test_classes_match_homology(self):
        m = M((2, -1), (2, 1), (6, 1))
        classes = set(homology_structure(m).nonzero_classes)
        assert {r.z2class for r in vertical_surfaces(m)} == classes


class TestSurfaceReport:
    def test_json_round_trip(self):
        m = M((2, -1), (2, 1), (6, 1))
        reports = vertical_surfaces(m)
        reports.append(horizontal_report(m, P((2, -1), (4, 1), (4, 1))))
        for r in reports:
            data = r.to_json_dict()
            again = surface_report_from_json(data)
            assert again == r
            assert data["norm"] == max(0, r.genus - 2)

    def test_kinds(self):
        m = M((2, -1), (2, 1), (6, 1))
        assert vertical_surfaces(m)[0].kind == VERTICAL
        r = horizontal_report(m, P((2, -1), (4, 1), (4, 1)))
        assert r.kind == HORIZONTAL
        assert r.genus == 4


def reference_slope_sum(params):
    return sum((Fraction(m, l) for l, m in params.pairs), Fraction(0))


def reference_obstruction(presentation, params, slope_sum):
    """The existence check as it stood with ``Fraction`` slope sums and
    the parity condition, which a zero slope sum implies and
    ``ph_obstruction`` no longer tests; ``slope_sum`` is
    ``reference_slope_sum(params)``."""
    pairs = params.pairs
    if slope_sum != 0:
        return REASON_SLOPE_SUM
    evens = sum(1 for l, _ in pairs if l % 2 == 0)
    mu_sum = sum(m for _, m in pairs)
    if not (evens == 2 or (evens == 0 and mu_sum % 2 == 0) or evens == 3):
        return "parity_trichotomy"
    lam = lcm(*(l for l, _ in pairs))
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


def reference_cover(params):
    """Riemann-Hurwitz genus of the capped cover, in fractions."""
    lam = lcm(*(l for l, _ in params.pairs))
    return 2 + lam * (1 - sum(Fraction(1, l) for l, _ in params.pairs))


class TestIntegerPricing:
    """The integer existence check and genus against the fraction ones."""

    BOUND = 12

    def box(self):
        """Every triple of box slopes (l <= 12, |m| <= 12) summing to
        zero, where all later conditions are reached, and a seeded sample
        of arbitrary box triples."""
        slopes = [(l, m) for l in range(1, self.BOUND + 1)
                  for m in range(-self.BOUND, self.BOUND + 1)
                  if gcd(l, m) == 1]
        in_box = set(slopes)
        zero_sum = []
        for a in slopes:
            for b in slopes:
                rest = -(Fraction(a[1], a[0]) + Fraction(b[1], b[0]))
                c = (rest.denominator, rest.numerator)
                if c in in_box:
                    zero_sum.append(P(a, b, c))
        rng = random.Random(5)
        sample = [P(*(rng.choice(slopes) for _ in range(3)))
                  for _ in range(1000)]
        return zero_sum + sample

    def presentations(self, count):
        rng = random.Random(17)
        found = []
        while len(found) < count:
            pairs = []
            for _ in range(3):
                a = rng.randrange(2, self.BOUND + 1)
                b = rng.choice([b for b in range(-a + 1, a)
                                if gcd(a, b) == 1])
                pairs.append((a, b))
            try:
                found.append(M(*pairs))
            except PresentationError:
                continue
        return found

    def test_matches_fraction_reference(self):
        box = [(p, reference_slope_sum(p)) for p in self.box()]
        reasons = Counter()
        for m in self.presentations(50):
            structure = homology_structure(m)
            for p, slope_sum in box:
                reason = ph_obstruction(m, p)
                assert reason == reference_obstruction(m, p, slope_sum), \
                    (m, p)
                reasons[reason] += 1
                if reason is not None:
                    continue
                cover = reference_cover(p)
                assert cover.denominator == 1
                assert ph_genus(m, p) == cover + sum(
                    n_genus(c) for c in cap_slopes(m, p))
                assert ph_class(m, p, structure) == ph_class(m, p)
        # Every reachable outcome occurs; all-fixed slopes sum to the
        # nonzero Euler number, so that reason never does.
        assert set(reasons) == {None, REASON_SLOPE_SUM,
                                REASON_LCM, REASON_CONGRUENCE}
