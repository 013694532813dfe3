"""Tests for pseudo-horizontal and pseudo-vertical surface machinery."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

import sfsnorm.search
import sfsnorm.surfaces
from sfsnorm.errors import (
    InternalInvariantError,
    LensCurveError,
    NoSurfaceError,
    PresentationError,
)
from sfsnorm.lens import LensCurve, n_genus, slope_genus
from sfsnorm.search import _SearchState, enumerate_case1, enumerate_case3, \
    enumerate_case4
from sfsnorm.seifert import (
    HomologyCase,
    SeifertPresentation,
    Z2Class,
    homology_structure,
)
from sfsnorm.surfaces import (
    HORIZONTAL,
    VERTICAL,
    PHParams,
    SurfaceReport,
    VerticalSurface,
    REASON_ALL_FIXED,
    REASON_CONGRUENCE,
    REASON_LCM,
    REASON_SLOPE_SUM,
    horizontal_report,
    ph_class,
    ph_exists,
    ph_genus,
    ph_obstruction,
    surface_report_from_json,
    vertical_surfaces,
)

from corpora import M, presentations_by_case


def P(*pairs):
    return PHParams(tuple(pairs))


def cap_slopes(presentation, params):
    """Boundary slope, on each solid torus, of the surface piece capping
    the staircase there: the image of (l_i, m_i) under the inverse gluing.

    The longitude coefficient m_i*a_i - l_i*b_i is even for every
    existing candidate, and the pair is coprime, so each is a valid input
    to N; fibers with (l_i, m_i) = (a_i, b_i) give the meridian (0, 1).
    """
    return tuple(LensCurve(m * f.alpha - l * f.beta,
                           l * f.delta - m * f.gamma)
                 for (l, m), f in zip(params.pairs, presentation.fibers))


M_238 = M((2, -1), (3, 1), (8, 1))


class TestPHParams:
    def test_lcm(self):
        assert P((2, -1), (3, 1), (6, 1)).lam == 6

    def test_rejects_nonpositive_or_noncoprime(self):
        with pytest.raises(PresentationError):
            P((0, 1), (3, 1), (6, 1))
        with pytest.raises(PresentationError):
            P((2, -1), (3, 1), (6, 2))

    @pytest.mark.parametrize("pairs", [
        ((2.5, -1), (3, 1), (6, 1)), ((2, -1.0), (3, 1), (6, 1)),
        (("2", -1), (3, 1), (6, 1)), ((2, -1), (3, True), (6, 1))])
    def test_rejects_non_integers(self, pairs):
        # 2.5 used to become 2, and '2' and True passed as 2 and 1.
        with pytest.raises(PresentationError, match="integer entries"):
            PHParams(pairs)


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
    @pytest.mark.parametrize("connects", [(2.0, 1), (1, True), ("1", 2)])
    def test_rejects_non_integers(self, connects):
        # (2.0, 1) used to keep connects=(1, 2.0), and True passed as 1.
        with pytest.raises(PresentationError, match="integer entries"):
            VerticalSurface(connects)

    def test_klein_four_triple(self):
        reports = vertical_surfaces(M((2, -1), (2, 1), (6, 1)))
        by_pair = {r.surface.connects: r for r in reports}
        assert by_pair[(1, 2)].genus == 2
        assert by_pair[(1, 3)].genus == 4
        assert by_pair[(2, 3)].genus == 4
        assert by_pair[(1, 2)].z2class.parities == (1, 1, 0)
        assert by_pair[(1, 2)].norm_contribution == 0

    def test_two_even_single(self):
        reports = vertical_surfaces(M_238)
        assert len(reports) == 1
        r = reports[0]
        assert r.surface.connects == (1, 3)
        assert r.genus == 5
        assert r.z2class.parities == (1, 0, 1)

    def test_all_odd_none(self):
        assert vertical_surfaces(M((3, 2), (5, 2), (7, 4))) == []

    def test_classes_match_homology(self):
        m = M((2, -1), (2, 1), (6, 1))
        classes = set(homology_structure(m).nonzero_classes)
        assert {r.z2class for r in vertical_surfaces(m)} == classes

    def test_shared_values_match_definition(self):
        # Each V_ij built from scratch: a new surface, N at both of its
        # ends, and the class off the third fiber.
        for m in presentations_by_case(25, seed=29):
            structure = homology_structure(m)
            evens = [(i, f) for i, f in enumerate(m.fibers)
                     if f.alpha % 2 == 0]
            expected = [SurfaceReport(
                VerticalSurface((i + 1, j + 1)),
                n_genus(LensCurve(fi.alpha, fi.beta))
                + n_genus(LensCurve(fj.alpha, fj.beta)),
                structure.class_off(3 - i - j))
                for (i, fi), (j, fj) in itertools.combinations(evens, 2)]
            assert vertical_surfaces(m) == expected

    def test_one_n_per_even_fiber(self, monkeypatch):
        calls = []

        def spy(curve):
            calls.append((curve.twok, curve.q))
            return n_genus(curve)

        monkeypatch.setattr(sfsnorm.surfaces, "n_genus", spy)
        expected_calls = {HomologyCase.KLEIN_FOUR: 3,
                          HomologyCase.CYCLIC_TWO_EVEN: 2}
        for m in presentations_by_case(10, seed=31):
            calls.clear()
            vertical_surfaces(m)
            case = homology_structure(m).case
            assert len(calls) == expected_calls.get(case, 0)
            if calls:
                assert calls == [f.pair for f in m.fibers
                                 if f.alpha % 2 == 0]


class TestSurfaceReport:
    def test_json_round_trip(self):
        m = M((2, -1), (2, 1), (6, 1))
        reports = vertical_surfaces(m)
        reports.append(horizontal_report(m, P((2, -1), (4, 1), (4, 1))))
        for r in reports:
            data = r.to_json_dict()
            again = surface_report_from_json(data, m)
            assert again == r
            assert data["norm"] == max(0, r.genus - 2)
        data["kind"] = "diagonal"
        with pytest.raises(PresentationError,
                           match="unknown surface kind 'diagonal'"):
            surface_report_from_json(data, m)

    def test_kinds(self):
        m = M((2, -1), (2, 1), (6, 1))
        assert vertical_surfaces(m)[0].kind == VERTICAL
        r = horizontal_report(m, P((2, -1), (4, 1), (4, 1)))
        assert r.kind == HORIZONTAL
        assert r.genus == 4


def reference_slope_sum(params):
    return sum((Fraction(m, l) for l, m in params.pairs), Fraction(0))


def reference_obstruction(presentation, params, slope_sum=None):
    """The existence check as it stood with ``Fraction`` slope sums, the
    parity condition, which a zero slope sum implies and
    ``ph_obstruction`` no longer tests, and the list-based test of the
    slopes that are their fiber pairs; ``slope_sum`` is
    ``reference_slope_sum(params)``, computed here when not given."""
    if slope_sum is None:
        slope_sum = reference_slope_sum(params)
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
        trivial = 0
        for m in self.presentations(50):
            structure = homology_structure(m)
            trivial += structure.case is HomologyCase.TRIVIAL
            for p, slope_sum in box:
                reason = ph_obstruction(m, p)
                assert reason == reference_obstruction(m, p, slope_sum), \
                    (m, p)
                reasons[reason] += 1
                if reason is not None:
                    continue
                # Slopes that pass force a nonzero class, so a trivial
                # H_2 has no surface to price.
                assert structure.case is not HomologyCase.TRIVIAL, (m, p)
                cover = reference_cover(p)
                assert cover.denominator == 1
                assert ph_genus(m, p) == cover + sum(
                    n_genus(c) for c in cap_slopes(m, p))
                cls = ph_class(m, p)
                assert cls in structure.nonzero_classes, (m, p)
                assert cls.parities == reference_class(m, p, structure)
        # Every reachable outcome occurs; all-fixed slopes sum to the
        # nonzero Euler number, so that reason never does.
        assert set(reasons) == {None, REASON_SLOPE_SUM,
                                REASON_LCM, REASON_CONGRUENCE}
        assert trivial >= 10


def reference_genus(presentation, params):
    """The genus as ``ph_genus`` priced it with curve objects: the
    fraction Riemann-Hurwitz count plus ``n_genus`` of each curve of
    ``cap_slopes``."""
    return reference_cover(params) + sum(
        n_genus(c) for c in cap_slopes(presentation, params))


def reference_class(presentation, params, structure):
    """The parities of the class, each computed afresh: the one nonzero
    class when H_2 is cyclic, else the parities of m_i * lam / l_i."""
    if structure.case is not HomologyCase.KLEIN_FOUR:
        return structure.nonzero_classes[0].parities
    lam = lcm(*(l for l, _ in params.pairs))
    return tuple(int(Fraction(m * lam, l)) % 2 for l, m in params.pairs)


def reference_params(pairs):
    """``PHParams`` validation as a ``__post_init__``: the normalized
    pairs and their lcm, or the message of the ``PresentationError``."""
    pairs = tuple((int(l), int(m)) for l, m in pairs)
    if len(pairs) != 3:
        return "need three slope pairs"
    for l, m in pairs:
        if l <= 0:
            return f"slope ({l}, {m}) needs l > 0"
        if gcd(l, m) != 1:
            return f"slope ({l}, {m}) is not coprime"
    return pairs, lcm(*(l for l, _ in pairs))


def seeded_presentations(per_case, seed=23, max_alpha=16):
    """``per_case`` random presentations of each homology case."""
    rng = random.Random(seed)
    found = {case: [] for case in HomologyCase}
    while min(len(ms) for ms in found.values()) < per_case:
        pairs = []
        for _ in range(3):
            a = rng.randrange(2, max_alpha + 1)
            b = rng.choice([b for b in range(-2 * a, 2 * a + 1)
                            if gcd(a, b) == 1])
            pairs.append((a, b))
        try:
            m = M(*pairs)
        except PresentationError:
            continue
        bucket = found[homology_structure(m).case]
        if len(bucket) < per_case:
            bucket.append(m)
    return [m for ms in found.values() for m in ms]


def assert_priced_as_reference(presentation, params):
    """``horizontal_report`` against the object-based references: the
    reason code of a rejected candidate, the genus and class of the
    others.  Returns the reason, None for a priced surface."""
    reason = ph_obstruction(presentation, params)
    assert reason == reference_obstruction(presentation, params), \
        (presentation, params)
    if reason is not None:
        with pytest.raises(NoSurfaceError, match=reason):
            horizontal_report(presentation, params)
        return reason
    report = horizontal_report(presentation, params)
    assert report.genus == reference_genus(presentation, params), \
        (presentation, params)
    assert report.genus == ph_genus(presentation, params)
    parities = reference_class(presentation, params,
                               homology_structure(presentation))
    assert report.z2class.parities == parities
    assert report.z2class is Z2Class(parities)
    assert report.surface is params and report.kind == HORIZONTAL
    return None


def case4_complements(presentation):
    """Every triple of the case-4 shape, in the order ``enumerate_case4``
    meets them: the fiber pairs of fibers i and j with a_i < a_j, and on
    the third fiber their zero-sum complement, kept when its denominator
    exceeds a_j.  Whether each bounds a surface is left open."""
    fibers = presentation.fibers
    for i, j in itertools.permutations(range(3), 2):
        fi, fj = fibers[i], fibers[j]
        if not fi.alpha < fj.alpha:
            continue
        rest = -(Fraction(fi.beta, fi.alpha) + Fraction(fj.beta, fj.alpha))
        if rest == 0 or rest.denominator <= fj.alpha:
            continue
        pairs = [None, None, None]
        pairs[i], pairs[j] = fi.pair, fj.pair
        pairs[3 - i - j] = (rest.denominator, rest.numerator)
        yield PHParams(pairs)


class TestPricingKernel:
    """The integer pricing kernel against the object-based references."""

    def test_enumerated_candidates(self, monkeypatch):
        # Every candidate the enumerators price, accepted or not, checked
        # as it is priced, so a wrong price stops the search at once.
        # Each enumerator runs from a fresh state, bounded by its own
        # candidates only, so it prices more than behind the vertical
        # surfaces of ``compute_norms``.
        outcomes = Counter()
        real = sfsnorm.search.horizontal_report

        def spy(presentation, params):
            reason = assert_priced_as_reference(presentation, params)
            outcomes[homology_structure(presentation).case,
                     reason is None] += 1
            return real(presentation, params)

        monkeypatch.setattr(sfsnorm.search, "horizontal_report", spy)
        for m in seeded_presentations(75):
            enumerate_case4(_SearchState(m))
            enumerate_case3(_SearchState(m))
            enumerate_case1(_SearchState(m))
            # Case 4 prices only the complements that bound a surface and
            # rules the others out on integers, so those are checked here.
            case = homology_structure(m).case
            for params in case4_complements(m):
                if assert_priced_as_reference(m, params) is not None:
                    outcomes[case, False] += 1
        # The enumerators price only slopes that bound a surface, so the
        # rejected ones are case-4 complements, none of them here on a
        # cyclic-vertical presentation.
        for case in (HomologyCase.CYCLIC_VERTICAL,
                     HomologyCase.CYCLIC_TWO_EVEN, HomologyCase.KLEIN_FOUR):
            assert outcomes[case, True] >= 50, outcomes
        assert outcomes[HomologyCase.CYCLIC_TWO_EVEN, False] >= 10, outcomes
        assert outcomes[HomologyCase.KLEIN_FOUR, False] >= 10, outcomes

    def test_random_box(self):
        rng = random.Random(29)
        presentations = [m for m in seeded_presentations(10, seed=31,
                                                         max_alpha=9)
                         if homology_structure(m).nonzero_classes]
        slopes = [(l, m) for l in range(1, 19) for m in range(-18, 19)
                  if gcd(l, m) == 1]
        outcomes = Counter()
        for m in presentations:
            f1, f2, f3 = m.fibers
            for _ in range(400):
                pairs = [rng.choice(slopes) for _ in range(3)]
                # Aim a third of the triples at zero slope sum, where the
                # later conditions are reached, and pin some fiber pairs.
                for i, f in enumerate(m.fibers):
                    if rng.random() < 0.3:
                        pairs[i] = f.pair
                if rng.random() < 0.4:
                    rest = -(Fraction(pairs[0][1], pairs[0][0])
                             + Fraction(pairs[1][1], pairs[1][0]))
                    if rest != 0:
                        pairs[2] = (rest.denominator, rest.numerator)
                params = P(*pairs)
                outcomes[assert_priced_as_reference(m, params)] += 1
        assert set(outcomes) == {None, REASON_SLOPE_SUM, REASON_LCM,
                                 REASON_CONGRUENCE}, outcomes
        assert min(outcomes.values()) >= 20, outcomes

    def test_params_validation(self):
        rng = random.Random(37)
        checked = Counter()
        for _ in range(4000):
            count = rng.choice((2, 3, 3, 3, 3, 4))
            pairs = [(rng.randrange(-1, 13), rng.randrange(-6, 7))
                     for _ in range(count)]
            expected = reference_params(pairs)
            if isinstance(expected, str):
                with pytest.raises(PresentationError) as err:
                    PHParams(pairs)
                assert str(err.value) == expected
                checked["rejected"] += 1
                continue
            params = PHParams(iter(pairs))
            assert (params.pairs, params.lam) == expected
            again = PHParams(list(map(list, pairs)))
            assert again == params and hash(again) == hash(params)
            assert repr(params) == f"PHParams(pairs={expected[0]!r})"
            checked["built"] += 1
        assert min(checked.values()) > 300, checked
        with pytest.raises(ValueError):
            PHParams([(1, 0, 2), (1, 1), (1, -1)])

    def test_report_validation(self):
        m = M((2, -1), (2, 1), (6, 1))
        params = P((2, -1), (4, 1), (4, 1))
        cls = ph_class(m, params)
        report = SurfaceReport(params, 4, cls)
        assert report == horizontal_report(m, params)
        assert hash(report) == hash(horizontal_report(m, params))
        assert repr(report) == (
            f"SurfaceReport(surface={params!r}, genus=4, z2class={cls!r})")
        with pytest.raises(AttributeError):
            report.genus = 3
        bad = [
            (("diagonal", 4, cls), PresentationError,
             "not a surface: 'diagonal'"),
            ((None, 4, cls), PresentationError, "not a surface: None"),
            ((params.pairs, 4, cls), PresentationError,
             f"not a surface: {params.pairs!r}"),
            ((params, 0, cls), InternalInvariantError,
             "surface genus must be positive, got 0"),
        ]
        for args, error, message in bad:
            with pytest.raises(error) as err:
                SurfaceReport(*args)
            assert str(err.value) == message

    def test_integer_n_matches_curves(self):
        def outcome(fn, *args):
            try:
                return fn(*args)
            except LensCurveError as err:
                return str(err)

        errors = 0
        for twok in range(-200, 201):
            for q in range(-201, 202):
                expected = outcome(lambda: n_genus(LensCurve(twok, q)))
                assert outcome(slope_genus, twok, q) == expected, (twok, q)
                errors += isinstance(expected, str)
        assert errors > 80000
        for twok, q, message in (
                (3, 2, "longitude coefficient must be even, got 3"),
                (-7, 1, "longitude coefficient must be even, got -7"),
                (4, 6, "slope (4, 6) is not coprime"),
                (0, 3, "slope (0, 3) is not coprime"),
                (0, 0, "slope (0, 0) is not coprime")):
            with pytest.raises(LensCurveError) as err:
                slope_genus(twok, q)
            assert str(err.value) == message
        assert slope_genus(0, 1) == slope_genus(0, -1) == 0
