"""Tests for the norm search: enumeration, pruning, reports, scans."""

import itertools
import json
from collections import Counter
from fractions import Fraction
from math import gcd, inf

import pytest

import sfsnorm.pencils
import sfsnorm.search
import sfsnorm.seifert
import sfsnorm.surfaces
import test_case1_oracle as oracle
from corpora import M, presentations_by_case, random_presentations
from record_norm_fixture import corpus as fixture_corpus
from test_surfaces import case4_complements
from sfsnorm.errors import PresentationError
from sfsnorm.report import norm_report_from_json
from sfsnorm.scan import SCAN_CSV_HEADER, class_rows
from sfsnorm.search import (
    SearchBudget,
    _case1_center,
    _parity_center,
    _SearchState,
    compute_norms,
    enumerate_case1,
    enumerate_case3,
    enumerate_case4,
    family_scan,
)
from sfsnorm.seifert import (
    HomologyCase,
    SeifertPresentation,
    complete_matrix,
    homology_structure,
)
from sfsnorm.surfaces import (
    PHParams,
    horizontal_report,
    ph_class,
    ph_exists,
    ph_genus,
    ph_obstruction,
)


M_238 = M((2, -1), (3, 1), (8, 1))
M_PRISM6 = M((2, -1), (2, 1), (6, 1))
M_ODD = M((3, 2), (5, 2), (7, 4))  # all multiplicities odd: case 1 runs
M_ODD_TALL = M((31, 2), (33, 5), (29, -3))  # genus 10, at degree 1
M_ODD_PINNED3 = M((9, -4), (3, 1), (7, 1))  # genus 7, at degree 1


class TestCase4:
    def test_example_family_candidate(self):
        cands = enumerate_case4(_SearchState(M_238))
        assert PHParams(((2, -1), (3, 1), (6, 1))) in cands

    def test_twelve_candidate(self):
        cands = enumerate_case4(_SearchState(M((3, -1), (4, 1), (14, 1))))
        assert PHParams(((3, -1), (4, 1), (12, 1))) in cands

    def test_zero_rest_yields_nothing(self):
        # (2,-1) and (2,1) cancel, so the pair (1,2) makes no candidate,
        # and the other pairs fail the ordering requirement.
        assert enumerate_case4(_SearchState(M_PRISM6)) == []

    def test_all_pass_existence_and_are_finite(self):
        for m in random_presentations(40, seed=11):
            cands = enumerate_case4(_SearchState(m))
            assert len(cands) <= 6
            for p in cands:
                assert ph_exists(m, p)

    def test_complement_in_lowest_terms(self):
        # The third slope is -(b_i/a_i + b_j/a_j) in lowest terms.
        count = 0
        for m in random_presentations(60, seed=12, max_alpha=30):
            for p in enumerate_case4(_SearchState(m)):
                assert sum(Fraction(mu, lam) for lam, mu in p.pairs) == 0
                assert all(gcd(lam, mu) == 1 for lam, mu in p.pairs)
                count += 1
        assert count >= 20

    @staticmethod
    def priced_within(m, bound, priced):
        """Every candidate ``enumerate_case4`` hands to ``horizontal_report``
        when every class bound stays at ``bound``: the state keeps the
        bound and drops the offers.  ``priced`` is the recorded list."""
        state = _SearchState(m)
        structure = state.structure
        if bound < inf:
            state.best = dict.fromkeys(structure.nonzero_classes, bound)
        state.offer = lambda report: None
        priced.clear()
        out = enumerate_case4(state)
        assert out == priced
        return out

    def test_prices_exactly_within_bound(self, monkeypatch):
        # Case 4 decides existence and genus on integers before pricing:
        # with no bound it prices exactly the complements that bound a
        # surface, and with a finite bound exactly those of them whose
        # genus is within it, ties included.
        priced = []

        def recording(m, params):
            priced.append(params)
            return horizontal_report(m, params)
        monkeypatch.setattr(sfsnorm.search, "horizontal_report", recording)
        bounded = 0
        corpus = presentations_by_case(40, seed=23, max_alpha=30) + \
            random_presentations(150, seed=24, max_alpha=40)
        for m in corpus:
            exist = [p for p in case4_complements(m)
                     if ph_obstruction(m, p) is None]
            assert self.priced_within(m, inf, priced) == exist, m
            genus = {p: horizontal_report(m, p).genus for p in exist}
            for bound in {g + d for g in genus.values() for d in (-1, 0)}:
                assert self.priced_within(m, bound, priced) == \
                    [p for p in exist if genus[p] <= bound], (m, bound)
                bounded += 1
            # Pricing into a state that keeps its offers still reaches the
            # least genus of each class.
            state = _SearchState(m)
            enumerate_case4(state)
            least = {}
            for p in exist:
                cls = ph_class(m, p)
                least[cls] = min(least.get(cls, inf), genus[p])
            assert state.best == least, m
        assert bounded >= 400


    def test_priced_in_pair_order(self, monkeypatch):
        # Witnesses can follow the pricing order, so case 4 keeps it:
        # each presentation's candidates come in increasing (i, j), where
        # fibers i and j, a_i < a_j, carry their own fiber pairs.
        returned = []

        def recording(state):
            out = enumerate_case4(state)
            returned.append((state.presentation, out))
            return out
        monkeypatch.setattr(sfsnorm.search, "enumerate_case4", recording)
        for m in presentations_by_case(200, seed=26):
            compute_norms(m)
        several = 0
        for m, out in returned:
            order = []
            for params in out:
                i, j = sorted(
                    [x for x in range(3)
                     if params.pairs[x] == m.fibers[x].pair],
                    key=lambda x: m.fibers[x].alpha)
                assert m.fibers[i].alpha < m.fibers[j].alpha
                order.append((i, j))
            assert order == sorted(set(order)), m
            several += len(order) > 1
        assert several >= 50

class TestCase3:
    def test_prism_family_shape(self):
        # Sweeps with fiber 1 pinned produce ((2,-1),(2p,s),(2p,p-s)).
        for p in enumerate_case3(_SearchState(M_PRISM6)):
            i = min(range(3), key=lambda x: p.pairs[x][0])
            if p.pairs[0] == (2, -1) and p.pairs[1][0] == p.pairs[2][0]:
                lam, s = p.pairs[1]
                pp = lam // 2
                assert pp % 2 == 0
                assert p.pairs[2] == (lam, pp - s)

    def test_every_yield_exists(self):
        for m in random_presentations(12, seed=23, max_alpha=8):
            for p in enumerate_case3(_SearchState(m)):
                assert ph_exists(m, p)

    def test_empty_when_parity_blocks(self):
        # One even multiplicity leaves trivial homology and no candidate.
        state = _SearchState(M((3, 1), (4, 1), (7, 1)))
        assert list(enumerate_case3(state)) == []


class TestCase1:
    def test_requires_all_odd(self):
        assert list(enumerate_case1(_SearchState(M_238))) == []

    def test_degree_one_candidates_have_even_mu(self):
        m = M((3, 2), (5, 2), (7, 4))
        seen = [p for p in enumerate_case1(_SearchState(m)) if p.lam == 1]
        assert seen
        for p in seen:
            assert all(mu % 2 == 0 for _, mu in p.pairs)
            assert sum(mu for _, mu in p.pairs) == 0

    def test_every_yield_exists(self):
        m = M((3, 2), (5, 2), (7, 4))
        for p in enumerate_case1(_SearchState(m)):
            assert ph_exists(m, p)

    def test_trivial_homology_is_empty(self):
        state = _SearchState(M((3, 1), (5, 1), (7, 1)))
        assert list(enumerate_case1(state)) == []


class TestComputeNorms:
    def test_distinct_multiplicity_example(self):
        report = compute_norms(M_238)
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry.min_genus == 3 and entry.norm == 1
        assert entry.witness.kind == "horizontal"
        assert entry.witness.surface.pairs == ((2, -1), (3, 1), (6, 1))
        assert entry.min_vertical_genus == 5
        assert entry.exhaustive

    def test_tie_reports_vertical_witness_and_both_kinds(self):
        report = compute_norms(M((2, -1), (3, 1), (4, 1)))
        entry = report.entries[0]
        assert entry.min_genus == 3
        assert entry.witness.kind == "vertical"
        assert entry.witness_kinds == ("horizontal", "vertical")

    def test_prism_three_classes(self):
        report = compute_norms(M_PRISM6)
        by_label = {e.z2class.label: e for e in report.entries}
        assert by_label["110"].min_genus == 2
        assert by_label["110"].norm == 0
        assert by_label["101"].min_genus == 4
        assert by_label["011"].min_genus == 4
        assert report.exhaustive

    def test_trivial_homology_empty_report(self):
        report = compute_norms(M((3, 1), (5, 1), (7, 1)))
        assert report.entries == ()
        assert report.exhaustive

    def test_every_class_appears(self):
        from sfsnorm.seifert import homology_structure
        for m in random_presentations(25, seed=5):
            report = compute_norms(m)
            classes = set(homology_structure(m).nonzero_classes)
            assert {e.z2class for e in report.entries} == classes

    def test_min_not_above_vertical(self):
        for m in random_presentations(25, seed=6):
            report = compute_norms(m)
            for entry in report.entries:
                if entry.min_vertical_genus is not None:
                    assert entry.min_genus <= entry.min_vertical_genus
                # A horizontal minimum is reported only where it is exact.
                exact = "horizontal" in entry.witness_kinds
                assert entry.min_horizontal_genus == \
                    (entry.min_genus if exact else None)
            assert all(row["gap"] is None or row["gap"] >= 0
                       for row in class_rows(report))

    def test_tiny_window_sets_flag_without_crashing(self):
        # The lead-digit floors from the window's end on certify the
        # prism; on the second the window still binds two classes.
        for m, flags in [
            (M_PRISM6, {"110": (2, True), "101": (4, True),
                        "011": (4, True)}),
            (M((2, -1), (2, -1), (4, 5)), {"110": (2, True),
                                           "101": (3, False),
                                           "011": (3, False)}),
        ]:
            report = compute_norms(m, SearchBudget(mu_window=2))
            assert report.exhaustive == all(e for _, e in flags.values())
            assert {e.z2class.label: (e.min_genus, e.exhaustive)
                    for e in report.entries} == flags

    @pytest.mark.parametrize("m, budget, genus, exhaustive, case1_capped", [
        (M_ODD, SearchBudget(), 4, True, False),
        # At the window's end the legs' certificates already bound every
        # later step above the class bound, so no sweep caps the class.
        (M_ODD, SearchBudget(mu_window=2), 4, True, False),
        (M_ODD_TALL, SearchBudget(mu_window=2), 10, False, True),
        # Case 1 finds genus 4 at degree 1, so the bound is 2: its N
        # floors close the degree loop at degree 3 (3 - 1 + 3 > 2) and
        # case 3 breaks at p = 2 (2 * (3 - 1) > 2), both before the cap.
        (M_ODD, SearchBudget(lambda_cap=1), 4, True, False),
        (M_ODD_TALL, SearchBudget(lambda_cap=1), 10, False, True),
        # Case 1 closes at degree 5 (5 - 1 + 3 > 5), but case 3 with the
        # fiber (3, 1) pinned reaches p = 2 (2 * (3 - 1) <= 5), whose
        # degree 6 is past the cap.
        (M_ODD_PINNED3, SearchBudget(lambda_cap=3), 7, False, False),
    ], ids=["default", "mu_window", "mu_window_binds", "lambda_cap",
            "lambda_cap_binds", "lambda_cap_case3"])
    def test_case1_cap_sets_flag(self, m, budget, genus, exhaustive,
                                 case1_capped):
        report = compute_norms(m, budget)
        assert [(e.min_genus, e.exhaustive) for e in report.entries] == \
            [(genus, exhaustive)]
        # The case-1 sweeps mark the class themselves, not only case 3.
        state = _SearchState(m, budget)
        assert list(enumerate_case1(state))
        assert state.best == {report.entries[0].z2class: genus}
        capped = {report.entries[0].z2class} if case1_capped else set()
        assert state.capped == capped

    def test_budget_monotonicity(self):
        small = compute_norms(M_PRISM6, SearchBudget(mu_window=24))
        large = compute_norms(M_PRISM6, SearchBudget(mu_window=512))
        for s, l in zip(small.entries, large.entries):
            assert l.min_genus <= s.min_genus
        capped = compute_norms(M_PRISM6, SearchBudget(lambda_cap=4))
        uncapped = compute_norms(M_PRISM6, SearchBudget(lambda_cap=64))
        for s, l in zip(capped.entries, uncapped.entries):
            assert l.min_genus <= s.min_genus

    def test_permutation_equivariance_sample(self):
        # The six orders of the fibers present one manifold, so each
        # class, with its parities permuted, has the same minima.  Where
        # a sweep hits a cap can depend on the order, and a capped class
        # is flagged, so only classes exhaustive in both orders compare.
        def minima(m):
            return {e.z2class.parities: (e.min_genus, e.min_vertical_genus,
                                         e.min_horizontal_genus)
                    for e in compute_norms(m).entries if e.exhaustive}
        corpus = random_presentations(180, seed=9)
        corpus += [m for m in random_presentations(400, seed=10,
                                                   max_alpha=15)
                   if all(f.alpha % 2 for f in m.fibers)]
        corpus += [ladder(19), ladder(31)]
        compared = 0
        for m in corpus:
            base = minima(m)
            for order in itertools.permutations(range(3)):
                got = minima(SeifertPresentation(
                    tuple(m.fibers[i] for i in order)))
                # The all-odd tag (1, 1, 1) is its own permutation.
                expect = {tuple(par[i] for i in order): value
                          for par, value in base.items()}
                shared = expect.keys() & got.keys()
                assert {p: got[p] for p in shared} == \
                    {p: expect[p] for p in shared}, (m.pairs(), order)
                compared += len(shared)
        assert compared >= 1000
    def test_mirror_invariance(self):
        # S2((a_i,-b_i)) is S2((a_i,b_i)) with the opposite orientation:
        # the same manifold, so every class has the same minima.
        def minima(m):
            return {e.z2class.label: (e.min_genus, e.min_vertical_genus,
                                      e.min_horizontal_genus, e.exhaustive)
                    for e in compute_norms(m).entries}
        for m in random_presentations(300, seed=14):
            mirror = M(*((a, -b) for a, b in m.pairs()))
            assert minima(mirror) == minima(m), m.pairs()

    def test_rejects_non_presentation(self):
        with pytest.raises(PresentationError):
            compute_norms("S2((2,-1),(3,1),(8,1))")

    def test_json_round_trip(self):
        for m in (M_238, M_PRISM6, M((3, 2), (5, 2), (7, 4))):
            report = compute_norms(m)
            data = json.loads(json.dumps(report.to_json_dict()))
            again = norm_report_from_json(data)
            assert again == report
            assert data["exhaustive"] == report.exhaustive

    def test_per_class_mapping(self):
        report = compute_norms(M_PRISM6)
        assert set(report.per_class) == {e.z2class for e in report.entries}


class TestBudget:
    def test_defaults(self):
        # The search state resolves the budget: 64 * max(alpha) and
        # 8 * sum(alpha) + 64 unless the budget sets a limit.
        state = _SearchState(M_238)
        assert (state.window, state.degree_cap) == (64 * 8, 8 * 13 + 64)
        state = _SearchState(M_238, SearchBudget(lambda_cap=7))
        assert (state.window, state.degree_cap) == (64 * 8, 7)
        state = _SearchState(M_238, SearchBudget(mu_window=5))
        assert (state.window, state.degree_cap) == (5, 8 * 13 + 64)

    def test_validation(self):
        # A bool is an int to Python: mu_window=True used to run as a
        # window of 1.
        for field in ("mu_window", "lambda_cap"):
            for value, message in [
                    (0, "must be positive"), (-3, "must be positive"),
                    (2.5, "must be an integer"), (3.0, "must be an integer"),
                    (True, "must be an integer"),
                    (False, "must be an integer"),
                    ("4", "must be an integer")]:
                with pytest.raises(PresentationError, match=message):
                    SearchBudget(**{field: value})
            assert getattr(SearchBudget(**{field: 3}), field) == 3

    @pytest.mark.parametrize("budget", [5, "x", {"mu_window": 3}],
                             ids=["int", "str", "dict"])
    def test_rejects_non_budget(self, budget, caplog):
        # A search and a scan raise the package's error, and a scan
        # raises it before any instance runs instead of skipping each.
        with pytest.raises(PresentationError) as search:
            compute_norms(M_238, budget)
        with pytest.raises(PresentationError) as scan:
            family_scan("S2((2,-1),(3,1),(2*n,1))", [("n", 4, 5)], budget)
        assert str(search.value) == str(scan.value) == \
            f"not a search budget: {budget!r}"
        assert caplog.records == []


class TestCenters:
    def test_case1_center_rounds_as_fraction(self):
        # Case 1 has odd alpha, where lam*beta/alpha is never a half, so
        # rounding half up agrees with ``round``.
        checked = 0
        for a in range(3, 42, 2):
            for b in range(-a + 1, a):
                if gcd(a, b) != 1:
                    continue
                fiber = complete_matrix(a, b)
                for lam in range(1, 80, 2):
                    assert _case1_center(lam, fiber) == _parity_center(
                        round(Fraction(lam * b, a)), b), (lam, a, b)
                    checked += 1
        assert checked >= 10000


class TestFamilyScan:
    def test_family_with_constraint_violations(self):
        rows = family_scan("S2((2,-1),(2*m+1,m),(2*n,1))",
                           [("m", 1, 1), ("n", 2, 6)])
        # n = 3 collapses the Euler sum and is skipped; n = 2 is the
        # isotopic-pair manifold with gap 0; n >= 4 shows the gap of 2.
        keys = {row["canonical_form"] for row in rows}
        assert len(keys) == 4
        for row in rows:
            assert set(row) == set(SCAN_CSV_HEADER)
            if row["min_genus"] >= 3 and row["gap"] is not None:
                assert row["gap"] in (0, 2)
        gaps = [row["gap"] for row in rows]
        assert gaps.count(2) == 3 and gaps.count(0) == 1

    def test_empty_grid(self):
        assert family_scan("S2((2,-1),(3,1),(2*n,1))", [("n", 5, 4)]) == []

    def test_dependent_ranges(self):
        rows = family_scan("S2((2,-1),(2*m+1,m),(2*n,1))",
                           [("m", 1, 2), ("n", "2*m+2", "2*m+3")])
        assert len(rows) == 4
        for row in rows:
            assert row["gap"] == 2
            assert row["exhaustive"] is True

    def test_bad_expression_rejected(self):
        with pytest.raises(PresentationError):
            family_scan("S2((2,-1),(3,1),(2*n,1))",
                        [("n", "__import__", 4)])


class TestInvariants:
    def test_case2_shape_never_emitted(self):
        for m in random_presentations(15, seed=31, max_alpha=9):
            for source in (enumerate_case4(_SearchState(m)),
                           enumerate_case3(_SearchState(m)),
                           enumerate_case1(_SearchState(m))):
                for p in source:
                    ls = sorted(l for l, _ in p.pairs)
                    assert not (ls[0] == ls[1] < ls[2])

    def test_reenumeration_is_stable(self):
        first = list(enumerate_case3(_SearchState(M_PRISM6)))
        second = list(enumerate_case3(_SearchState(M_PRISM6)))
        assert first == second

    def test_candidate_genus_matches_direct_evaluation(self):
        m = M_PRISM6
        for p in list(enumerate_case3(_SearchState(m)))[:40]:
            assert ph_genus(m, p) >= 2

    def test_sweeps_price_their_own_class(self, monkeypatch):
        # A sweep prunes against the best genus of its class, so every
        # candidate it prices must land in that class.  An N of 0 is the
        # weakest bound the exact check before pricing can read, so
        # every candidate it would skip is priced and checked here too.
        sweep, report = sfsnorm.search._sweep, sfsnorm.search.horizontal_report
        active, priced = [], []

        def recording_sweep(state, cls, *args):
            # The caller prices what each mu gives before the next one.
            for mu in sweep(state, cls, *args):
                active.append(cls)
                try:
                    yield mu
                finally:
                    active.pop()

        def recording_report(*args):
            result = report(*args)
            if active:
                priced.append((active[-1], result.z2class))
            return result
        monkeypatch.setattr(sfsnorm.search, "_sweep", recording_sweep)
        monkeypatch.setattr(sfsnorm.search, "horizontal_report",
                            recording_report)
        monkeypatch.setattr(sfsnorm.search, "slope_genus", lambda *args: 0)
        corpus = random_presentations(300, seed=41)
        corpus += random_presentations(60, seed=42, max_alpha=60)
        corpus += random_presentations(200, seed=44, max_alpha=100)
        corpus += random_presentations(100, seed=45, max_alpha=200)
        corpus += random_presentations(200, seed=48, max_alpha=100)
        corpus += [m for m in random_presentations(500, seed=43,
                                                   max_alpha=25)
                   if all(f.alpha % 2 for f in m.fibers)]
        corpus += presentations_by_case(300, seed=46)
        # Only a Klein-four presentation has more than one nonzero
        # class, so only there can a candidate land in another class.
        klein = 0
        for m in corpus:
            before = len(priced)
            compute_norms(m)
            if homology_structure(m).case is HomologyCase.KLEIN_FOUR:
                klein += len(priced) - before
        assert len(priced) >= 8000
        assert klein >= 300
        assert [p for p in priced if p[0] != p[1]] == []


class TestLeadSkip:
    def test_skip_leaves_reports_unchanged(self, monkeypatch):
        # Skipping steps before t_min must not change any output, the
        # witness and the kinds that reach the minimum included: compare
        # against sweeps that step through every one (a floor of -inf
        # never allows a skip).  The floors that skip are those of the
        # regions, taken in ``pencils``; the search's own is the tail's.
        corpus = random_presentations(120, seed=51)
        corpus += random_presentations(30, seed=52, max_alpha=40)
        corpus += [m for m in random_presentations(300, seed=53,
                                                   max_alpha=21)
                   if all(f.alpha % 2 for f in m.fibers)]
        corpus += [M((2, -1), (3, 1), (2 * n, 1)) for n in (5, 40, 100)]
        skipped = [compute_norms(m).to_json_dict() for m in corpus]
        for module in (sfsnorm.search, sfsnorm.pencils):
            monkeypatch.setattr(module, "lead_floor", lambda *args: -inf)
        assert [compute_norms(m).to_json_dict() for m in corpus] == skipped


def ladder(a):
    # The all-odd ladder: case 1 carries every sweep step.
    return M((a, 2), (a + 2, 5), (a - 2, -3))


def test_every_sweep_leg_has_even_longitude(monkeypatch):
    # Degree parities (case 3), odd degrees (case 1) and a center of
    # matching parity stepped by 2 keep l = a, m = b (mod 2), so each
    # leg's 2k = m*a - l*b is even at every step of its direction: its
    # pencil's constant and slope are even.  Neither ``_worth_pricing``
    # nor ``lead_floor`` tests for an odd 2k.  The lead floors see every
    # sweep: ``region_floors`` calls them on the line of each, also of one
    # that ends there.  Presentations up to alpha = 100 feed them more
    # legs than the norm fixture's alpha <= 12.
    worth_pricing, floor = sfsnorm.search._worth_pricing, \
        sfsnorm.search.lead_floor
    seen = Counter()

    def even(first, what):
        assert first.a % 2 == 0 and first.b % 2 == 0, (first, what)
        seen[what] += 1

    def worth_pricing_spy(state, cls, base, pencils, t):
        for first, _ in pencils:
            even(first, f"{len(pencils)}-leg step")
        return worth_pricing(state, cls, base, pencils, t)

    def floor_spy(first, second, t0, t1=None):
        even(first, "lead floor")
        return floor(first, second, t0, t1)

    monkeypatch.setattr(sfsnorm.search, "_worth_pricing", worth_pricing_spy)
    monkeypatch.setattr(sfsnorm.search, "lead_floor", floor_spy)
    monkeypatch.setattr(sfsnorm.pencils, "lead_floor", floor_spy)
    for m in fixture_corpus() + [ladder(31), M((2, -1), (3, 1), (800, 1))] + \
            random_presentations(500, seed=85, max_alpha=100):
        compute_norms(m)
    assert seen["1-leg step"] >= 5000 and seen["2-leg step"] >= 800 and \
        seen["lead floor"] >= 40_000, seen


class TestExactCheck:
    """A sweep step is priced only when its exact N sum can still matter."""

    @staticmethod
    def corpus():
        corpus = random_presentations(120, seed=61)
        corpus += random_presentations(30, seed=62, max_alpha=40)
        corpus += random_presentations(100, seed=64, max_alpha=100)
        corpus += [m for m in random_presentations(300, seed=63,
                                                   max_alpha=21)
                   + random_presentations(600, seed=65, max_alpha=100)
                   + random_presentations(800, seed=66, max_alpha=100)
                   if all(f.alpha % 2 for f in m.fibers)]
        corpus += [M((2, -1), (3, 1), (2 * n, 1)) for n in (5, 40, 100)]
        corpus += [ladder(a) for a in (19, 31)]
        return corpus

    def test_check_leaves_reports_unchanged(self, monkeypatch):
        # The minimum, witness, kinds, per-kind minima and exhaustive
        # flag of every class must equal those of sweeps that price
        # every step: an N of 0 never prices a step above the best.
        corpus = self.corpus()
        cases = {homology_structure(m).case for m in corpus}
        assert len(cases) == 4
        checked = [compute_norms(m).to_json_dict() for m in corpus]
        monkeypatch.setattr(sfsnorm.search, "slope_genus", lambda *args: 0)
        assert [compute_norms(m).to_json_dict() for m in corpus] == checked

    def test_one_genus_parity_per_class(self, monkeypatch):
        # chi(F) = <w^3, [M]> mod 2 depends on the class of F alone, so
        # every surface of one class has the same genus parity.  The
        # search leans on it: once a horizontal surface reaches the best
        # genus of a class, it prunes against two below, so a check that
        # over-claimed N by 1 can drop a minimum.  The search offers
        # only what its pruning keeps, so the box surfaces of the
        # oracle, which nothing prunes, are checked too.
        offer, offers = _SearchState.offer, []

        def recording_offer(state, report):
            offers.append((report.z2class, report.genus))
            return offer(state, report)
        monkeypatch.setattr(_SearchState, "offer", recording_offer)
        monkeypatch.setattr(sfsnorm.search, "slope_genus", lambda *args: 0)
        mixed, count = [], 0
        for m in self.corpus():
            compute_norms(m)
            parities = {}
            for cls, genus in offers:
                parities.setdefault(cls, set()).add(genus % 2)
            mixed += [(m, cls) for cls, seen in parities.items()
                      if len(seen) > 1]
            count += len(offers)
            offers.clear()
        assert count >= 7500
        assert mixed == []
        box = 0
        for m in oracle.random_presentations(40, seed=71, max_alpha=8) + \
                oracle.all_odd_presentations(10, seed=72):
            parities = {}
            for cls, genus in oracle.box_surfaces(m, 16, oracle.MU_MAX_ALL):
                parities.setdefault(cls, set()).add(genus % 2)
                box += 1
            mixed += [(m, cls) for cls, seen in parities.items()
                      if len(seen) > 1]
        assert box >= 5000
        assert mixed == []

    @pytest.mark.parametrize("a, genus, gcd_calls, report_limit", [
        (31, 10, 159, 30),
        (61, 18, 3399, 50),
    ], ids=["ladder_31", "ladder_61"])
    def test_ladder_prices_few_steps(self, monkeypatch, a, genus, gcd_calls,
                                     report_limit):
        # The check prices 4 of these ladder candidates each, where
        # pricing every coprime step took 704 and 9,370.  It adds and
        # drops no step, so the gcd calls are those of the sweeps alone.
        calls, reports = [], []
        TestWorkCounts.record(monkeypatch, sfsnorm.search, "gcd", calls)
        TestWorkCounts.record(monkeypatch, sfsnorm.search,
                              "horizontal_report", reports)
        report = compute_norms(ladder(a))
        assert [(e.min_genus, e.exhaustive) for e in report.entries] == \
            [(genus, True)]
        assert len(calls) == gcd_calls
        assert len(reports) <= report_limit


class TestWorkCounts:
    """Pricing work per candidate and per presentation stays bounded."""

    @staticmethod
    def record(monkeypatch, module, name, calls):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    @pytest.mark.parametrize("pairs", [
        ((2, -1), (3, 1), (200, 1)),
        ((31, 2), (33, 5), (29, -3)),
    ], ids=["tall_two_even", "all_odd"])
    def test_one_check_per_candidate(self, monkeypatch, pairs):
        obstructions, reports, exists, built = [], [], [], []
        search, surfaces, seifert = \
            sfsnorm.search, sfsnorm.surfaces, sfsnorm.seifert
        self.record(monkeypatch, surfaces, "ph_obstruction", obstructions)
        self.record(monkeypatch, search, "horizontal_report", reports)
        self.record(monkeypatch, search, "ph_exists", exists)
        # A fresh intern table, so the structure is built in this search.
        monkeypatch.setattr(seifert, "_STRUCTURES", {})
        self.record(monkeypatch, seifert, "_build_structure", built)
        structures = []
        for module in (search, surfaces):
            def lookup(presentation, real=module.homology_structure):
                structures.append(real(presentation))
                return structures[-1]
            monkeypatch.setattr(module, "homology_structure", lookup)
        compute_norms(M(*pairs))
        # Every existence check, whether through ph_exists or the check
        # inside horizontal_report, runs the obstruction test once, and
        # no candidate is tested twice.
        assert reports
        assert len(obstructions) == len(reports) + len(exists)
        checked = [args[1] for args in obstructions]
        assert len(checked) == len(set(checked))
        # Each pricing looks the structure up again, and every lookup is
        # one dict hit on the structure built once for the parity key.
        assert len(structures) > len(reports)
        assert all(s is structures[0] for s in structures)
        assert len(built) == 1

    @pytest.mark.parametrize("pairs, genus, sweeps, floors", [
        (((2, -1), (3, 1), (800, 1)), 399, 99, 692),
        (((2, -1), (3, 1), (3200, 1)), 1599, 399, 2792),
    ], ids=["tall_800", "tall_3200"])
    def test_lead_floors_skip_before_t_min(self, monkeypatch, pairs, genus,
                                           sweeps, floors):
        # Every case-3 degree of these presentations ends on the floors of
        # its line's regions, before any direction starts: its only
        # pencils are the line forms of its two legs, every lead floor is
        # a region's (``search.lead_floor``, which tests a direction's
        # spans, is never called), and no certificate or gcd call is made.
        # Stepping through took 79,974 and 1,284,740 gcd calls; testing
        # each direction's spans took 1,284 and 5,184 lead floors.
        calls = {name: [] for name in (
            "_sweep", "slope_pencil", "lead_floor", "certified_tail", "gcd",
            "horizontal_report")}
        for name, seen in calls.items():
            self.record(monkeypatch, sfsnorm.search, name, seen)
        region = []
        self.record(monkeypatch, sfsnorm.pencils, "lead_floor", region)
        report = compute_norms(M(*pairs))
        assert [(e.min_genus, e.exhaustive) for e in report.entries] == \
            [(genus, True)]
        assert len(calls["_sweep"]) == sweeps
        assert len(calls["slope_pencil"]) == 2 * sweeps
        assert calls["lead_floor"] == [] and len(region) == floors
        assert calls["certified_tail"] == calls["gcd"] == []
        assert len(calls["horizontal_report"]) == 1

    def test_sweeps_take_lead_floors_only_on_tails(self, monkeypatch):
        # A window span carries the floor of its region, which holds on
        # each part that halving leaves, so the only lead floor a sweep
        # takes itself is its tail's, which decides the capped mark at
        # the window's end.  At the default window no tail gets that
        # far, so a window of 2 is searched too.
        floor, ends = sfsnorm.search.lead_floor, []

        def spy(first, second, t0, t1=None):
            ends.append(t1)
            return floor(first, second, t0, t1)
        monkeypatch.setattr(sfsnorm.search, "lead_floor", spy)
        for m in fixture_corpus() + [ladder(31)]:
            for budget in (None, SearchBudget(mu_window=2)):
                compute_norms(m, budget)
        assert len(ends) >= 500 and set(ends) == {None}, Counter(ends)

    @pytest.mark.parametrize("pairs, genus, limit", [
        (((31, 2), (33, 5), (29, -3)), 10, 3000),
        (((2, -1), (3, 1), (200, 1)), 99, 5500),
    ], ids=["all_odd", "tall_two_even"])
    def test_case1_floors_bound_sweep_steps(self, monkeypatch, pairs, genus,
                                            limit):
        # The sweeps make the search's gcd calls, at least one for each
        # step they do not rule out by a floor or a certificate.  The N
        # floors of case 1, the leading-digit floors of whole spans and
        # the certificate of each leg from its own t_min on hold these
        # cases to 159 and 0 calls.
        calls = []
        self.record(monkeypatch, sfsnorm.search, "gcd", calls)
        report = compute_norms(M(*pairs))
        assert [(e.min_genus, e.exhaustive) for e in report.entries] == \
            [(genus, True)]
        assert len(calls) <= limit
