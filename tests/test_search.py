"""Tests for the norm search: enumeration, pruning, reports, scans."""

import json
import random
from fractions import Fraction
from math import gcd, inf

import pytest

import sfsnorm.search
import sfsnorm.surfaces
from sfsnorm.errors import PresentationError
from sfsnorm.report import norm_report_from_json
from sfsnorm.scan import SCAN_CSV_HEADER
from sfsnorm.search import (
    SearchBudget,
    _round_half_even,
    _SearchState,
    compute_norms,
    enumerate_case1,
    enumerate_case3,
    enumerate_case4,
    family_scan,
)
from sfsnorm.seifert import SeifertPresentation, homology_structure
from sfsnorm.surfaces import PHParams, ph_exists, ph_genus


def M(*pairs):
    return SeifertPresentation.from_pairs(pairs)


M_238 = M((2, -1), (3, 1), (8, 1))
M_PRISM6 = M((2, -1), (2, 1), (6, 1))
M_ODD = M((3, 2), (5, 2), (7, 4))  # all multiplicities odd: case 1 runs
M_ODD_TALL = M((31, 2), (33, 5), (29, -3))  # genus 10, at degree 1


def random_presentations(count, seed, max_alpha=12):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        pairs = []
        for _ in range(3):
            a = rng.randrange(2, max_alpha + 1)
            while True:
                b = rng.randrange(-a + 1, a + 1) or 1
                if gcd(a, b) == 1:
                    break
            pairs.append((a, b))
        try:
            found.append(M(*pairs))
        except PresentationError:
            continue
    return found


class TestCase4:
    def test_example_family_candidate(self):
        cands = enumerate_case4(M_238)
        assert PHParams(((2, -1), (3, 1), (6, 1))) in cands

    def test_twelve_candidate(self):
        cands = enumerate_case4(M((3, -1), (4, 1), (14, 1)))
        assert PHParams(((3, -1), (4, 1), (12, 1))) in cands

    def test_zero_rest_yields_nothing(self):
        # (2,-1) and (2,1) cancel, so the pair (1,2) makes no candidate,
        # and the other pairs fail the ordering requirement.
        assert enumerate_case4(M_PRISM6) == []

    def test_all_pass_existence_and_are_finite(self):
        for m in random_presentations(40, seed=11):
            cands = enumerate_case4(m)
            assert len(cands) <= 6
            for p in cands:
                assert ph_exists(m, p)

    def test_complement_in_lowest_terms(self):
        # The third slope is -(b_i/a_i + b_j/a_j) in lowest terms.
        count = 0
        for m in random_presentations(60, seed=12, max_alpha=30):
            for p in enumerate_case4(m):
                assert sum(Fraction(mu, lam) for lam, mu in p.pairs) == 0
                assert all(gcd(lam, mu) == 1 for lam, mu in p.pairs)
                count += 1
        assert count >= 20


class TestCase3:
    def test_prism_family_shape(self):
        # Sweeps with fiber 1 pinned produce ((2,-1),(2p,s),(2p,p-s)).
        for p in enumerate_case3(M_PRISM6):
            i = min(range(3), key=lambda x: p.pairs[x][0])
            if p.pairs[0] == (2, -1) and p.pairs[1][0] == p.pairs[2][0]:
                lam, s = p.pairs[1]
                pp = lam // 2
                assert pp % 2 == 0
                assert p.pairs[2] == (lam, pp - s)

    def test_every_yield_exists(self):
        for m in random_presentations(12, seed=23, max_alpha=8):
            for p in enumerate_case3(m):
                assert ph_exists(m, p)

    def test_empty_when_parity_blocks(self):
        # One even multiplicity leaves trivial homology and no candidate.
        assert list(enumerate_case3(M((3, 1), (4, 1), (7, 1)))) == []


class TestCase1:
    def test_requires_all_odd(self):
        assert list(enumerate_case1(M_238)) == []

    def test_degree_one_candidates_have_even_mu(self):
        m = M((3, 2), (5, 2), (7, 4))
        seen = [p for p in enumerate_case1(m) if p.lam == 1]
        assert seen
        for p in seen:
            assert all(mu % 2 == 0 for _, mu in p.pairs)
            assert sum(mu for _, mu in p.pairs) == 0

    def test_every_yield_exists(self):
        m = M((3, 2), (5, 2), (7, 4))
        for p in enumerate_case1(m):
            assert ph_exists(m, p)

    def test_trivial_homology_is_empty(self):
        assert list(enumerate_case1(M((3, 1), (5, 1), (7, 1)))) == []


class TestComputeNorms:
    def test_distinct_multiplicity_example(self):
        report = compute_norms(M_238)
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry.min_genus == 3 and entry.norm == 1
        assert entry.witness.kind == "horizontal"
        assert entry.witness.horizontal.pairs == ((2, -1), (3, 1), (6, 1))
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

    def test_tiny_window_sets_flag_without_crashing(self):
        report = compute_norms(M_PRISM6, SearchBudget(mu_window=2))
        assert not report.exhaustive
        labels = {e.z2class.label: e.min_genus for e in report.entries}
        assert labels == {"110": 2, "101": 4, "011": 4}

    @pytest.mark.parametrize("m, budget, genus, exhaustive, case1_capped", [
        (M_ODD, SearchBudget(), 4, True, False),
        (M_ODD, SearchBudget(mu_window=2), 4, False, True),
        # The N floors close the case-1 degree loop at degree 3
        # (3 - 1 + 3 >= 4) before the cap binds; case 3 still hits it.
        (M_ODD, SearchBudget(lambda_cap=1), 4, False, False),
        (M_ODD_TALL, SearchBudget(lambda_cap=1), 10, False, True),
    ], ids=["default", "mu_window", "lambda_cap", "lambda_cap_binds"])
    def test_case1_cap_sets_flag(self, m, budget, genus, exhaustive,
                                 case1_capped):
        report = compute_norms(m, budget)
        assert [(e.min_genus, e.exhaustive) for e in report.entries] == \
            [(genus, exhaustive)]
        # The case-1 sweeps mark the class themselves, not only case 3.
        state = _SearchState(homology_structure(m))
        assert list(enumerate_case1(m, budget, state))
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
        for m in random_presentations(10, seed=9):
            base = {e.z2class.parities: (e.min_genus, e.norm)
                    for e in compute_norms(m).entries}
            for order in ((1, 0, 2), (2, 0, 1), (1, 2, 0)):
                permuted = compute_norms(m.permuted(order))
                expect = {}
                for par, value in base.items():
                    if par == (1, 1, 1):
                        expect[par] = value
                    else:
                        expect[tuple(par[i] for i in order)] = value
                got = {e.z2class.parities: (e.min_genus, e.norm)
                       for e in permuted.entries}
                assert got == expect

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
        budget = SearchBudget()
        assert budget.window(M_238) == 64 * 8

    def test_validation(self):
        with pytest.raises(PresentationError):
            SearchBudget(mu_window=0)


class TestCenters:
    def test_round_half_even_matches_fraction(self):
        for den in range(1, 41):
            for num in range(-300, 301):
                assert _round_half_even(num, den) == \
                    round(Fraction(num, den)), (num, den)


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
            for source in (enumerate_case4(m), enumerate_case3(m),
                           enumerate_case1(m)):
                for p in source:
                    ls = sorted(l for l, _ in p.pairs)
                    assert not (ls[0] == ls[1] < ls[2])

    def test_reenumeration_is_stable(self):
        first = list(enumerate_case3(M_PRISM6))
        second = list(enumerate_case3(M_PRISM6))
        assert first == second

    def test_candidate_genus_matches_direct_evaluation(self):
        m = M_PRISM6
        for p in list(enumerate_case3(m))[:40]:
            assert ph_genus(m, p) >= 2

    def test_sweeps_price_their_own_class(self, monkeypatch):
        # A sweep prunes against the best genus of its class, so every
        # candidate it prices must land in that class.
        sweep, report = sfsnorm.search._sweep, sfsnorm.search.horizontal_report
        active, priced = [], []

        def recording_sweep(state, cls, *args):
            *rest, visit = args

            def in_class(mu):
                active.append(cls)
                try:
                    return visit(mu)
                finally:
                    active.pop()
            return sweep(state, cls, *rest, in_class)

        def recording_report(*args):
            result = report(*args)
            if active:
                priced.append((active[-1], result.z2class))
            return result
        monkeypatch.setattr(sfsnorm.search, "_sweep", recording_sweep)
        monkeypatch.setattr(sfsnorm.search, "horizontal_report",
                            recording_report)
        corpus = random_presentations(300, seed=41)
        corpus += random_presentations(60, seed=42, max_alpha=60)
        corpus += [m for m in random_presentations(500, seed=43,
                                                   max_alpha=25)
                   if all(f.alpha % 2 for f in m.fibers)]
        for m in corpus:
            compute_norms(m)
        assert len(priced) >= 8000
        assert [p for p in priced if p[0] != p[1]] == []


class TestLeadSkip:
    def test_skip_leaves_reports_unchanged(self, monkeypatch):
        # Skipping steps before t_min must not change any output, the
        # witness and the kinds that reach the minimum included: compare
        # against sweeps that step through every one (a floor of -inf
        # never allows a skip).
        corpus = random_presentations(120, seed=51)
        corpus += random_presentations(30, seed=52, max_alpha=40)
        corpus += [m for m in random_presentations(300, seed=53,
                                                   max_alpha=21)
                   if all(f.alpha % 2 for f in m.fibers)]
        corpus += [M((2, -1), (3, 1), (2 * n, 1)) for n in (5, 40, 100)]
        skipped = [compute_norms(m).to_json_dict() for m in corpus]
        monkeypatch.setattr(sfsnorm.search, "lead_floor", lambda *args: -inf)
        assert [compute_norms(m).to_json_dict() for m in corpus] == skipped


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
        obstructions, reports, exists, homology = [], [], [], []
        search, surfaces = sfsnorm.search, sfsnorm.surfaces
        self.record(monkeypatch, surfaces, "ph_obstruction", obstructions)
        self.record(monkeypatch, search, "horizontal_report", reports)
        self.record(monkeypatch, search, "ph_exists", exists)
        for module in (search, surfaces):
            self.record(monkeypatch, module, "homology_structure", homology)
        compute_norms(M(*pairs))
        # Every existence check, whether through ph_exists or the check
        # inside horizontal_report, runs the obstruction test once, and
        # no candidate is tested twice.
        assert reports
        assert len(obstructions) == len(reports) + len(exists)
        checked = [args[1] for args in obstructions]
        assert len(checked) == len(set(checked))
        assert len(homology) <= 4

    @pytest.mark.parametrize("pairs, genus, gcd_limit, report_limit", [
        (((2, -1), (3, 1), (800, 1)), 399, 1000, 400),
        (((2, -1), (3, 1), (3200, 1)), 1599, 4000, 1500),
    ], ids=["tall_800", "tall_3200"])
    def test_lead_floors_skip_before_t_min(self, monkeypatch, pairs, genus,
                                           gcd_limit, report_limit):
        # Almost every step of these sweeps lies before t_min, where the
        # leading-digit floors price it above the horizontal best.  They
        # make 363 and 1,463 gcd calls and 134 and 534 pricings; stepping
        # through took 79,974 and 1,284,740 gcd calls and 20,346 and
        # 324,378 pricings.
        calls, reports = [], []
        self.record(monkeypatch, sfsnorm.search, "gcd", calls)
        self.record(monkeypatch, sfsnorm.search, "horizontal_report",
                    reports)
        report = compute_norms(M(*pairs))
        assert [(e.min_genus, e.exhaustive) for e in report.entries] == \
            [(genus, True)]
        assert len(calls) <= gcd_limit
        assert len(reports) <= report_limit

    @pytest.mark.parametrize("pairs, genus, limit", [
        (((31, 2), (33, 5), (29, -3)), 10, 3000),
        (((2, -1), (3, 1), (200, 1)), 99, 5500),
    ], ids=["all_odd", "tall_two_even"])
    def test_case1_floors_bound_sweep_steps(self, monkeypatch, pairs, genus,
                                            limit):
        # The sweeps make the search's gcd calls, at least one a step.
        # The N floors of case 1 and a sweep that stops on its pencil
        # certificates alone hold these cases to 2,142 and 4,933 calls
        # (88 for the second once the steps before t_min are skipped on
        # their leading-digit floors); a run of 8 confirming steps
        # before each stop made 4,668 and 6,444, and without the floors
        # the first case made 16,822.
        calls = []
        self.record(monkeypatch, sfsnorm.search, "gcd", calls)
        report = compute_norms(M(*pairs))
        assert [(e.min_genus, e.exhaustive) for e in report.entries] == \
            [(genus, True)]
        assert len(calls) <= limit
