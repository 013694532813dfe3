"""Acceptance suite.

Each test covers one numbered criterion at its exact tolerance (all
values here are integers, so tolerance means equality) and prints one
pass/fail line.  Run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they appear.
"""

import time
from contextlib import contextmanager
from math import gcd

from sfsnorm.lens import LensCurve, n_genus, n_genus_oracle, normalize_lens
from sfsnorm.search import SearchBudget, _SearchState, compute_norms, \
    enumerate_case3, enumerate_case4, family_scan
from sfsnorm.seifert import SeifertPresentation
from sfsnorm.surfaces import ph_exists, ph_genus, vertical_surfaces

from corpora import random_presentations

_REPORTS = {}


def norm_of(*pairs):
    """compute_norms with default budgets, cached for the honesty check."""
    key = tuple(pairs)
    if key not in _REPORTS:
        _REPORTS[key] = compute_norms(SeifertPresentation.from_pairs(pairs))
    return _REPORTS[key]


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL - {description}")
        raise
    print(f"[criterion {number:2d}] PASS ({time.time() - start:.1f}s) - "
          f"{description}")


def test_criterion_1_n_function_table():
    with criterion(1, "N(46,7) = 5 and N(2k,1) = k for k = 1..20"):
        assert n_genus(LensCurve(46, 7)) == 5
        for k in range(1, 21):
            assert n_genus(LensCurve(2 * k, 1)) == k


def test_criterion_2_dual_oracle_exhaustive():
    with criterion(2, "continued fraction N equals recursive N for all "
                      "coprime (2k,q), 2k <= 300"):
        start = time.time()
        mismatches = 0
        checked = 0
        for twok in range(2, 301, 2):
            for q in range(1, twok):
                if gcd(twok, q) != 1:
                    continue
                c = LensCurve(twok, q)
                if n_genus(c) != n_genus_oracle(c):
                    mismatches += 1
                checked += 1
        assert mismatches == 0
        assert checked == 9165  # sum of phi(2k) over 2k <= 300
        assert time.time() - start < 30


def test_criterion_3_distinct_multiplicity_instance():
    with criterion(3, "S2((2,-1),(3,1),(8,1)): one class, horizontal "
                      "genus 3 vs vertical 5, norm 1"):
        report = norm_of((2, -1), (3, 1), (8, 1))
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry.min_genus == 3
        assert entry.norm == 1
        assert entry.witness.kind == "horizontal"
        assert entry.witness.surface.pairs == ((2, -1), (3, 1), (6, 1))
        verticals = vertical_surfaces(
            SeifertPresentation.from_pairs([(2, -1), (3, 1), (8, 1)]))
        assert len(verticals) == 1
        assert verticals[0].surface.connects == (1, 3)
        assert verticals[0].genus == 5


def test_criterion_4_family_one():
    with criterion(4, "S2((2,-1),(2m+1,m),(2n,1)): horizontal n-1, "
                      "vertical n+1, gap 2"):
        for m in (1, 2, 3):
            for n in range(2 * m + 2, 2 * m + 7):
                report = norm_of((2, -1), (2 * m + 1, m), (2 * n, 1))
                assert len(report.entries) == 1
                entry = report.entries[0]
                assert entry.min_horizontal_genus == n - 1
                assert entry.min_vertical_genus == n + 1
                assert entry.min_genus == n - 1
        rows = family_scan("S2((2,-1),(2*m+1,m),(2*n,1))",
                           [("m", 1, 3), ("n", "2*m+2", "2*m+6")])
        assert len(rows) == 15
        assert all(row["gap"] == 2 for row in rows)


def test_criterion_5_family_two():
    with criterion(5, "S2((3,-1),(4,1),(2n,1)): horizontal n, "
                      "vertical n+2"):
        for n in range(7, 13):
            report = norm_of((3, -1), (4, 1), (2 * n, 1))
            assert len(report.entries) == 1
            entry = report.entries[0]
            assert entry.min_horizontal_genus == n
            assert entry.min_vertical_genus == n + 2
            assert entry.min_genus == n


def test_criterion_6_family_three():
    with criterion(6, "S2((m,-1),(2n2,1),(2n3,1)): horizontal n2+n3-2 "
                      "vs vertical n2+n3 in the V23 class"):
        for m in (2, 3):
            for n2 in range(m, m + 5):
                for n3 in range(m, m + 5):
                    if n2 + n3 <= 2 * m:
                        continue
                    report = norm_of((m, -1), (2 * n2, 1), (2 * n3, 1))
                    entry = report.per_class[
                        next(c for c in report.per_class
                             if c.parities == (0, 1, 1))]
                    assert entry.min_horizontal_genus == n2 + n3 - 2
                    assert entry.min_vertical_genus == n2 + n3
                    assert entry.min_genus == n2 + n3 - 2


def test_criterion_7_isotopic_pair():
    with criterion(7, "S2((2,-1),(3,1),(4,1)): both witness kinds at "
                      "genus 3, norm 1"):
        report = norm_of((2, -1), (3, 1), (4, 1))
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry.min_genus == 3
        assert entry.norm == 1
        assert entry.witness_kinds == ("horizontal", "vertical")
        assert entry.min_vertical_genus == 3
        assert entry.min_horizontal_genus == 3


def test_criterion_8_prism_family():
    with criterion(8, "S2((2,-1),(2,1),(2n,1)): verticals taut, V12 a "
                      "Klein bottle, others at n+1"):
        for n in range(2, 7):
            report = norm_of((2, -1), (2, 1), (2 * n, 1))
            assert len(report.entries) == 3
            by_par = {e.z2class.parities: e for e in report.entries}
            v12 = by_par[(1, 1, 0)]
            assert v12.min_genus == 2 and v12.norm == 0
            if v12.min_horizontal_genus is not None:
                assert v12.min_horizontal_genus >= 2
            for par in ((1, 0, 1), (0, 1, 1)):
                entry = by_par[par]
                assert entry.min_genus == n + 1
                assert entry.norm == n - 1
                assert entry.min_vertical_genus == n + 1
                if entry.min_horizontal_genus is not None:
                    assert entry.min_horizontal_genus >= n + 1


def test_criterion_9_property_suites():
    with criterion(9, "symmetry/estimate sweeps, completion invariance, "
                      "permutation equivariance: zero failures"):
        failures = 0

        # Lens slope identities, exhaustively for 2k <= 200.
        for twok in range(2, 201, 2):
            for q in range(1, twok):
                if gcd(twok, q) != 1:
                    continue
                n = n_genus(LensCurve(twok, q))
                if n != n_genus(LensCurve(twok, 2 * twok - q)):
                    failures += 1
                if n != n_genus(LensCurve(twok, q + 2 * twok)):
                    failures += 1
                if n != n_genus(LensCurve(-twok, -q)):
                    failures += 1
                if n != n_genus(LensCurve(twok, pow(q, -1, twok))):
                    failures += 1
                norm = normalize_lens(LensCurve(twok, q))
                if n < (norm.twok // 2) // norm.q or n < 1:
                    failures += 1

        # Shift estimate N(2hq + 2k, q) = h + N(2k, q), 2k <= 100.
        for twok in range(2, 101, 2):
            for q in range(1, twok):
                if gcd(twok, q) != 1:
                    continue
                n = n_genus(LensCurve(twok, q))
                for h in range(1, 11):
                    if n_genus(LensCurve(twok + 2 * h * q, q)) != h + n:
                        failures += 1

        # Genus is blind to the choice of gluing completion.
        candidates = []
        for m in random_presentations(60, seed=901):
            for params in enumerate_case4(_SearchState(m)):
                candidates.append((m, params))
            if len(candidates) < 100:
                for params in enumerate_case3(_SearchState(m)):
                    if params.lam <= 4 * max(f.alpha for f in m.fibers):
                        candidates.append((m, params))
                    if len(candidates) >= 140:
                        break
            if len(candidates) >= 140:
                break
        assert len(candidates) >= 100
        for m, params in candidates[:100]:
            base = ph_genus(m, params)
            for t in range(-5, 6):
                shifted = SeifertPresentation(
                    tuple(f.shifted(t) for f in m.fibers))
                if not ph_exists(shifted, params) \
                        or ph_genus(shifted, params) != base:
                    failures += 1

        # Permutation equivariance of the full search.
        orders = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
        for m in random_presentations(50, seed=902):
            base = {e.z2class.parities: (e.min_genus, e.norm)
                    for e in compute_norms(m).entries}
            for order in orders:
                expect = {}
                for par, value in base.items():
                    if par == (1, 1, 1):
                        expect[par] = value
                    else:
                        expect[tuple(par[i] for i in order)] = value
                permuted = SeifertPresentation(
                    tuple(m.fibers[i] for i in order))
                got = {e.z2class.parities: (e.min_genus, e.norm)
                       for e in compute_norms(permuted).entries}
                if got != expect:
                    failures += 1

        assert failures == 0


def test_criterion_10_exhaustiveness_honesty():
    with criterion(10, "default budgets certify every acceptance run; a "
                       "tiny window reports itself honestly"):
        # Reports cached by the earlier criteria, plus the full set
        # recomputed here so this test is self-contained.
        runs = [((2, -1), (3, 1), (8, 1)), ((2, -1), (3, 1), (4, 1))]
        runs += [((2, -1), (2 * m + 1, m), (2 * n, 1))
                 for m in (1, 2, 3) for n in range(2 * m + 2, 2 * m + 7)]
        runs += [((3, -1), (4, 1), (2 * n, 1)) for n in range(7, 13)]
        runs += [((m, -1), (2 * n2, 1), (2 * n3, 1))
                 for m in (2, 3) for n2 in range(m, m + 5)
                 for n3 in range(m, m + 5) if n2 + n3 > 2 * m]
        runs += [((2, -1), (2, 1), (2 * n, 1)) for n in range(2, 7)]
        for pairs in runs:
            report = norm_of(*pairs)
            assert report.exhaustive, pairs
            for entry in report.entries:
                assert entry.exhaustive, (pairs, entry.z2class.label)
        for report in _REPORTS.values():
            assert report.exhaustive

        # At a window of 2 the lead-digit floors of every step past the
        # window already exceed the class bounds, so this one certifies.
        tiny = compute_norms(
            SeifertPresentation.from_pairs([(2, -1), (2, 1), (6, 1)]),
            SearchBudget(mu_window=2))
        assert tiny.exhaustive
        assert {e.z2class.parities: e.min_genus for e in tiny.entries} \
            == {(1, 1, 0): 2, (1, 0, 1): 4, (0, 1, 1): 4}
        # Here the window still binds, and the report says so.
        tiny = compute_norms(
            SeifertPresentation.from_pairs([(2, -1), (2, -1), (4, 5)]),
            SearchBudget(mu_window=2))
        assert not tiny.exhaustive
        assert {e.z2class.parities: (e.min_genus, e.exhaustive)
                for e in tiny.entries} == {(1, 1, 0): (2, True),
                                           (1, 0, 1): (3, False),
                                           (0, 1, 1): (3, False)}
