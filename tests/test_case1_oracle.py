"""Brute-force box oracles for the pruned search.

A case-1 candidate has three slopes (lam, m1), (lam, m2), (lam, -m1-m2)
of one odd degree lam.  ``brute_case1`` lists every such triple in a
box, and ``brute_norms`` every candidate of every shape, each leg either
its fiber pair or of the box's degree (``box_surfaces``).  Both price
each surface that exists, with no pruning and no certificates.  Every
box surface is a real surface, so the pruned search may never report a
larger minimum than the box holds.

The lens-space oracle takes its answer from outside the surface model:
S2((a1,b1),(a2,b2),(1,b3)) is a lens space L(p, q), and for even p the
least genus of its one nonzero class is N(p, q) (Bredon and Wood).
"""

import random
from collections import Counter
from itertools import product
from math import gcd

import sfsnorm.seifert
from sfsnorm.errors import PresentationError
from sfsnorm.lens import slope_genus
from sfsnorm.search import SearchBudget, _SearchState, compute_norms, \
    enumerate_case1
from sfsnorm.seifert import HomologyCase, SeifertPresentation, \
    complete_matrix, homology_structure
from sfsnorm.surfaces import PHParams, ph_class, ph_exists, ph_genus, \
    vertical_surfaces

MAX_ALPHA = 9
MU_MAX = 16
MU_MAX_ALL = 12  # the coefficient half-width of the ``brute_norms`` box
# Case-1 minima above degree 1 (genus 6 at degree 3, 6 and 8 at degree
# 5), which a floor over-claimed by one prunes.
HIGH_DEGREE = [SeifertPresentation.from_pairs(pairs) for pairs in (
    ((7, -4), (11, 3), (7, 1)),
    ((7, 1), (5, -2), (13, 3)),
    ((13, 10), (7, -1), (13, -7)),
)]


def all_odd_presentations(count, seed):
    """Seeded all-odd presentations with every a_i <= MAX_ALPHA and a
    nonzero Z/2 class."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        pairs = []
        for _ in range(3):
            a = rng.randrange(3, MAX_ALPHA + 1, 2)
            b = rng.choice([b for b in range(-a + 1, a) if gcd(a, b) == 1])
            pairs.append((a, b))
        try:
            m = SeifertPresentation.from_pairs(pairs)
        except PresentationError:
            continue
        if homology_structure(m).nonzero_classes:
            found.append(m)
    return found


def random_presentations(count, seed, max_alpha):
    """Seeded presentations with every a_i <= max_alpha, of any case."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        pairs = []
        for _ in range(3):
            a = rng.randrange(2, max_alpha + 1)
            b = rng.choice([b for b in range(-a + 1, a) if gcd(a, b) == 1])
            pairs.append((a, b))
        try:
            found.append(SeifertPresentation.from_pairs(pairs))
        except PresentationError:
            continue
    return found


def box_surfaces(presentation, lam_max, mu_max):
    """Class and genus of each pseudo-vertical surface and of every
    pseudo-horizontal candidate in a box that exists, with no pruning.

    At each degree lam <= lam_max each leg is either its fiber pair, when
    a_i divides lam, or (lam, m) with |m| <= mu_max, except that the last
    leg of the second kind is solved from the zero sum.
    """
    for report in vertical_surfaces(presentation):
        yield report.z2class, report.genus
    fibers = presentation.fibers
    for lam in range(1, lam_max + 1):
        for legs in product(*([f.pair, None] if lam % f.alpha == 0
                              else [None] for f in fibers)):
            free = [i for i, leg in enumerate(legs) if leg is None]
            if not free:
                continue  # every slope its fiber pair: no surface
            # sum m_i * lam / l_i over the legs that are fiber pairs
            fixed = sum(f.beta * (lam // f.alpha)
                        for f, leg in zip(fibers, legs) if leg is not None)
            for ms in product(range(-mu_max, mu_max + 1),
                              repeat=len(free) - 1):
                pairs = list(legs)
                for i, m in zip(free, ms + (-fixed - sum(ms),)):
                    pairs[i] = (lam, m)
                if any(gcd(l, m) != 1 for l, m in pairs):
                    continue
                params = PHParams(pairs)
                if ph_exists(presentation, params):
                    yield (ph_class(presentation, params),
                           ph_genus(presentation, params))


def brute_norms(presentation, lam_max, mu_max):
    """Least genus per class label over ``box_surfaces``."""
    best = {}
    for cls, genus in box_surfaces(presentation, lam_max, mu_max):
        best[cls.label] = min(genus, best.get(cls.label, genus))
    return best


def brute_case1(presentation, lam_max, mu_max):
    """Least genus of a case-1 surface with odd lam <= lam_max and every
    |m_i| <= mu_max, or None when the box holds none."""
    best = None
    for lam in range(1, lam_max + 1, 2):
        for m1 in range(-mu_max, mu_max + 1):
            for m2 in range(-mu_max, mu_max + 1):
                m3 = -m1 - m2
                if abs(m3) > mu_max or \
                        any(gcd(lam, m) != 1 for m in (m1, m2, m3)):
                    continue
                params = PHParams(((lam, m1), (lam, m2), (lam, m3)))
                if not ph_exists(presentation, params):
                    continue
                genus = ph_genus(presentation, params)
                if best is None or genus < best:
                    best = genus
    return best


def test_pruned_search_never_exceeds_box():
    for m in all_odd_presentations(40, seed=4) + HIGH_DEGREE:
        (entry,) = compute_norms(m).entries
        assert entry.exhaustive
        box = brute_case1(m, entry.min_genus + 1, MU_MAX)
        assert box is not None, m
        assert entry.min_genus <= box, m
        # On its own the case-1 search prunes only against its own
        # candidates, so its minimum is the case-1 minimum.
        state = _SearchState(m)
        enumerate_case1(state)
        assert state.witness[entry.z2class].genus <= box, m


def test_pruned_search_never_exceeds_box_of_every_shape():
    # Any box is sound.  Degrees up to 2g + 2 hold every case-3 and
    # case-1 candidate of genus at most g, whose capped-cover part alone
    # is at least lam / 2.
    corpus = random_presentations(250, seed=7, max_alpha=8)
    corpus += all_odd_presentations(20, seed=6)
    cases = Counter()
    for m in corpus:
        report = compute_norms(m)
        if not report.entries:
            continue
        cases[report.case] += len(report.entries)
        box = brute_norms(m, 2 * max(e.min_genus for e in report.entries)
                          + 2, MU_MAX_ALL)
        for entry in report.entries:
            assert entry.exhaustive
            assert entry.min_genus <= box[entry.z2class.label], m
    assert set(cases) == {HomologyCase.CYCLIC_TWO_EVEN,
                          HomologyCase.KLEIN_FOUR,
                          HomologyCase.CYCLIC_VERTICAL}
    assert sum(cases.values()) >= 250


def lens_spaces(count, seed, max_alpha=20):
    """Seeded S2((a1,b1),(a2,b2),(1,b3)) with 2 <= a_i <= max_alpha and
    even p, each with the (p, q) of the lens space L(p, q) it presents.

    Moving the third fiber's twist b3 onto the second leaves two fibers,
    (a1,b1) and (a2,b2') with b2' = b2 + a2*b3, glued into L(p, q) with
    p = |a1*b2' + a2*b1| and q = a2*delta1 + b2'*gamma1 (mod p).  b3 is
    never 0, whose completion ``complete_matrix(1, 0)`` does not exist.
    Building them needs ``_check_multiplicity`` to admit alpha = 1.
    """
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        (a1, b1), (a2, b2) = [
            (a, rng.choice([b for b in range(-a + 1, a) if gcd(a, b) == 1]))
            for a in (rng.randrange(2, max_alpha + 1),
                      rng.randrange(2, max_alpha + 1))]
        b3 = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        f1 = complete_matrix(a1, b1)
        b2_moved = b2 + a2 * b3
        p = abs(a1 * b2_moved + a2 * b1)
        if p == 0 or p % 2:
            continue  # p = 0 is not small; odd p has no nonzero class
        q = (a2 * f1.delta + b2_moved * f1.gamma) % p
        found.append((SeifertPresentation.from_pairs(
            ((a1, b1), (a2, b2), (1, b3))), p, q))
    return found


def test_lens_spaces_match_bredon_wood(monkeypatch):
    # The public parsers still reject alpha < 2; only this test admits 1.
    monkeypatch.setattr(sfsnorm.seifert, "_check_multiplicity",
                        lambda alpha: None)
    # A pinned alpha = 1 fiber never closes case 3's degree loop, so the
    # degree cap only bounds the run time; the minima stay exact.
    budget = SearchBudget(lambda_cap=16)
    kinds = Counter()
    for seed in (1, 2, 3):
        for m, p, q in lens_spaces(400, seed):
            report = compute_norms(m, budget)
            (entry,) = report.entries
            assert entry.min_genus == slope_genus(p, q), (m.pairs(), p, q)
            kinds[report.case, entry.witness_kinds] += 1
    assert {case for case, _ in kinds} == {HomologyCase.CYCLIC_TWO_EVEN,
                                           HomologyCase.CYCLIC_VERTICAL}
    assert {witness for _, witness in kinds} == {
        ("horizontal",), ("horizontal", "vertical")}
