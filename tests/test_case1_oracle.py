"""Brute-force box oracle for the all-odd (case 1) search.

A case-1 candidate has three slopes (lam, m1), (lam, m2), (lam, -m1-m2)
of one odd degree lam.  The oracle lists every such triple in a box and
prices each surface that exists, with no pruning and no certificates.
Every box surface is a real surface, so the pruned search may never
report a larger minimum than the box holds.
"""

import random
from math import gcd

from sfsnorm.errors import PresentationError
from sfsnorm.search import _SearchState, compute_norms, enumerate_case1
from sfsnorm.seifert import SeifertPresentation, homology_structure
from sfsnorm.surfaces import PHParams, ph_exists, ph_genus

MAX_ALPHA = 9
MU_MAX = 16
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
        state = _SearchState(homology_structure(m))
        enumerate_case1(m, state=state)
        assert state.best[entry.z2class] <= box, m
