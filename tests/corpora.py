"""Seeded corpora of presentations that several test modules share: a
seed names the same presentations, draw for draw, in each of them."""

import random
from fractions import Fraction
from math import gcd

from sfsnorm.errors import PresentationError
from sfsnorm.seifert import HomologyCase, SeifertPresentation, \
    homology_structure


def M(*pairs):
    return SeifertPresentation.from_pairs(pairs)


def euler_sum(presentation):
    return sum((Fraction(f.beta, f.alpha) for f in presentation.fibers),
               Fraction(0))


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


def presentations_by_case(per_case, seed, max_alpha=12):
    """``per_case`` seeded presentations of each homology case."""
    rng = random.Random(seed)
    found = {case: [] for case in HomologyCase}
    while any(len(ms) < per_case for ms in found.values()):
        pairs = []
        for _ in range(3):
            a = rng.randrange(2, max_alpha + 1)
            b = rng.choice([b for b in range(-a + 1, a) if gcd(a, b) == 1])
            pairs.append((a, b))
        try:
            m = SeifertPresentation.from_pairs(pairs)
        except PresentationError:
            continue
        ms = found[homology_structure(m).case]
        if len(ms) < per_case:
            ms.append(m)
    return [m for ms in found.values() for m in ms]
