"""Record the frozen per-class norms of a seeded corpus of presentations.

Run from the repository root:

    PYTHONPATH=src python tests/record_norm_fixture.py

It writes ``tests/norm_fixture.json``, which ``tests/test_norm_fixture.py``
compares ``compute_norms`` against.  The corpus holds 100 presentations
of each homology case at max_alpha 12 and 30 of each at max_alpha 40,
60 all-odd draws, and criterion 4 members S2((2,-1),(3,1),(2n,1)).  A
change that moves a row must re-record the fixture and list every row
it changes.
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path

from sfsnorm.errors import PresentationError
from sfsnorm.notation import canonical_form, format_presentation
from sfsnorm.search import compute_norms
from sfsnorm.seifert import SeifertPresentation

from corpora import presentations_by_case

FIXTURE = Path(__file__).with_name("norm_fixture.json")

CRITERION4_N = (2, *range(4, 41), 64, 100, 150, 200)  # n = 3: zero Euler sum


def _all_odd(count, seed, max_alpha):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        pairs = []
        for _ in range(3):
            a = rng.randrange(3, max_alpha + 1)
            if a % 2 == 0:
                a += 1
            b = rng.choice([b for b in range(-a + 1, a) if gcd(a, b) == 1])
            pairs.append((a, b))
        try:
            found.append(SeifertPresentation.from_pairs(pairs))
        except PresentationError:
            continue
    return found


def corpus():
    """The fixture's presentations, in a fixed order."""
    ms = presentations_by_case(100, seed=2021, max_alpha=12)
    ms += presentations_by_case(30, seed=2022, max_alpha=40)
    ms += _all_odd(60, seed=2023, max_alpha=31)
    ms += [SeifertPresentation.from_pairs([(2, -1), (3, 1), (2 * n, 1)])
           for n in CRITERION4_N]
    return ms


def rows(presentation):
    """[canonical form, [class, min_genus, vertical, horizontal,
    exhaustive] per class] for one presentation."""
    report = compute_norms(presentation)
    return [canonical_form(presentation),
            [[e.z2class.label, e.min_genus, e.min_vertical_genus,
              e.min_horizontal_genus, e.exhaustive]
             for e in report.entries]]


def main():
    table = {format_presentation(m): rows(m) for m in corpus()}
    lines = (json.dumps(key) + ":" + json.dumps(value, separators=(",", ":"))
             for key, value in table.items())
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(table)} presentations -> {FIXTURE}")


if __name__ == "__main__":
    main()
