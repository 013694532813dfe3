"""Inputs and output checks of the benchmark workloads.

Every workload is handed to the program as one ``sfs-norm scan`` file:

* ``random-mix``: single presentations drawn by rejection sampling in
  four strata of ``max_alpha`` from a fixed pool seed;
* ``family-scan``: the acceptance families of criteria 4 to 8 at widened
  ranges, plus the tall criterion-4 member ``S2((2,-1),(3,1),(800,1))``.

The run seed shuffles the order of the lines and, for single
presentations, picks the notation (Martelli or Hatcher) of each line.
The manifolds themselves are fixed, so the (min_genus, exhaustive) pairs
recorded in ``expected.json`` cover every seed, and the work of a pass
does not depend on the seed.

This module does not import ``sfsnorm``: the inputs and the expected
values are the benchmark's own.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

WORKLOADS = ("random-mix", "family-scan")
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# random-mix: (max_alpha, count, all-odd multiplicities allowed).  An
# all-odd presentation with max_alpha >= 60 takes seconds to minutes
# (ROADMAP item 3), so one of them would be most of a pass; the two
# upper strata draw only presentations with an even multiplicity.
POOL_SEED = 2021
RANDOM_STRATA = ((12, 100, True), (30, 50, True), (60, 100, False),
                 (100, 100, False))

# family-scan widths: criterion 4 runs n up to 2m + C4_SPAN, and so on.
C4_SPAN, C5_MAX, C6_SPAN, C8_MAX, TALL_N = 10, 18, 4, 12, 400


def is_small(pairs):
    """Coprime fiber pairs with alpha >= 2 and nonzero Euler sum."""
    return all(a >= 2 and gcd(a, b) == 1 for a, b in pairs) and \
        sum(Fraction(b, a) for a, b in pairs) != 0


def random_presentations(count, seed, max_alpha, all_odd=True):
    """``count`` fiber-pair triples by rejection sampling.

    The same draw as the test suite's generator: alpha uniform in
    [2, max_alpha], beta uniform in (-alpha, alpha] with 0 read as 1,
    rejected until coprime, and triples rejected unless small.  With
    ``all_odd`` false, triples whose multiplicities are all odd are
    rejected too.
    """
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
        if not is_small(pairs):
            continue
        if not all_odd and all(a % 2 for a, _ in pairs):
            continue
        found.append(tuple(pairs))
    return found


def canonical_key(pairs):
    """Orlik normal form, the ``canonical_form`` column of scan output."""
    e = sum(b // a for a, b in pairs)
    body = ",".join(f"({a},{b % a})" for a, b in pairs)
    return f"[{e}; {body}]"


def martelli(pairs):
    return "S2(" + ",".join(f"({a},{b})" for a, b in pairs) + ")"


def hatcher(pairs):
    return "M(+0,0; " + ", ".join(f"{b}/{a}" for a, b in pairs) + ")"


def _gap2(gap):
    return gap == 2


def _gap_nonpositive(gap):
    return gap is None or gap <= 0


def _families():
    """(scan line, [(pairs, closed form)]) for each family-scan line.

    A closed form maps a class label to (min_genus, gap check), taken
    from acceptance criteria 4 to 8.  Instances that are not small are
    left out of the lists: scan skips them with a log line.
    """
    c4 = [((2, -1), (2 * m + 1, m), (2 * n, 1)) for m in range(1, 4)
          for n in range(2 * m + 2, 2 * m + C4_SPAN + 1)]
    c6 = [(m, n2, n3) for m in (2, 3) for n2 in range(m, m + C6_SPAN + 1)
          for n3 in range(m, m + C6_SPAN + 1)]
    return [
        (f"S2((2,-1),(2*m+1,m),(2*n,1)) | m=1..3 | n=2*m+2..2*m+{C4_SPAN}",
         [(p, {"101": (p[2][0] // 2 - 1, _gap2)}) for p in c4]),
        (f"S2((3,-1),(4,1),(2*n,1)) | n=7..{C5_MAX}",
         [(((3, -1), (4, 1), (2 * n, 1)), {"011": (n, _gap2)})
          for n in range(7, C5_MAX + 1)]),
        (f"S2((m,-1),(2*a,1),(2*b,1)) | m=2..3 | a=m..m+{C6_SPAN} "
         f"| b=m..m+{C6_SPAN}",
         [(((m, -1), (2 * n2, 1), (2 * n3, 1)),
           {"011": (n2 + n3 - 2, _gap2)} if n2 + n3 > 2 * m else {})
          for m, n2, n3 in c6]),
        ("S2((2,-1),(3,1),(4,1))",
         [(((2, -1), (3, 1), (4, 1)), {"101": (3, lambda gap: gap == 0)})]),
        (f"S2((2,-1),(2,1),(2*n,1)) | n=2..{C8_MAX}",
         [(((2, -1), (2, 1), (2 * n, 1)),
           {"110": (2, _gap_nonpositive), "101": (n + 1, _gap_nonpositive),
            "011": (n + 1, _gap_nonpositive)})
          for n in range(2, C8_MAX + 1)]),
        (f"S2((2,-1),(3,1),({2 * TALL_N},1))",
         [(((2, -1), (3, 1), (2 * TALL_N, 1)), {"101": (TALL_N - 1, _gap2)})]),
    ]


def manifolds(workload):
    """Fiber-pair triples the workload solves, before any seed is used."""
    if workload == "random-mix":
        return [p for max_alpha, count, all_odd in RANDOM_STRATA
                for p in random_presentations(count, POOL_SEED, max_alpha,
                                              all_odd)]
    if workload == "family-scan":
        return [p for _, cases in _families() for p, _ in cases
                if is_small(p)]
    raise ValueError(f"unknown workload {workload!r}")


def describe(workload, seed):
    """One line on what a run of ``workload`` at ``seed`` solves."""
    if workload == "random-mix":
        strata = ", ".join(
            f"{count} at max_alpha {max_alpha}"
            + ("" if all_odd else " (no all-odd)")
            for max_alpha, count, all_odd in RANDOM_STRATA)
        return (f"random-mix: pool seed {POOL_SEED}: {strata}; run seed "
                f"{seed} sets line order and notation")
    return (f"{workload}: {len(manifolds(workload))} presentations in "
            f"{len(_families())} scan lines; run seed {seed} sets line order")


class Corpus:
    """The scan file of one pass and what its output must contain."""

    def __init__(self, workload, seed, smoke=False):
        rng = random.Random(seed)
        self.closed_forms = {}
        # Each instance as scan names it in a skip warning, and its key;
        # None for the instances that are not small, which scan must skip.
        self.texts = {}
        if workload == "family-scan":
            families = _families()
            if smoke:
                families = [f for f in families if len(f[1]) == 1][:1]
            lines = [line for line, _ in families]
            self.keys = []
            for _, cases in families:
                for pairs, form in cases:
                    key = canonical_key(pairs) if is_small(pairs) else None
                    self.texts[martelli(pairs)] = key
                    if key:
                        self.keys.append(key)
                        self.closed_forms[key] = form
        else:
            pairs = manifolds(workload)[:12 if smoke else None]
            lines = [rng.choice((martelli, hatcher))(p) for p in pairs]
            self.keys = [canonical_key(p) for p in pairs]
            self.texts = dict(zip(lines, self.keys))
        rng.shuffle(lines)
        self.scan_text = "\n".join(lines) + "\n"

    def check(self, rows, expected, skipped):
        """Number of presentations that scan skipped or got wrong.

        ``rows`` are the CSV rows as dicts of strings; ``expected`` maps a
        canonical key to its recorded [class, min_genus, exhaustive]
        triples; ``skipped`` names the instances scan skipped.  Every row
        must match the record, and family rows must also match their
        closed forms.  Rows of a presentation that is not in the corpus,
        and skips of an instance that is not, count as one more failure.
        """
        got = {}
        for row in rows:
            got.setdefault(row["canonical_form"], []).append(row)
        bad = set()
        unknown = 0
        for text in skipped:
            if text not in self.texts:
                unknown += 1
            elif self.texts[text] is not None:
                bad.add(self.texts[text])
        # The random-mix draw holds one presentation twice (sampling is
        # with replacement), so a key can stand for several lines.
        counts = Counter(self.keys)
        for key, copies in counts.items():
            actual = got.pop(key, [])
            want = [tuple(t) for t in expected.get(key, ())] * copies
            have = [(r["class"], int(r["min_genus"]),
                     r["exhaustive"] == "true") for r in actual]
            if key not in expected or sorted(have) != sorted(want):
                bad.add(key)
                continue
            for row in actual:
                form = self.closed_forms.get(key, {}).get(row["class"])
                if form is None:
                    continue
                gap = int(row["gap"]) if row["gap"] else None
                if int(row["min_genus"]) != form[0] or not form[1](gap):
                    bad.add(key)
        return sum(counts[key] for key in bad) + len(got) + unknown


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)
