"""Spans and exact counts around the public functions of ``sfsnorm``.

Each wrapper is installed at the name its caller looks up, for example
``sfsnorm.search.horizontal_report`` for the candidates ``compute_norms``
prices, and ``sfsnorm.lens.n_genus`` for the lazy imports in
``search._case1_inner`` and ``pencils``.  A patch point that no longer
exists raises, so a renamed function cannot silently read as zero.

Spans (name, start, end, parent, presentation id) stay in memory and are
written out by ``write_spans`` when the pass ends.  For a generator the
span covers each ``next()``, so an enumerator's self time is its own
sweep work minus the child spans (pencils, existence checks, N).
"""

from __future__ import annotations

import inspect
from array import array
from time import perf_counter

# (module, attribute, span name).  Spans nest along these calls, and a
# layer's self time excludes the spans opened inside it.
SPANS = (
    ("sfsnorm.cli", "family_scan", "search.family_scan"),
    ("sfsnorm.search", "parse_presentation", "notation.parse_presentation"),
    ("sfsnorm.search", "compute_norms", "search.compute_norms"),
    ("sfsnorm.search", "enumerate_case4", "search.enumerate_case4"),
    ("sfsnorm.search", "enumerate_case3", "search.enumerate_case3"),
    ("sfsnorm.search", "enumerate_case1", "search.enumerate_case1"),
    ("sfsnorm.search", "certified_tail", "pencils.certified_tail"),
    ("sfsnorm.search", "horizontal_report", "surfaces.horizontal_report"),
    ("sfsnorm.search", "ph_exists", "surfaces.ph_exists"),
    ("sfsnorm.search", "homology_structure", "seifert.homology_structure"),
    ("sfsnorm.surfaces", "homology_structure", "seifert.homology_structure"),
    ("sfsnorm.surfaces", "n_genus", "lens.n_genus"),
    ("sfsnorm.lens", "n_genus", "lens.n_genus"),
)

# Counted without a span: too frequent or too small to time one by one.
# ph_obstruction runs inside ph_exists and ph_genus, gcd is one sweep step.
COUNTS = (
    ("sfsnorm.surfaces", "ph_obstruction", "surfaces.ph_obstruction"),
    ("sfsnorm.search", "gcd", "search.gcd"),
)

ENUMERATORS = ("search.enumerate_case4", "search.enumerate_case3",
               "search.enumerate_case1")


def normalized_slope(curve):
    """(2k, q) with 2k > 0 and 0 < q <= k, the key of the N cache."""
    twok, q = curve.twok, curve.q
    if twok == 0:
        return (0, 1)
    if twok < 0:
        twok, q = -twok, -q
    q %= twok
    return (twok, min(q, twok - q))


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.presentation = array("l")
        self.stack = [-1]
        self.current = 0  # id of the presentation being solved
        self.counts = dict.fromkeys((name for _, _, name in COUNTS + SPANS), 0)
        self.enumerated = 0
        self.slopes = set()
        self.no_certificate = 0
        self.max_degree = 0

    def open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self.stack[-1])
        self.presentation.append(self.current)
        self.stack.append(index)
        return index

    def close(self, index):
        self.end[index] = perf_counter()
        self.stack.pop()

    def call(self, name, fn, args, kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def _each_next(self, name, generator):
        while True:
            index = self.open(name)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self.close(index)
            self.enumerated += 1
            yield item

    def _observe(self, name, args, result):
        if name == "lens.n_genus":
            self.slopes.add(normalized_slope(args[0]))
        elif name == "pencils.certified_tail" and result is None:
            self.no_certificate += 1
        elif name == "surfaces.horizontal_report":
            self.max_degree = max(self.max_degree, args[1].lam)
        elif name in ENUMERATORS and not inspect.isgenerator(result):
            self.enumerated += len(result)

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            if name == "notation.parse_presentation":
                self.current += 1  # family_scan parses each instance first
            result = self.call(name, fn, args, kwargs)
            self._observe(name, args, result)
            if inspect.isgenerator(result):
                return self._each_next(name, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        def wrapper(*args):
            self.counts[name] += 1
            return fn(*args)
        return wrapper

    def install(self, modules):
        """Patch every point of SPANS and COUNTS in ``modules`` by name."""
        for table, make in ((SPANS, self._span_wrapper),
                            (COUNTS, self._count_wrapper)):
            for module, attr, name in table:
                target = modules[module]
                setattr(target, attr, make(name, getattr(target, attr)))

    def self_times(self):
        """Total span duration minus child spans, summed per name."""
        n = len(self.names)
        children = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p] += self.end[i] - self.start[i]
        totals = {}
        for i in range(n):
            own = self.end[i] - self.start[i] - children[i]
            totals[self.names[i]] = totals.get(self.names[i], 0.0) + own
        return totals

    def cumulative(self, name):
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.names)) if self.names[i] == name)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent,presentation\n")
            for i in range(len(self.names)):
                handle.write(f"{self.names[i]},{self.start[i]!r},"
                             f"{self.end[i]!r},{self.parent[i]},"
                             f"{self.presentation[i]}\n")
