"""One benchmark pass in a fresh interpreter, so the N cache starts cold.

    python3 perfbench/one_pass.py WORKLOAD SEED WORKDIR {plain,traced}
        [--smoke] [--corrupt] [--raise {skip,crash}]

Imports ``sfsnorm`` from the checkout's ``src``, writes the workload's
scan file, runs ``sfsnorm.cli.main(["scan", FILE])`` once, checks every
CSV row and prints one JSON object.  ``ready`` is the monotonic clock
when set-up ended; the parent subtracts its spawn time from it.

A plain pass times each ``compute_norms`` call that ``family_scan``
makes (two clock reads per presentation); that is the per-presentation
latency.  A traced pass installs the tracer instead and reports counts
and self times.  Either pass times ``calibrate`` just before and just
after the scan; the parent scales the pass's times with it.

A presentation fails when scan skips it (``family_scan`` logs a warning
for each instance that raises), when its rows are wrong or missing, or
when an exception escapes ``cli.main``, which fails every presentation
of the pass.  The smoke options show each case: ``--corrupt`` adds one
to a recorded min_genus, ``--raise skip`` makes ``compute_norms`` raise
an ``SfsNormError`` on one presentation and ``--raise crash`` a
``ValueError``, which scan does not catch.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import sfsnorm.cli  # noqa: E402
import sfsnorm.search  # noqa: E402
from sfsnorm.errors import SfsNormError  # noqa: E402
from sfsnorm.notation import canonical_form  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import Corpus, load_expected  # noqa: E402


def calibrate():
    """Seconds to draw five random-mix corpora in this process.

    The benchmark's own pure-Python work (rejection sampling, gcd,
    Fractions, string building), with no call into ``sfsnorm``.
    """
    start = time.perf_counter()
    for seed in range(5):
        Corpus("random-mix", seed)
    return time.perf_counter() - start


def timed_compute_norms(latencies):
    compute_norms = sfsnorm.search.compute_norms

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return compute_norms(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - start)
    sfsnorm.search.compute_norms = wrapper


def raise_on(key, kind):
    """Make ``compute_norms`` raise on the presentation ``key``."""
    compute_norms = sfsnorm.search.compute_norms

    def wrapper(presentation, *args, **kwargs):
        if canonical_form(presentation) == key:
            if kind == "skip":
                raise SfsNormError(f"injected failure on {key}")
            raise ValueError(f"injected failure on {key}")
        return compute_norms(presentation, *args, **kwargs)
    sfsnorm.search.compute_norms = wrapper


class SkipLog(logging.Handler):
    """The instances ``family_scan`` skips: it logs ``skipping TEXT: ERR``."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.texts = []

    def emit(self, record):
        self.texts.append(record.args[0] if record.args
                          else record.getMessage())


def main(argv):
    workload, seed, workdir, mode = argv[:4]
    smoke, corrupt = "--smoke" in argv, "--corrupt" in argv
    inject = argv[argv.index("--raise") + 1] if "--raise" in argv else None
    if not Path(sfsnorm.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"sfsnorm imported from {sfsnorm.__file__}, "
                         f"not from {ROOT / 'src'}")
    corpus = Corpus(workload, int(seed), smoke)
    expected = load_expected()[workload]
    if corrupt:
        key = next(k for k in corpus.keys if expected[k])
        label, genus, exhaustive = expected[key][0]
        expected[key][0] = [label, genus + 1, exhaustive]
    scan_file = Path(workdir) / f"scan-{workload}-{seed}.txt"
    scan_file.write_text(corpus.scan_text, encoding="utf-8")
    ready = time.monotonic()

    if inject:
        # A presentation with no recorded rows: before skips were
        # counted, one that raised there read as passed.
        raise_on(min(corpus.keys, key=lambda k: len(expected[k])), inject)
    latencies = []
    tracer = Tracer() if mode == "traced" else None
    if tracer:
        tracer.install(sys.modules)
    else:
        timed_compute_norms(latencies)
    skips = SkipLog()
    logging.getLogger("sfsnorm.search").addHandler(skips)
    out = io.StringIO()
    argv = ["scan", str(scan_file)]
    corpus_draw = [calibrate()]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer:
                code = tracer.call("cli.main", sfsnorm.cli.main, (argv,), {})
            else:
                code = sfsnorm.cli.main(argv)
    except Exception:  # an escape fails every presentation of the pass
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - start
    corpus_draw.append(calibrate())

    if code == 0:
        rows = list(csv.DictReader(io.StringIO(out.getvalue())))
        failed = corpus.check(rows, expected, skips.texts)
    else:
        rows, failed = [], len(corpus.keys)
    result = {
        "ready": ready,
        "wall_s": wall,
        "corpus_draw_s": corpus_draw,
        "exit_code": code,
        "attempted": len(corpus.keys),
        "failed": failed,
        "classes": len(rows),
        "exhaustive_classes": sum(r["exhaustive"] == "true" for r in rows),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latencies_ms": [1000 * x for x in latencies],
    }
    if tracer:
        result["trace"] = trace_summary(tracer)
        tracer.write_spans(Path(workdir) / f"spans-{workload}-{seed}.csv")
    print(json.dumps(result))


def trace_summary(tracer):
    counts = tracer.counts
    own = tracer.self_times()
    scan_s = tracer.cumulative("cli.main")
    times = {f"{name}.self_s": own.get(name, 0.0) for name in (
        "lens.n_genus", "pencils.certified_tail",
        "surfaces.horizontal_report", "surfaces.ph_exists",
        "search.enumerate_case1", "search.enumerate_case3",
        "search.enumerate_case4", "notation.parse_presentation")}
    times["cli.scan.cum_s"] = scan_s
    times["cli.render_s"] = scan_s - tracer.cumulative("search.family_scan")
    return {
        "counts": {
            "lens.n_genus.calls": counts["lens.n_genus"],
            "lens.n_genus.distinct_slopes": len(tracer.slopes),
            "pencils.certified_tail.calls": counts["pencils.certified_tail"],
            "pencils.certified_tail.none": tracer.no_certificate,
            "surfaces.horizontal_report.calls":
                counts["surfaces.horizontal_report"],
            "surfaces.ph_exists.calls": counts["surfaces.ph_exists"],
            "surfaces.ph_obstruction.calls":
                counts["surfaces.ph_obstruction"],
            "seifert.homology_structure.calls":
                counts["seifert.homology_structure"],
            "search.compute_norms.calls": counts["search.compute_norms"],
            "search.candidates_enumerated": tracer.enumerated,
            "search.sweep_steps": counts["search.gcd"],
            "search.max_degree": tracer.max_degree,
            "notation.parse_presentation.calls":
                counts["notation.parse_presentation"],
        },
        "times": times,
    }


if __name__ == "__main__":
    main(sys.argv[1:])
