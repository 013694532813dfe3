"""Outside-in benchmark of sfsnorm: end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload random-mix --seed 1 --seconds 55 \\
        --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each pass is a fresh interpreter
(``one_pass.py``) that imports ``sfsnorm`` from ``src``, so the N cache
starts cold as it does for an ``sfs-norm`` user.  Passes run one after
another (closed loop, one client, single-threaded) until ``--seconds``
have been measured, and at least MIN_PASSES times.  Every pass of a run
solves the same presentations in the same order.

``--trace 0`` reports the end-to-end metrics: the median set-up time,
wall time and peak RSS over passes, and latency percentiles over the
presentations, each the median of its times over the passes.  Every
time is in reference seconds: scaled by calibrations timed around the
pass, so that a slow or fast phase of a shared host cancels out (see
REF_CALIBRATION_S).
``--trace 1`` alternates plain and traced passes and reports the
per-layer metrics: exact counts (which must repeat in every traced
pass), median self times, and the tracing overhead against the plain
passes.  Both print what the workload holds to stderr.  The last line
of output is one JSON object with the keys correct, attempted, failed
and metrics.

``--smoke`` runs every workload on a few small inputs, checks that every
metric named in BENCHMARK.json is reported, and that a corrupted expected
value, a presentation that scan skips because it raised, and an exception
that escapes scan are each reported as failures.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Corpus, describe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench-work"

MIN_PASSES = 3
# No pass starts after HARD_STOP_S, whatever the minimum, and none may
# take longer than PASS_TIMEOUT_S, so a run ends inside three minutes.
HARD_STOP_S = 100
PASS_TIMEOUT_S = 60
TAIL_BEYOND = 10
# A shared host runs the same pass up to 40% slower or faster for
# seconds to minutes at a time.  Two calibrations that call nothing of
# sfsnorm, so that no change to the program can move them, are timed
# just before and just after each pass: a process that starts an
# interpreter and imports standard modules (CALIBRATION), and the pass's
# own in-process one_pass.calibrate.  Every time of the pass is
# multiplied by REF_CALIBRATION_S over the geometric mean of the two
# calibrations' mean times: reference seconds, the time on a host where
# that mean is exactly REF_CALIBRATION_S.  Each calibration alone missed
# host phases that the other caught (see DESIGN.md).
CALIBRATION = ("-c", "import csv, dataclasses, fractions, json, logging, re")
REF_CALIBRATION_S = 0.08


def spawn_calibration():
    """Seconds the calibration process takes, from spawn to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *CALIBRATION], check=True,
                   timeout=PASS_TIMEOUT_S)
    return time.perf_counter() - start


def run_pass(workload, seed, mode, extra=()):
    """Spawn one pass; return its result with times in reference seconds.

    ``setup_s`` is added; ``raw_wall_s`` and ``calibration_s`` keep the
    unscaled wall time and the geometric-mean calibration time.
    """
    command = [sys.executable, str(HERE / "one_pass.py"), workload,
               str(seed), str(WORKDIR), mode, *extra]
    spawns = [spawn_calibration()]
    spawned = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    spawns.append(spawn_calibration())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"pass {mode} {workload} exited "
                         f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["calibration_s"] = math.sqrt(
        statistics.fmean(spawns) * statistics.fmean(result["corpus_draw_s"]))
    scale = REF_CALIBRATION_S / result["calibration_s"]
    result["raw_wall_s"] = result["wall_s"]
    result["setup_s"] = (result["ready"] - spawned) * scale
    result["wall_s"] *= scale
    result["latencies_ms"] = [x * scale for x in result["latencies_ms"]]
    if "trace" in result:
        times = result["trace"]["times"]
        for name in times:
            times[name] *= scale
    return result


def tail_percentile(n):
    """Highest percentile with TAIL_BEYOND of ``n`` samples beyond it;
    with too few samples for that, the maximum."""
    return 100.0 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 100.0


def percentile(values, pct):
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def passes(workload, seed, seconds, modes, extra=()):
    """Run passes cycling through ``modes`` until the run is measured."""
    results = {mode: [] for mode in modes}
    start = time.monotonic()
    i = 0
    while True:
        elapsed = time.monotonic() - start
        enough = all(len(r) >= MIN_PASSES for r in results.values())
        if (enough and elapsed >= seconds) or elapsed >= HARD_STOP_S:
            return results
        mode = modes[i % len(modes)]
        results[mode].append(run_pass(workload, seed, mode, extra))
        i += 1


def end_to_end(plain):
    # Medians over passes: per pass for setup_s and wall_s, per
    # presentation for the latencies.  Unlike the best pass, the median
    # does not move with the number of passes that fit in a run.
    per_presentation = [statistics.median(times)
                        for times in zip(*(r["latencies_ms"] for r in plain))]
    pct = tail_percentile(len(per_presentation))
    classes = sum(r["classes"] for r in plain)
    attempted = sum(r["attempted"] for r in plain)
    failed = sum(r["failed"] for r in plain)
    calibration = statistics.median(r["calibration_s"] for r in plain)
    raw_wall = statistics.median(r["raw_wall_s"] for r in plain)
    print(f"passes {len(plain)}; presentations {len(per_presentation)}; "
          f"latency_tail_ms is p{pct:.2f} of {len(per_presentation)} "
          f"median times; median unscaled wall {raw_wall:.4f} s, median "
          f"calibration {calibration:.4f} s", file=sys.stderr)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
        "latency_p50_ms": (percentile(per_presentation, 50), "ms"),
        "latency_tail_ms": (percentile(per_presentation, pct), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in plain), "MB"),
        "exhaustive_share": (
            sum(r["exhaustive_classes"] for r in plain) / max(classes, 1),
            "ratio"),
        "passed_share": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(plain, traced):
    """Counts of the first traced pass, median self times, overhead.

    Returns the metrics and whether every traced pass gave the same
    counts.
    """
    c = traced[0]["trace"]["counts"]
    repeat = all(r["trace"]["counts"] == c for r in traced)

    def share(num, den):
        return c[num] / c[den] if c[den] else 0.0

    metrics = {
        "lens.n_genus.calls": (c["lens.n_genus.calls"], "count"),
        "lens.n_genus.distinct_slopes":
            (c["lens.n_genus.distinct_slopes"], "count"),
        "lens.n_genus.reuse":
            (share("lens.n_genus.calls", "lens.n_genus.distinct_slopes"),
             "ratio"),
        "pencils.certified_tail.calls":
            (c["pencils.certified_tail.calls"], "count"),
        "pencils.certified_tail.none_share":
            (share("pencils.certified_tail.none",
                   "pencils.certified_tail.calls"), "ratio"),
        "surfaces.horizontal_report.calls":
            (c["surfaces.horizontal_report.calls"], "count"),
        "surfaces.ph_exists.calls": (c["surfaces.ph_exists.calls"], "count"),
        "surfaces.ph_obstruction.calls":
            (c["surfaces.ph_obstruction.calls"], "count"),
        "surfaces.obstruction_per_priced":
            (share("surfaces.ph_obstruction.calls",
                   "surfaces.horizontal_report.calls"), "ratio"),
        "seifert.homology_structure.calls":
            (c["seifert.homology_structure.calls"], "count"),
        "seifert.homology_per_presentation":
            (share("seifert.homology_structure.calls",
                   "search.compute_norms.calls"), "ratio"),
        "search.candidates_enumerated":
            (c["search.candidates_enumerated"], "count"),
        "search.sweep_steps": (c["search.sweep_steps"], "count"),
        "search.priced_per_step":
            (share("surfaces.horizontal_report.calls", "search.sweep_steps"),
             "ratio"),
        "search.max_degree": (c["search.max_degree"], "count"),
        "notation.parse_presentation.calls":
            (c["notation.parse_presentation.calls"], "count"),
    }
    for name in traced[0]["trace"]["times"]:
        metrics[name] = (statistics.median(r["trace"]["times"][name]
                                           for r in traced), "s")
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.overhead_share"] = ((traced_wall - plain_wall)
                                       / plain_wall, "ratio")
    print(f"traced passes {len(traced)}, plain passes {len(plain)}; "
          f"counts repeat: {repeat}", file=sys.stderr)
    return metrics, repeat


def measure(workload, seed, seconds, trace, extra=()):
    """The result object of one run."""
    print(describe(workload, seed), file=sys.stderr)
    WORKDIR.mkdir(exist_ok=True)
    if trace:
        results = passes(workload, seed, seconds, ("plain", "traced"), extra)
        metrics, repeat = per_layer(results["plain"], results["traced"])
        ran = results["plain"] + results["traced"]
    else:
        ran = passes(workload, seed, seconds, ("plain",), extra)["plain"]
        metrics, repeat = end_to_end(ran), True
    attempted = sum(r["attempted"] for r in ran)
    failed = sum(r["failed"] for r in ran)
    correct = failed == 0 and repeat and all(r["exit_code"] == 0
                                              for r in ran)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def smoke():
    """Small inputs: every named metric appears, and corruption fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            result = measure(workload, 1, 0, trace, ("--smoke",))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted or not result["correct"]:
                raise SystemExit(f"smoke: {workload} trace {trace} "
                                 f"reported {sorted(got)} "
                                 f"correct={result['correct']}")
    # (options, presentations failed per pass; None for all of them)
    faults = ((("--corrupt",), 1), (("--raise", "skip"), 1),
              (("--raise", "crash"), None))
    for workload in WORKLOADS:
        size = len(Corpus(workload, 1, smoke=True).keys)
        for extra, per_pass in faults:
            result = measure(workload, 1, 0, 0, ("--smoke", *extra))
            want = result["attempted"] // size * (per_pass or size)
            if result["correct"] or result["failed"] != want:
                raise SystemExit(f"smoke: {workload} {' '.join(extra)}: "
                                 f"{result['failed']} failed, not {want}")
    print("smoke ok: every metric reported; corrupted records, skipped "
          "presentations and escaped exceptions fail")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "sfsnorm" / "__init__.py").is_file():
        parser.error(f"no sfsnorm sources under {ROOT / 'src'}")
    if args.smoke:
        smoke()
        return
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
