"""Alternating parent/change runs of the benchmark, summed up as a BENCH file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seconds S [--workload W2 ...] [--first-seed K] \\
        [--claim WORKLOAD:METRIC] [--out BENCH_n.json]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Each
pair runs ``perfbench/run.py --workload W --seed SEED --seconds S
--trace 0`` once in each checkout, one seed per pair (K, K+1, ...), and
the side that runs first alternates from pair to pair, so that a slow
or fast phase of the host falls on both sides alike.  Every run gets
``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPYCACHEPREFIX``, and a
checkout that holds a ``__pycache__`` directory under ``src``,
``perfbench`` or ``tools`` is refused: every pass then compiles the
checkout's modules from source, as in a new checkout, and reads the
standard library's compiled files as usual.  Nothing but
``perfbench/run.py`` and its last line of output is used.

The output holds, for each workload and end-to-end metric, the medians
of the two sides over the pairs, the change in percent, the parent's
interquartile range, and in how many pairs the change was lower and
higher; then every completed pair, and every pair with a failed run and
the reason: a non-zero exit, a run past RUN_TIMEOUT_S, a last line
that is not a JSON object, or a run that does not report ``"correct":
true``.  ``--claim`` states the named metric's result as the file's
claim.  ``worse_than_bound`` lists, as ``WORKLOAD:METRIC``, each
end-to-end metric of the parent's ``BENCHMARK.json`` whose change median
is worse than the parent's, in the metric's ``better`` direction, by
more than its ``bound`` times the parent median; the list is printed
on stderr too.  It is null when the parent has no ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 600
SIDES = ("parent", "change")
# Where a checkout keeps the code a benchmark run imports.
CODE_DIRS = ("src", "perfbench", "tools")


class RunFailed(Exception):
    """A benchmark run that gave no usable result, and why."""


def run_once(checkout, workload, seed, seconds):
    """The result object of one benchmark run; RunFailed when the run
    exits non-zero, times out or its last line of output is not a JSON
    object."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    try:
        proc = subprocess.run(command, cwd=checkout, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"timed out after {RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise RunFailed(f"exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        raise RunFailed("the last line of output is not a JSON object")
    return result


def bytecode_dirs(checkout):
    """The ``__pycache__`` directories under the checkout's code."""
    return sorted(path for top in CODE_DIRS
                  for path in (Path(checkout) / top).rglob("__pycache__"))


def run_pairs(checkouts, workload, pairs, seconds, first_seed):
    """The completed pairs, and the pairs with a failed run and why.

    A run fails when ``run_once`` raises ``RunFailed`` or when it does
    not report ``"correct": true``; only completed pairs are summed up.
    """
    runs, failed = [], []
    for i in range(pairs):
        seed = first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results, reasons = {}, {}
        for side in order:
            try:
                results[side] = run_once(checkouts[side], workload, seed,
                                         seconds)
                if results[side].get("correct") is not True:
                    raise RunFailed('it reported "correct": ' + json.dumps(
                        results[side].get("correct")))
            except RunFailed as err:
                reasons[side] = str(err)
            status = f"failed: {reasons[side]}" if side in reasons \
                else "done"
            print(f"{workload} seed {seed} {side}: {status}",
                  file=sys.stderr)
        if reasons:
            failed.append({"seed": seed, "first": order[0],
                           "failed": reasons})
            continue
        runs.append({
            "seed": seed,
            "first": order[0],
            **{side: {name: metric["value"] for name, metric
                      in results[side]["metrics"].items()}
               for side in SIDES},
            "failed_ops": [results[side]["failed"] for side in SIDES],
        })
    return runs, failed


def interquartile_range(values):
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return high - low


def medians(runs):
    """Per metric: the medians of both sides and how the pairs compare."""
    out = {}
    for name in runs[0]["parent"] if runs else ():
        parent = [run["parent"][name] for run in runs]
        change = [run["change"][name] for run in runs]
        parent_median = statistics.median(parent)
        change_median = statistics.median(change)
        pct = (100.0 * (change_median - parent_median) / parent_median
               if parent_median else 0.0)
        out[name] = {
            "parent_median": round(parent_median, 5),
            "change_median": round(change_median, 5),
            "change_pct": round(pct, 1),
            "parent_iqr": round(interquartile_range(parent), 5),
            "change_lower_pairs": sum(c < p for p, c in zip(parent, change)),
            "change_higher_pairs": sum(c > p
                                       for p, c in zip(parent, change)),
        }
    return out


def load_end_to_end(checkout):
    """The ``end_to_end`` metrics of the checkout's ``BENCHMARK.json``,
    or None when it has none."""
    path = Path(checkout) / "BENCHMARK.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["end_to_end"]


def worse_than_bound(workloads, end_to_end):
    """``WORKLOAD:METRIC`` for each metric of ``end_to_end`` whose change
    median is worse than the parent's by more than bound * parent
    median, in the direction of its ``better``."""
    worse = []
    for workload, summary in workloads.items():
        for metric in end_to_end:
            m = summary["medians"].get(metric["name"])
            if m is None:
                continue
            loss = m["change_median"] - m["parent_median"]
            if metric["better"] == "higher":
                loss = -loss
            if loss > metric["bound"] * m["parent_median"]:
                worse.append(f"{workload}:{metric['name']}")
    return worse


def claim_text(workloads, claim, end_to_end=()):
    """The claim sentence for ``WORKLOAD:METRIC``, counting the pairs
    that moved in the metric's ``better`` direction of ``end_to_end``
    (lower when it is not listed); ValueError when that workload
    completed no pair, reports no such metric or has a parent median of
    0, against which no change in percent can be stated."""
    workload, metric = claim.split(":", 1)
    pairs = workloads[workload]["pairs"]
    if not pairs:
        raise ValueError(f"--claim {claim}: no pair of {workload} completed")
    if metric not in workloads[workload]["medians"]:
        raise ValueError(f"--claim {claim}: {workload} reports no {metric}")
    m = workloads[workload]["medians"][metric]
    if not m["parent_median"]:
        raise ValueError(f"--claim {claim}: the parent median of {metric} "
                         f"on {workload} is 0")
    iqr_pct = 100.0 * m["parent_iqr"] / m["parent_median"]
    better = {e["name"]: e["better"] for e in end_to_end}.get(metric,
                                                               "lower")
    return (f"{metric} on {workload} against the parent: "
            f"{m['change_pct']:+.1f}% in the median, {better} in "
            f"{m[f'change_{better}_pairs']} of {pairs} pairs, against a "
            f"parent interquartile range of {iqr_pct:.1f}%")


def revision(checkout):
    """The short commit id of a git checkout, else its directory name."""
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 \
        else Path(checkout).name


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent_dir, "change": args.change_dir}
    for side, checkout in checkouts.items():
        if not (Path(checkout) / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py in the {side} checkout "
                         f"{checkout}")
    if args.claim and args.claim.split(":", 1)[0] not in args.workload:
        parser.error(f"--claim {args.claim} names no --workload")
    for side, checkout in checkouts.items():
        cached = bytecode_dirs(checkout)
        if cached:
            sys.exit(f"error: the {side} checkout holds {cached[0]}; "
                     f"run on a fresh checkout")

    workloads = {}
    for i, workload in enumerate(args.workload):
        runs, failed = run_pairs(checkouts, workload, args.pairs,
                                 args.seconds,
                                 args.first_seed + i * args.pairs)
        workloads[workload] = {"pairs": len(runs),
                               "medians": medians(runs),
                               "runs": runs,
                               "failed_runs": failed}
    end_to_end = load_end_to_end(args.parent_dir)
    try:
        claim = claim_text(workloads, args.claim, end_to_end or ()) \
            if args.claim else None
    except ValueError as err:
        sys.exit(f"error: {err}")
    worse = None if end_to_end is None else \
        worse_than_bound(workloads, end_to_end)
    print(f"worse than bound: {worse}", file=sys.stderr)
    result = {
        "claim": claim,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds N --trace 0",
        "seconds": {workload: args.seconds for workload in args.workload},
        "host": f"{os.cpu_count()}-CPU {platform.system()}, Python "
                f"{platform.python_version()}; times in the harness's "
                f"reference seconds",
        "method": "alternating parent/change pairs, the side that runs "
                  "first alternating from pair to pair; one seed per pair",
        "parent": revision(args.parent_dir),
        "worse_than_bound": worse,
        "workloads": workloads,
    }
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
