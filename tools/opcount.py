"""Executed bytecodes of one ``sfs-norm scan``, per module and function.

    python3 tools/opcount.py WORKLOAD [--seed S] [--json]
    python3 tools/opcount.py --scan-file FILE [--json]

Run from anywhere in a checkout.  WORKLOAD names a corpus of
``perfbench/workloads.py`` (``random-mix`` or ``family-scan``), drawn
at run seed S (default 1), which sets the line order and notation;
``--scan-file`` counts a family file of one's own instead.  Nothing
under ``perfbench`` is changed: the corpus is only read from there.

Each count runs in a fresh interpreter with ``PYTHONHASHSEED=0``, so
the N cache starts cold and set iteration repeats from run to run.
That interpreter imports ``sfsnorm`` from the checkout's ``src``,
writing no bytecode there, then traces only
``sfsnorm.cli.main(["scan", FILE])``, with ``sys.settrace`` and
``f_trace_opcodes``: one event per bytecode executed in Python code
(the standard library's included; code in C is not counted).
A bytecode counts as inside ``compute_norms`` while a frame of
``sfsnorm.search.compute_norms`` is on the stack.

The report gives the total, the count and share inside
``compute_norms``, and the 25 largest counts per module and per
function (``module:qualified name``).  ``--json`` prints the full counts as one
JSON object instead.  The counts are exact and repeat from run to run
on one Python version; they do not depend on the host's speed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INSIDE = ("sfsnorm.search", "compute_norms")
TOP = 25  # rows of each table in the text report


def key(frame):
    """(module, qualified name) of the code ``frame`` runs."""
    return frame.f_globals.get("__name__"), frame.f_code.co_qualname


def count_scan(scan_file):
    """The counts of one scan of ``scan_file``, in this interpreter."""
    import sfsnorm.cli

    per_function = Counter()
    inside = 0
    depth = 0  # compute_norms frames on the stack

    def local(frame, event, arg):
        nonlocal inside, depth
        if event == "opcode":
            per_function[key(frame)] += 1
            if depth:
                inside += 1
        elif event == "return" and key(frame) == INSIDE:
            depth -= 1
        return local

    def start(frame, event, arg):
        nonlocal depth
        frame.f_trace_opcodes = True
        if key(frame) == INSIDE:
            depth += 1
        return local

    with open(os.devnull, "w", encoding="utf-8") as sink:
        stdout, sys.stdout = sys.stdout, sink
        sys.settrace(start)
        try:
            code = sfsnorm.cli.main(["scan", str(scan_file)])
        finally:
            sys.settrace(None)
            sys.stdout = stdout
    per_module = Counter()
    for (module, _), n in per_function.items():
        per_module[module] += n
    return {
        "exit_code": code,
        "total": sum(per_function.values()),
        "inside_compute_norms": inside,
        "per_module": dict(per_module.most_common()),
        "per_function": {f"{module}:{name}": n for (module, name), n
                         in per_function.most_common()},
    }


def count_in_fresh_interpreter(scan_file):
    """``count_scan(scan_file)`` run by a new interpreter with
    ``PYTHONHASHSEED=0`` that imports from the checkout's ``src`` and
    writes no bytecode there."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, __file__, "--count-here", str(scan_file)],
        capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"counting run failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def corpus_text(workload, seed):
    """The scan file that ``perfbench`` hands the program for
    ``workload`` at run seed ``seed``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS, Corpus
    finally:
        sys.path.pop(0)
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    return Corpus(workload, seed).scan_text


def report_text(counts):
    total, inside = counts["total"], counts["inside_compute_norms"]
    lines = [f"bytecodes: {total:,}",
             f"inside compute_norms: {inside:,} "
             f"({100.0 * inside / total if total else 0.0:.1f}%)",
             f"scan exit code: {counts['exit_code']}"]
    for table in ("per_module", "per_function"):
        lines += ["", table.replace("_", " ") + ":"]
        lines += [f"  {n:>10,}  {name}"
                  for name, n in list(counts[table].items())[:TOP]]
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Executed bytecodes of one sfs-norm scan")
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--scan-file")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--count-here", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.count_here:
        json.dump(count_scan(args.count_here), sys.stdout)
        return 0
    if (args.workload is None) == (args.scan_file is None):
        parser.error("give one of WORKLOAD and --scan-file")
    if args.scan_file:
        counts = count_in_fresh_interpreter(Path(args.scan_file).resolve())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            scan_file = Path(tmp) / f"scan-{args.workload}.txt"
            scan_file.write_text(corpus_text(args.workload, args.seed),
                                 encoding="utf-8")
            counts = count_in_fresh_interpreter(scan_file)
    sys.stdout.write(json.dumps(counts, indent=1) + "\n" if args.json
                     else report_text(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
