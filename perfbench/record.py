"""Record the expected (class, min_genus, exhaustive) of every input.

    python3 perfbench/record.py

Solves each workload's presentations with ``sfsnorm.compute_norms`` and
writes ``perfbench/expected.json``, keyed by the canonical form that
scan prints.  Run it only on a commit whose outputs are trusted; the
benchmark compares every later commit against this record.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sfsnorm import SeifertPresentation, compute_norms  # noqa: E402

from workloads import (  # noqa: E402
    EXPECTED_PATH, WORKLOADS, canonical_key, manifolds)


def main():
    record = {}
    for workload in WORKLOADS:
        table = record[workload] = {}
        for pairs in manifolds(workload):
            report = compute_norms(SeifertPresentation.from_pairs(pairs))
            table[canonical_key(pairs)] = [
                [e.z2class.label, e.min_genus, e.exhaustive]
                for e in report.entries]
        print(f"{workload}: {len(table)} presentations", file=sys.stderr)
    blocks = []
    for workload, table in record.items():
        rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                          for key, value in sorted(table.items()))
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    EXPECTED_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n",
                             encoding="utf-8")


if __name__ == "__main__":
    main()
