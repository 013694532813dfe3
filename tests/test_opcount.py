"""``tools/opcount.py`` counts the same bytecodes in every run."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "opcount.py"


def count(scan_file):
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--scan-file", str(scan_file), "--json"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_counts_repeat_on_a_two_line_scan(tmp_path):
    scan_file = tmp_path / "two-lines.txt"
    scan_file.write_text("S2((2,-1),(2,1),(6,1))\n"
                         "S2((2,-1),(3,1),(2*n,1)) | n=4..5\n",
                         encoding="utf-8")
    first, second = count(scan_file), count(scan_file)
    assert first == second
    assert first["exit_code"] == 0
    assert 0 < first["inside_compute_norms"] < first["total"]
    assert sum(first["per_module"].values()) == first["total"]
    assert sum(first["per_function"].values()) == first["total"]
    assert first["per_function"]["sfsnorm.search:compute_norms"] > 0
