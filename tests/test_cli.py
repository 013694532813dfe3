"""End-to-end tests of the command line interface."""

import csv
import io
import json

import pytest

import sfsnorm.search
from sfsnorm.cli import main
from sfsnorm.report import norm_report_from_json
from sfsnorm.scan import SCAN_CSV_HEADER
from sfsnorm.search import compute_norms
from sfsnorm.seifert import SeifertPresentation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNGenus:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "n-genus", "46", "7")
        assert code == 0 and out.strip() == "5"

    def test_base_case(self, capsys):
        code, out, _ = run(capsys, "n-genus", "8", "1")
        assert code == 0 and out.strip() == "4"

    def test_explain(self, capsys):
        code, out, _ = run(capsys, "n-genus", "-46", "-7", "--explain")
        assert code == 0
        assert "negate both" in out
        assert "[6, 1, 1, 3]" in out
        assert "[6, 0, 1, 3]" in out
        assert out.strip().endswith("N = 5")

    def test_not_coprime(self, capsys):
        code, _, err = run(capsys, "n-genus", "6", "3")
        assert code == 2 and "not coprime" in err

    def test_odd_longitude(self, capsys):
        code, _, err = run(capsys, "n-genus", "7", "2")
        assert code == 2 and "even" in err


class TestNorm:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "norm", "S2((2,-1),(3,1),(8,1))")
        assert code == 0
        assert "canonical: [-1; (2,1),(3,1),(8,1)]" in out
        lines = [l for l in out.splitlines() if l.startswith("101")]
        assert len(lines) == 1
        assert "3" in lines[0] and "H((2,-1),(3,1),(6,1))" in lines[0]
        assert "yes" in lines[0]

    def test_json_round_trips_to_library_result(self, capsys):
        code, out, _ = run(capsys, "norm", "S2((2,-1),(2,1),(6,1))",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        m = SeifertPresentation.from_pairs([(2, -1), (2, 1), (6, 1)])
        assert norm_report_from_json(data) == compute_norms(m)

    def test_parse_error_exit_1(self, capsys):
        code, _, err = run(capsys, "norm", "S2((2,-1),(3,1)")
        assert code == 1 and "syntax error at position" in err

    def test_invalid_presentation_exit_2(self, capsys):
        code, _, err = run(capsys, "norm", "S2((2,-1),(3,1),(-1,6))")
        assert code == 2 and "at least 2" in err

    def test_not_small_exit_2(self, capsys):
        code, _, err = run(capsys, "norm", "S2((2,-1),(3,1),(6,1))")
        assert code == 2 and "horizontal incompressible" in err

    def test_mu_window_flag(self, capsys):
        code, out, _ = run(capsys, "norm", "S2((2,-1),(2,1),(6,1))",
                           "--mu-window", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["exhaustive"] is False

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "norm", "S2((2,-1),(3,1),(8,1))",
                           "--format", "json", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["classes"][0]["norm"] == 1


class TestConvert:
    def test_martelli_to_orlik(self, capsys):
        code, out, _ = run(capsys, "convert", "S2((2,-1),(3,1),(8,1))",
                           "orlik")
        assert code == 0 and out.strip() == "[-1; (2,1),(3,1),(8,1)]"

    def test_martelli_to_hatcher(self, capsys):
        code, out, _ = run(capsys, "convert", "S2((2,-1),(3,1),(8,1))",
                           "hatcher")
        assert code == 0 and out.strip() == "M(+0,0; -1/2, 1/3, 1/8)"

    def test_orlik_round_trip(self, capsys):
        code, out, _ = run(capsys, "convert", "[-1; (2,1),(3,1),(8,1)]",
                           "martelli")
        assert code == 0
        code, out2, _ = run(capsys, "convert", out.strip(), "orlik")
        assert code == 0 and out2.strip() == "[-1; (2,1),(3,1),(8,1)]"


class TestScan:
    def test_family_csv(self, capsys, caplog, tmp_path):
        spec = tmp_path / "fam.txt"
        spec.write_text(
            "# growing third fiber\n"
            "S2((2,-1),(2*m+1,m),(2*n,1)) | m=1..1 | n=2..6\n")
        code, out, _ = run(capsys, "scan", str(spec))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(SCAN_CSV_HEADER)
        # n = 3 is skipped (not small) and logged.
        assert len(rows) == 5
        assert any("skipping" in record.message for record in caplog.records)
        gap_idx = rows[0].index("gap")
        genus_idx = rows[0].index("min_genus")
        for row in rows[1:]:
            if int(row[genus_idx]) >= 3:
                assert row[gap_idx] in ("0", "2")
        assert all(row[-1] == "true" for row in rows[1:])

    def test_header_only_for_empty_grid(self, capsys, tmp_path):
        spec = tmp_path / "fam.txt"
        spec.write_text("S2((2,-1),(3,1),(2*n,1)) | n=9..8\n")
        code, out, _ = run(capsys, "scan", str(spec))
        assert code == 0
        assert out.strip() == ",".join(SCAN_CSV_HEADER)

    def test_bad_spec_line_number(self, capsys, tmp_path):
        spec = tmp_path / "fam.txt"
        spec.write_text("S2((2,-1),(3,1),(2*n,1)) | n=2;6\n")
        code, _, err = run(capsys, "scan", str(spec))
        assert code == 1 and "line 1" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "scan", "/nonexistent/family.txt")
        assert code == 1

    def test_out_file(self, capsys, tmp_path):
        spec = tmp_path / "fam.txt"
        spec.write_text("S2((3,-1),(4,1),(2*n,1)) | n=7..8\n")
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "scan", str(spec), "--out", str(target))
        assert code == 0 and out == ""
        rows = list(csv.reader(io.StringIO(target.read_text())))
        assert len(rows) == 3

    # A line that ends in an error runs no instance: there compute_norms
    # refuses every call.
    @pytest.mark.parametrize("content, code, fragment", [
        (b"S2((2,-1),(3,1),(n//1,1)) | n=8..8\n", 0, None),
        (b"S2((2,-1),(3,1),(2*(n+1),1)) | n=3..3\n", 0, None),
        (b"M(+0,0; -1/2, 1/3, 1/(n-(1))*2) | n=5..5\n", 0, None),
        (b"[-(n+1); (2,1),(3,1),((1+3)*2,1)] | n=0..0\n", 0, None),
        (b"S2((2,-1),(3,1),(n,1)) | n=4..4//0\n", 2, "division by zero"),
        (b"S2((2,-1),(3,1),(n//0,1)) | n=8..8\n", 2, "division by zero"),
        (b"S2((2,-1),(3,1),(8+1//n*0,1)) | n=-1..0\n", 2,
         "division by zero"),
        (b"S2((2,-1),(3,1),(2*k,1)) | n=4..5\n", 2, "unbound variable"),
        (b"S2((2,-1),(3,1),(n,1)) x | n=4..5\n", 1, "trailing input"),
        (b"S2((2,-1),(3,1),(n,1) | n=4..5\n", 1, "syntax error"),
        (b"S2((2,-1),(3,1),(8,1))\n\xff\xfe\n", 1, "not UTF-8"),
        (b"S2((2,-1),(3,1),(n,1)) | n=8..9 | n=8..8\n", 1, "line 1"),
    ], ids=["floor_div_slot", "parenthesised_slot", "hatcher_parentheses",
            "orlik_parentheses", "zero_range_bound", "zero_slot",
            "zero_slot_late", "unbound_name", "trailing_text",
            "unclosed_template", "not_utf8", "repeated_variable"])
    def test_scan_file_defects(self, capsys, tmp_path, monkeypatch, content,
                               code, fragment):
        def refuse(*args):
            raise AssertionError("an instance ran")
        if code:
            monkeypatch.setattr(sfsnorm.search, "compute_norms", refuse)
        spec = tmp_path / "fam.txt"
        spec.write_bytes(content)
        got, out, err = run(capsys, "scan", str(spec))
        assert got == code
        if code == 0:
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0] == list(SCAN_CSV_HEADER)
            assert rows[1][0] == "[-1; (2,1),(3,1),(8,1)]"
        else:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert fragment in err and "Traceback" not in err


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_bad_argument_type(self, capsys):
        assert run(capsys, "n-genus", "x", "1")[0] == 1

    @pytest.mark.parametrize("argv", [
        ("norm", "S2((2,-1),(3,1),(8,1))", "--mu-window", "0"),
        ("norm", "S2((2,-1),(3,1),(8,1))", "--lambda-cap", "-3"),
        ("scan", "{spec}", "--mu-window", "-1"),
        ("scan", "{spec}", "--format", "csv"),
    ], ids=["zero_window", "negative_cap", "scan_window", "scan_format"])
    def test_bad_option_exit_1(self, capsys, tmp_path, argv):
        spec = tmp_path / "fam.txt"
        spec.write_text("S2((2,-1),(3,1),(8,1))\n")
        code, _, err = run(capsys, *(a.format(spec=spec) for a in argv))
        assert code == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("scan", "{dir}"),
        ("norm", "S2((2,-1),(3,1),(8,1))", "--out", "{dir}"),
    ], ids=["scan_directory", "out_directory"])
    def test_os_error_exit_1(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
        assert code == 1 and err.startswith("error: ")
        assert err.count("\n") == 1 and "Traceback" not in err


# Expressions past the interpreter's limits: more digits than int() and
# str() convert, and nesting deeper than the parser's recursion limit.
HOSTILE = {
    "long_literal": "1" * 5000,
    "deep_unary": "2*n+" + "-" * 3000 + "8",
    "long_chain": "+".join(["1"] * 5000),
    "huge_value": "n*" + "9" * 4000 + "*" + "9" * 4000,
}


class TestHostileInput:
    """No input ends in a traceback: each exits 1 or 2 with one line."""

    @pytest.mark.parametrize("place, name", [
        (place, name)
        for place in ("norm", "convert", "scan_template", "scan_bound")
        for name in sorted(HOSTILE)])
    def test_one_line_error(self, capsys, tmp_path, place, name):
        expr = HOSTILE[name]
        text = f"S2((2,-1),(3,1),({expr},1))"
        spec = tmp_path / "fam.txt"
        if place == "scan_template":
            spec.write_text(f"S2((2,-1),(3,1),(n+{expr},1)) | n=4..4\n")
        else:
            spec.write_text(f"S2((2,-1),(3,1),(n,1)) | n=4..{expr}\n")
        argv = {
            "norm": ("norm", text),
            "convert": ("convert", text, "orlik"),
            "scan_template": ("scan", str(spec)),
            "scan_bound": ("scan", str(spec)),
        }[place]
        code, out, err = run(capsys, *argv)
        assert code in (1, 2) and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert all(len(line) <= 200 for line in err.splitlines())

    # Ranges past the instance cap: one huge range, and two ranges whose
    # product passes it although each stays below.
    @pytest.mark.parametrize("grid, name", [
        ("n=4.." + "9" * 3000, "n"),
        ("m=1..2000 | n=1..1000", "n"),
    ], ids=["huge_range", "huge_product"])
    def test_endless_range(self, capsys, tmp_path, monkeypatch, grid, name):
        def refuse(*args):
            raise AssertionError("an instance ran")
        monkeypatch.setattr(sfsnorm.search, "compute_norms", refuse)
        spec = tmp_path / "fam.txt"
        spec.write_text(f"S2((2,-1),(3,1),(n,1)) | {grid}\n")
        code, out, err = run(capsys, "scan", str(spec))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert f"range of {name!r}" in err and len(err) <= 200
