"""End-to-end tests of the command line interface."""

import ast
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sfsnorm.cli
import sfsnorm.notation
import sfsnorm.scan
import sfsnorm.search
from sfsnorm.cli import main
from sfsnorm.errors import (
    InternalInvariantError,
    NoSurfaceError,
    PresentationError,
)
from sfsnorm.report import norm_report_from_json
from sfsnorm.scan import SCAN_CSV_HEADER
from sfsnorm.search import compute_norms
from sfsnorm.seifert import SeifertPresentation

SRC = Path(__file__).resolve().parent.parent / "src"


def witness(kind, params, genus, label):
    return {"kind": kind, "params": params, "genus": genus, "class": label,
            "norm": max(0, genus - 2)}


def class_record(label, genus, surface, kinds, vertical, horizontal):
    e1, e2, e3 = map(int, label)
    return {"class": label, "e1": e1, "e2": e2, "e3": e3,
            "min_genus": genus, "norm": max(0, genus - 2),
            "witness": surface, "witness_kinds": kinds,
            "min_vertical_genus": vertical,
            "min_horizontal_genus": horizontal, "exhaustive": True}


def record(text, canonical, homology, *classes):
    return {"presentation": text, "canonical_form": canonical,
            "homology": homology, "exhaustive": True,
            "classes": list(classes)}


# ``norm --format json`` of one presentation per homology case, with a
# horizontal and a vertical witness, a tie of both kinds and a null
# horizontal minimum.
JSON_RECORDS = {r["presentation"]: r for r in (
    record("S2((2,-1),(3,1),(8,1))", "[-1; (2,1),(3,1),(8,1)]",
           "cyclic_two_even",
           class_record("101", 3, witness("horizontal",
                                          [[2, -1], [3, 1], [6, 1]], 3,
                                          "101"),
                        ["horizontal"], 5, 3)),
    record("S2((2,-1),(2,1),(6,1))", "[-1; (2,1),(2,1),(6,1)]",
           "klein_four",
           class_record("110", 2, witness("vertical", [1, 2], 2, "110"),
                        ["vertical"], 2, None),
           class_record("101", 4, witness("vertical", [1, 3], 4, "101"),
                        ["horizontal", "vertical"], 4, 4),
           class_record("011", 4, witness("vertical", [2, 3], 4, "011"),
                        ["horizontal", "vertical"], 4, 4)),
    record("S2((3,2),(5,2),(7,4))", "[0; (3,2),(5,2),(7,4)]",
           "cyclic_vertical",
           class_record("111", 4, witness("horizontal",
                                          [[1, 0], [1, 0], [1, 0]], 4,
                                          "111"),
                        ["horizontal"], None, 4)),
    record("S2((10,1),(2,-1),(8,-7))", "[-2; (10,1),(2,1),(8,1)]",
           "klein_four",
           class_record("110", 6, witness("vertical", [1, 2], 6, "110"),
                        ["vertical"], 6, None),
           class_record("101", 9, witness("vertical", [1, 3], 9, "101"),
                        ["vertical"], 9, None),
           class_record("011", 5, witness("vertical", [2, 3], 5, "011"),
                        ["vertical"], 5, None)),
    record("S2((2,-1),(3,1),(5,1))", "[-1; (2,1),(3,1),(5,1)]", "trivial"),
)}


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

    @pytest.mark.parametrize("path, value", [
        (("homology",), "klein_four"),
        (("canonical_form",), "[0; (2,1),(3,1),(8,1)]"),
        (("exhaustive",), False),
        (("classes", 0, "class"), "011"),
        (("classes", 0, "e1"), 0),
        (("classes", 0, "min_genus"), 5),
        (("classes", 0, "norm"), 3),
        (("classes", 0, "min_horizontal_genus"), None),
        (("classes", 0, "witness", "norm"), 2),
    ], ids=lambda value: "-".join(map(str, value))
        if isinstance(value, tuple) else None)
    def test_json_record_that_contradicts_itself(self, path, value):
        # Each field is derived from the witness or the presentation;
        # a record whose copy disagrees is not read as if it agreed.
        data = json.loads(json.dumps(JSON_RECORDS["S2((2,-1),(3,1),(8,1))"]))
        assert norm_report_from_json(data).to_json_dict() == data
        *parents, key = path
        target = data
        for step in parents:
            target = target[step]
        assert target[key] != value
        target[key] = value
        with pytest.raises(PresentationError,
                           match="norm record contradicts its own witness"):
            norm_report_from_json(data)

    @pytest.mark.parametrize("path, value", [
        ((), {}),
        ((), []),
        (("presentation",), 5),
        (("classes",), 5),
        (("classes", 0), "101"),
        (("classes", 0, "witness_kinds"), [5, "horizontal"]),
        (("classes", 0, "exhaustive"), "yes"),
        (("classes", 0, "witness", "class"), "1x1"),
        (("classes", 0, "witness", "genus"), 0),
        (("classes", 0, "witness", "params"), [5, 6, 7]),
    ], ids=["empty", "list", "presentation_int", "classes_int",
            "class_string", "kind_int", "exhaustive_string",
            "class_label", "genus_zero", "slopes_ints"])
    def test_malformed_json_record(self, path, value):
        # A record that is not the shape ``to_json_dict`` writes raises
        # the package's error, whatever is wrong with it.
        data = json.loads(json.dumps(JSON_RECORDS["S2((2,-1),(3,1),(8,1))"]))
        if path:
            *parents, key = path
            target = data
            for step in parents:
                target = target[step]
            target[key] = value
        else:
            data = value
        with pytest.raises(PresentationError):
            norm_report_from_json(data)

    @pytest.mark.parametrize("edits", [
        ((("classes", 0, "witness", "genus"), 5),
         (("classes", 0, "witness", "norm"), 3),
         (("classes", 0, "min_genus"), 5), (("classes", 0, "norm"), 3),
         (("classes", 0, "min_horizontal_genus"), 5)),
        ((("classes",), [JSON_RECORDS["S2((2,-1),(3,1),(8,1))"]["classes"][0]]
          * 2),),
        ((("classes",), []),),
        ((("classes", 0, "min_vertical_genus"), 7),),
        ((("classes", 0, "class"), "111"), (("classes", 0, "e2"), 1),
         (("classes", 0, "witness", "class"), "111")),
        ((("classes", 0, "witness_kinds"), ["horizontal", "zzz"]),),
        ((("classes", 0, "witness", "params"), [[2, -1], [3, 1], [6, 7]]),),
        ((("classes", 0, "min_genus"), 3.0), (("classes", 0, "e1"), True)),
    ], ids=["genus_plus_2", "class_twice", "no_class", "vertical_7",
            "class_111", "kind_zzz", "no_surface", "float_and_bool"])
    def test_forged_json_record(self, edits):
        # Each record agrees with itself, but not with its presentation:
        # the reader prices the witness and derives the rest, so it reads
        # none of these edited values on trust.
        data = json.loads(json.dumps(JSON_RECORDS["S2((2,-1),(3,1),(8,1))"]))
        for (*parents, key), value in edits:
            target = data
            for step in parents:
                target = target[step]
            target[key] = value
        with pytest.raises(PresentationError):
            norm_report_from_json(data)

    def test_no_horizontal_bound_where_vertical_wins(self, capsys):
        # A horizontal surface of genus 25 exists in class 011, but the
        # search prunes it against the vertical 5: no bound is reported.
        code, out, _ = run(capsys, "norm", "S2((10,1),(2,-1),(8,-7))",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        horizontal = {c["class"]: c["min_horizontal_genus"]
                      for c in data["classes"]}
        assert horizontal == {"110": None, "101": None, "011": None}
        again = norm_report_from_json(data)
        assert [e.min_horizontal_genus for e in again.entries] == \
            [None, None, None]
        assert again == compute_norms(SeifertPresentation.from_pairs(
            [(10, 1), (2, -1), (8, -7)]))

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
        # The lead-digit floors past a window of 2 certify the first, and
        # the window still binds the second.
        for text, exhaustive in (("S2((2,-1),(2,1),(6,1))", True),
                                 ("S2((2,-1),(2,-1),(4,5))", False)):
            code, out, _ = run(capsys, "norm", text, "--mu-window", "2",
                               "--format", "json")
            assert code == 0
            assert json.loads(out)["exhaustive"] is exhaustive, text

    @pytest.mark.parametrize("text, record", JSON_RECORDS.items(),
                             ids=["cyclic_two_even", "klein_four",
                                  "cyclic_vertical", "no_horizontal",
                                  "trivial"])
    def test_json_record_format(self, capsys, text, record):
        # The exact text: key names, key order, indent and every derived
        # field, which a round trip alone would not pin.
        code, out, err = run(capsys, "norm", text, "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(record, indent=2) + "\n"

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
    def test_each_expression_parsed_once(self, monkeypatch):
        parsed = []
        real = ast.parse

        def counting(source, *args, **kwargs):
            parsed.append(source)
            return real(source, *args, **kwargs)

        sfsnorm.scan._compile.cache_clear()
        monkeypatch.setattr(ast, "parse", counting)
        texts = list(sfsnorm.scan.instances(
            "S2((2,-1),(2*m+1,m),(2*n,1))",
            [("m", "1", "3"), ("n", "2*m", "2*m+4")]))
        assert len(texts) == 15
        assert texts[0] == "S2((2,-1),(3,1),(4,1))"
        assert texts[-1] == "S2((2,-1),(7,3),(20,1))"
        assert sorted(parsed) == sorted(
            {"1", "3", "2*m", "2*m+4", "2*m+1", "m", "2*n"})

    def test_literal_lines_read_once(self, capsys, tmp_path, monkeypatch):
        # A literal line is read by one match: no cursor is built or
        # walked, and each line is parsed once, by family_scan.
        cursors, parsed = [], []
        init, parse = sfsnorm.notation.Cursor.__init__, \
            sfsnorm.search.parse_presentation

        def counting_init(cursor, text):
            cursors.append(text)
            init(cursor, text)

        def counting_parse(text, *args):
            parsed.append(text)
            return parse(text, *args)
        monkeypatch.setattr(sfsnorm.notation.Cursor, "__init__",
                            counting_init)
        monkeypatch.setattr(sfsnorm.search, "parse_presentation",
                            counting_parse)
        lines = ["S2((2,-1),(3,1),(8,1))", "M(+0,0;\t-1/3, 1/3, 2/7 )",
                 " [-1; (2,1), (3,+1),(10,03)]", "S2((2,-1),(3,1),(6,1))"]
        spec = tmp_path / "fam.txt"
        spec.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "scan", str(spec))
        assert code == 0 and cursors == []
        assert parsed == [line.strip() for line in lines]
        # The last line is not small: skipped, so no row.
        keys = {row["canonical_form"]
                for row in csv.DictReader(io.StringIO(out))}
        assert keys == {"[-1; (2,1),(3,1),(8,1)]", "[-1; (3,2),(3,1),(7,2)]",
                        "[-1; (2,1),(3,1),(10,3)]"}

    def test_literal_template_instances(self, monkeypatch):
        # One instance per binding, the template itself; the bounds are
        # still evaluated.
        template = "S2((2,-1),(3,1),(8,1))"
        texts = list(sfsnorm.scan.instances(template, [("n", "1", "3")]))
        assert texts == [template] * 3
        with pytest.raises(PresentationError, match="division by zero"):
            list(sfsnorm.scan.instances(template, [("n", "1", "3//0")]))

    def test_instances_stream(self):
        # A family's instances are made one at a time: draining 10,000
        # of them holds a few instance texts, not all of them.
        sfsnorm.scan._compile.cache_clear()
        tracemalloc.start()
        try:
            count = sum(1 for _ in sfsnorm.scan.instances(
                "S2((2,-1),(2*m+1,m),(2*n,1))",
                [("m", "1", "10"), ("n", "1", "1000")]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 10_000 and peak < 200_000

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

    def test_scan_output_bytes(self, tmp_path):
        # Every cell kind of the CSV: a blank and a nonzero gap, each
        # witness kind, a capped class, a skipped instance and lines in
        # all three notations.  Run as a process, so that the warning
        # reaches stderr through the command's own logging set-up.
        spec = tmp_path / "fam.txt"
        spec.write_text(
            "# one family per notation, then literal lines\n"
            "S2((2,-1),(2*m+1,m),(2*n,1)) | m=1..2 | n=2..4\n"
            "M(+0,0; -1/2, 1/3, 1/(n-(1))*2) | n=5..5\n"
            "[-(n+1); (2,1),(3,1),((1+3)*2,1)] | n=0..0\n"
            "S2((10,1),(2,-1),(8,-7))\n"
            "S2((3,1),(5,1),(7,2))\n")
        proc = subprocess.run(
            [sys.executable, "-m", "sfsnorm.cli", "scan", str(spec),
             "--mu-window", "2"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True)
        assert proc.returncode == 0
        assert proc.stdout == (
            b"canonical_form,class,e1,e2,e3,min_genus,norm,witness_kind,"
            b"gap,exhaustive\r\n"
            b'"[-1; (2,1),(3,1),(4,1)]",101,1,0,1,3,1,both,0,true\r\n'
            b'"[-1; (2,1),(3,1),(8,1)]",101,1,0,1,3,1,horizontal,2,true\r\n'
            b'"[-1; (2,1),(5,2),(4,1)]",101,1,0,1,3,1,vertical,,true\r\n'
            b'"[-1; (2,1),(5,2),(6,1)]",101,1,0,1,4,2,vertical,,true\r\n'
            b'"[-1; (2,1),(5,2),(8,1)]",101,1,0,1,5,3,both,0,true\r\n'
            b'"[-1; (2,1),(3,1),(8,1)]",101,1,0,1,3,1,horizontal,2,true\r\n'
            b'"[-1; (2,1),(3,1),(8,1)]",101,1,0,1,3,1,horizontal,2,true\r\n'
            b'"[-2; (10,1),(2,1),(8,1)]",110,1,1,0,6,4,vertical,,true\r\n'
            b'"[-2; (10,1),(2,1),(8,1)]",101,1,0,1,9,7,vertical,,false\r\n'
            b'"[-2; (10,1),(2,1),(8,1)]",011,0,1,1,5,3,vertical,,true\r\n'
            b'"[0; (3,1),(5,1),(7,2)]",111,1,1,1,5,3,horizontal,,true\r\n')
        assert proc.stderr == (
            b"skipping S2((2,-1),(3,1),(6,1)): sum(beta_i/alpha_i) = 0: the "
            b"manifold is not small (a horizontal incompressible surface "
            b"exists)\n")

    def test_gap_blank_where_vertical_wins(self, capsys, tmp_path):
        spec = tmp_path / "fam.txt"
        spec.write_text("S2((10,1),(2,-1),(8,-7))\n")
        code, out, _ = run(capsys, "scan", str(spec))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {row["class"]: row["gap"] for row in rows} == \
            {"110": "", "101": "", "011": ""}

    def test_byte_order_mark(self, capsys, tmp_path):
        # A leading UTF-8 byte-order mark is not part of the first line.
        line = b"S2((2,-1),(3,1),(2*n,1)) | n=4..5\n"
        outputs = []
        for content in (line, b"\xef\xbb\xbf" + line):
            spec = tmp_path / "fam.txt"
            spec.write_bytes(content)
            outputs.append(run(capsys, "scan", str(spec)))
        assert outputs[0][0] == 0 and outputs[0][1].count("\n") == 3
        assert outputs[1] == outputs[0]

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
        (b"S2((2,-1),(3,1),(2*n,1)) | n=4..40\n"
         b"S2((2,-1),(3,1),(2*k,1)) | n=4..5\n", 2, "unbound variable"),
        (b"S2((2,-1),(3,1),(2*n,1)) | n=4..5\n"
         b"S2((2,-1),(3,1),(" + b"1" * 5000 + b",1))\n", 1,
         "integer of 5000 digits is too long"),
        (b"S2((2,-1),(3,1),(2*n,1)) | n=4..5\n"
         b"S2((2,-1),(n,1),(" + b"1" * 5000 + b",1)) | n=3..3\n", 1,
         "integer of 5000 digits is too long"),
        ("S2((2,-1),(3,1),(\u00f1,1)) | \u00f1=4..5\n".encode(), 1,
         "bad variable name"),
        (b"S2((2,-1),(3,1),(__builtins__*2,1)) | n=4..4\n", 2,
         "unbound variable"),
        (b"S2((2,-1),(3,1),(n,1)) | n=__builtins__..3\n", 2,
         "unbound variable"),
        (b"S2((2,-1),(3,1),(True,1)) | n=4..4\n", 2,
         "unsupported arithmetic"),
        (b"S2((2,-1),(3,1),(__builtins__,1)) | __builtins__=8..8\n", 0,
         None),
        (b"S2((2,-1),(3,1),(8,1))\n# a comment\n"
         b"S2((2,-1),(3,1),(n,1) | n=4..5\nS2((2,-1),(3,1),(9,1))\n", 1,
         "error: line 3: syntax error at position 21: expected ')'"),
        (b"S2((2,-1),(3,1),(8,1))\n\nS2((2,-1),(3,1),(2*k,1)) | n=4..5\n",
         2, "error: line 3: unbound variable 'k'"),
        (b"S2((2,-1),(3,1),(8,1))\n"
         b"S2((2,-1),(3,1),(8//(n-2),1)) | n=1..3\n", 2,
         "error: line 2: division by zero in '8//(n-2)'"),
        (b"S2((2,-1),(3,1),(8,1))\n\nS2((2,-1),(3,1),(n,1)) | n\n", 1,
         "error: line 3: syntax error: expected 'var=lo..hi', got 'n'"),
        # Python compiles __debug__ to the constant True: no binding
        # reaches it, and it used to read as 1 without an error.
        (b"S2((2,-1),(3,1),(2*__debug__,1))\n", 2,
         "unbound variable '__debug__'"),
        (b"S2((2,-1),(3,1),(n,1)) | __debug__=4..4\n", 1,
         "bad variable name '__debug__'"),
        (b"S2((2,-1),(3,1),(8,1)) | if=1..2\n", 1, "bad variable name 'if'"),
        (b"S2((2,-1),(3,1),(8,1)) | n=1..__debug__\n", 2,
         "unbound variable '__debug__'"),
    ], ids=["floor_div_slot", "parenthesised_slot", "hatcher_parentheses",
            "orlik_parentheses", "zero_range_bound", "zero_slot",
            "zero_slot_late", "unbound_name", "trailing_text",
            "unclosed_template", "not_utf8", "repeated_variable",
            "bad_second_line", "long_literal_line", "long_literal_slot",
            "non_ascii_name", "builtins_in_slot", "builtins_in_bound",
            "bool_slot", "builtins_ranged", "template_line_3",
            "unbound_line_3", "zero_slot_line_2", "bad_range_line_3",
            "debug_slot", "debug_ranged", "keyword_ranged", "debug_bound"])
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
            assert err.count("line ") <= 1


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
        ("norm", "S2((2,-1),(3,1),(8,1))", "--notation", "martelli"),
        ("convert", "S2((2,-1),(3,1),(8,1))", "orlik", "--notation",
         "martelli"),
    ], ids=["zero_window", "negative_cap", "scan_window", "scan_format",
            "norm_notation", "convert_notation"])
    def test_bad_option_exit_1(self, capsys, tmp_path, argv):
        spec = tmp_path / "fam.txt"
        spec.write_text("S2((2,-1),(3,1),(8,1))\n")
        code, _, err = run(capsys, *(a.format(spec=spec) for a in argv))
        assert code == 1 and err.startswith("error: ")
        assert err.count("\n") == 1
        if "--notation" in argv:
            assert err.startswith("error: unrecognized arguments")

    @pytest.mark.parametrize("argv", [
        ("scan", "{dir}"),
        ("norm", "S2((2,-1),(3,1),(8,1))", "--out", "{dir}"),
    ], ids=["scan_directory", "out_directory"])
    def test_os_error_exit_1(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
        assert code == 1 and err.startswith("error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("norm", "S2((2,-1),(3,1),(8,1))"),
        ("norm", "S2((2,-1),(3,1),(8,1))", "--format", "json"),
        ("scan", "{spec}"),
    ], ids=["norm_text", "norm_json", "scan"])
    def test_internal_error_exit_3(self, capsys, tmp_path, monkeypatch,
                                   argv):
        def broken(presentation, budget=None):
            raise InternalInvariantError("class 101 ended with no "
                                         "representative")
        monkeypatch.setattr(sfsnorm.cli, "compute_norms", broken)
        monkeypatch.setattr(sfsnorm.search, "compute_norms", broken)
        spec = tmp_path / "fam.txt"
        spec.write_text("S2((2,-1),(3,1),(8,1))\n")
        code, out, err = run(capsys, *(a.format(spec=spec) for a in argv))
        assert code == 3 and out == ""
        assert err == "internal error: class 101 ended with no " \
            "representative\n"

    @pytest.mark.parametrize("argv", [
        ("norm", "S2((2,-1),(3,1),(8,1))"),
        ("scan", "{spec}"),
    ], ids=["norm", "scan"])
    def test_rejected_candidate_exit_3(self, capsys, tmp_path, monkeypatch,
                                       argv):
        # The enumerators build only slopes that bound a surface, so a
        # rejection is a fault of the search: it stops the run, where a
        # silent drop used to print genus 5 (the minimum is 3) as
        # exhaustive with exit 0.
        def reject(presentation, params, structure=None):
            raise NoSurfaceError(f"{params.pairs} bound no surface")
        monkeypatch.setattr(sfsnorm.search, "horizontal_report", reject)
        with pytest.raises(InternalInvariantError, match="bounds no surface"):
            compute_norms(SeifertPresentation.from_pairs(
                [(2, -1), (3, 1), (8, 1)]))
        spec = tmp_path / "fam.txt"
        spec.write_text("S2((2,-1),(3,1),(8,1))\n")
        code, out, err = run(capsys, *(a.format(spec=spec) for a in argv))
        assert code == 3 and out == ""
        assert err.startswith("internal error: enumerated candidate ")
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

    def test_one_eval_in_the_package(self):
        # The package's only eval, exec or compile is the slot
        # arithmetic of scan, and that eval runs with no builtins.
        uses, evals = [], []
        for path in sorted(Path(sfsnorm.scan.__file__).parent.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owner = {}  # each node's innermost enclosing function
            for node in ast.walk(tree):
                for child in ast.iter_child_nodes(node):
                    owner[child] = node.name if isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        else owner.get(node)
                if isinstance(node, ast.Name) and \
                        node.id in ("eval", "exec", "compile"):
                    uses.append((path.name, owner.get(node), node.id))
                if isinstance(node, ast.Call) and \
                        getattr(node.func, "id", None) == "eval":
                    evals.append(node)
        assert sorted(uses) == [("scan.py", "_compile", "compile"),
                                ("scan.py", "_eval_int", "eval")]
        (call,) = evals
        assert isinstance(call.args[1], ast.Name)
        assert call.args[1].id == "_NO_BUILTINS"
        assert sfsnorm.scan._NO_BUILTINS == {"__builtins__": {}}

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
