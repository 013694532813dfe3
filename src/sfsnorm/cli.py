"""Command line front end.

    sfs-norm n-genus 2K Q [--explain]
    sfs-norm norm "S2((2,-1),(3,1),(8,1))" [--format text|json]
    sfs-norm convert "S2(...)" martelli|hatcher|orlik
    sfs-norm scan FAMILIES.txt [--out FILE]

Exit codes: 0 on success, 1 for usage or syntax errors and for files that
cannot be read or written, 2 for inputs that are not valid small Seifert
presentations or slopes, 3 for internal invariant breaches.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .errors import NotationSyntaxError, SfsNormError
from .lens import (
    LensCurve,
    b_sequence,
    cf_expand,
    n_genus,
    normalize_lens_steps,
)
from .notation import NOTATIONS, canonical_form, format_presentation, \
    parse_presentation
from .scan import check_families, csv_text, parse_scan_file
from .search import SearchBudget, compute_norms, family_scan


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser():
    parser = _Parser(prog="sfs-norm",
                     description="Z/2-Thurston norms of small Seifert "
                                 "fibered spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("n-genus", help="one-sided genus N(2k, q)")
    p.add_argument("twok", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--explain", action="store_true",
                   help="show normalization, digits and b-sequence")

    p = sub.add_parser("norm", help="per-class minimal genus and norm")
    p.add_argument("presentation")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--mu-window", type=_positive_int)
    p.add_argument("--lambda-cap", type=_positive_int)
    p.add_argument("--out")

    p = sub.add_parser("convert", help="rewrite a presentation in "
                                       "another notation")
    p.add_argument("presentation")
    p.add_argument("target", choices=NOTATIONS)

    p = sub.add_parser("scan", help="CSV sweep over presentation families")
    p.add_argument("specfile")
    p.add_argument("--mu-window", type=_positive_int)
    p.add_argument("--lambda-cap", type=_positive_int)
    p.add_argument("--out")
    return parser


def _budget_from(args):
    return SearchBudget(mu_window=args.mu_window, lambda_cap=args.lambda_cap)


def _write_out(args, text):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_n_genus(args):
    curve = LensCurve(args.twok, args.q)
    value = n_genus(curve)
    if args.explain:
        normalized, steps = normalize_lens_steps(curve)
        print(f"slope ({args.twok}, {args.q})")
        for step in steps:
            print(f"  {step}")
        if normalized.twok == 0:
            print("meridian slope bounds a disk")
        else:
            digits = cf_expand(normalized.twok, normalized.q)
            print(f"digits of {normalized.twok}/{normalized.q}: "
                  f"{list(digits)}")
            print(f"b-sequence: {b_sequence(digits)}")
        print(f"N = {value}")
    else:
        print(value)
    return 0


def _witness_text(report):
    if report.kind == "vertical":
        i, j = report.surface.connects
        return f"V{i}{j}"
    pairs = ",".join(f"({l},{m})" for l, m in report.surface.pairs)
    return f"H({pairs})"


def _render_norm_text(report):
    lines = [format_presentation(report.presentation),
             f"canonical: {canonical_form(report.presentation)}",
             f"homology: {report.case.value}"]
    if not report.entries:
        lines.append("no nonzero Z/2 classes")
        return "\n".join(lines) + "\n"
    rows = [("class", "min_genus", "norm", "witness", "kinds",
             "exhaustive")]
    for entry in report.entries:
        rows.append((entry.z2class.label, str(entry.min_genus),
                     str(entry.norm), _witness_text(entry.witness),
                     "+".join(entry.witness_kinds),
                     "yes" if entry.exhaustive else "no"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _cmd_norm(args):
    presentation = parse_presentation(args.presentation)
    report = compute_norms(presentation, _budget_from(args))
    if args.format == "json":
        _write_out(args, json.dumps(report.to_json_dict(), indent=2) + "\n")
    else:
        _write_out(args, _render_norm_text(report))
    return 0


def _cmd_convert(args):
    presentation = parse_presentation(args.presentation)
    print(format_presentation(presentation, args.target))
    return 0


def _cmd_scan(args):
    try:
        # utf-8-sig drops a leading byte-order mark, which is invisible
        # in an editor but would otherwise be read as part of line 1.
        with open(args.specfile, encoding="utf-8-sig") as handle:
            text = handle.read()
    except UnicodeDecodeError as err:
        raise _UsageError(f"scan file {args.specfile} is not UTF-8 text: "
                          f"{err.reason} at byte {err.start}")
    budget = _budget_from(args)
    families = parse_scan_file(text)
    # A template error on any line ends the scan before an instance runs.
    check_families(families)
    rows = [row for _, template, grid in families
            for row in family_scan(template, grid, budget)]
    _write_out(args, csv_text(rows))
    return 0


_COMMANDS = {
    "n-genus": _cmd_n_genus,
    "norm": _cmd_norm,
    "convert": _cmd_convert,
    "scan": _cmd_scan,
}


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, NotationSyntaxError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SfsNormError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AssertionError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
