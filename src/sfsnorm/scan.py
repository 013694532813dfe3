"""The family file of ``sfs-norm scan``: its grammar, instances and rows.

A family file holds one family per line, ``TEMPLATE | var=lo..hi | ...``,
``#`` starting a comment.  The template is a presentation in any of the
three notations, read by that notation's grammar, whose integer slots
are arithmetic in the variables (``+ - * // ()``); the bounds of a range
may use the variables ranged before it.  ``instances`` writes out every
instance before any of them runs, so a template error stops a scan
first.  ``class_rows`` and ``csv_text`` give the rows and the CSV that
``sfs-norm scan`` prints.
"""

from __future__ import annotations

import csv
import io
import re

from .errors import NotationSyntaxError, PresentationError
from .notation import Cursor, canonical_form, detect_notation, \
    read_presentation

SCAN_CSV_HEADER = ("canonical_form", "class", "e1", "e2", "e3",
                   "min_genus", "norm", "witness_kind", "gap", "exhaustive")

MAX_SCAN_INSTANCES = 10 ** 6

_ALLOWED_EXPR = re.compile(r"^[0-9a-zA-Z_+\-*/() ]*$")
# A run of slot text up to a parenthesis or the end of the slot.
_SLOT_RUN = re.compile(r"(?:[^,;/()]|//)*")


def parse_scan_file(text):
    """One family per line: ``template | var=lo..hi | var=lo..hi ...``"""
    families = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [field.strip() for field in line.split("|")]
        template, grid = fields[0], []
        for field in fields[1:]:
            if "=" not in field or ".." not in field:
                raise NotationSyntaxError(
                    f"line {lineno}: expected 'var=lo..hi', got "
                    f"{field!r}", lineno)
            name, span = field.split("=", 1)
            lo, hi = span.split("..", 1)
            name = name.strip()
            if not name.isidentifier():
                raise NotationSyntaxError(
                    f"line {lineno}: bad variable name {name!r}", lineno)
            if any(name == seen for seen, _, _ in grid):
                raise NotationSyntaxError(
                    f"line {lineno}: variable {name!r} ranged twice", lineno)
            grid.append((name, lo.strip(), hi.strip()))
        families.append((template, grid))
    return families


def _clip(text):
    """``text`` quoted, cut to its first 40 characters if longer."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _eval_int(expr, bindings):
    import ast

    shown = _clip(expr)
    if not _ALLOWED_EXPR.match(expr):
        raise PresentationError(f"bad arithmetic expression {shown}")

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        if isinstance(node, ast.Name):
            if node.id not in bindings:
                raise PresentationError(f"unbound variable {_clip(node.id)}")
            return bindings[node.id]
        if isinstance(node, ast.UnaryOp) and \
                isinstance(node.op, (ast.USub, ast.UAdd)):
            value = walk(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.BinOp):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.FloorDiv):
                if right == 0:
                    raise PresentationError(f"division by zero in {shown}")
                return left // right
        raise PresentationError(f"unsupported arithmetic in {shown}")

    # Too deep a nesting raises RecursionError in the parse or the walk.
    try:
        return walk(ast.parse(expr, mode="eval"))
    except (SyntaxError, RecursionError) as err:
        raise PresentationError(f"bad arithmetic expression {shown}") \
            from err


class _SlotCursor(Cursor):
    """Reads a template by its notation's grammar, each integer a slot:
    the text up to the next ',', ';', single '/' or a ')' that closes no
    '(' of the slot.  ``spans`` collects each (start, end), unpadded."""

    def __init__(self, text):
        super().__init__(text)
        self.spans = []

    def integer(self):
        self.skip_ws()
        start, depth = self.pos, 0
        while True:
            self.pos = _SLOT_RUN.match(self.text, self.pos).end()
            char = self.text[self.pos:self.pos + 1]
            if char != "(" and (char != ")" or depth == 0):
                break
            depth += 1 if char == "(" else -1
            self.pos += 1
        self.spans.append(
            (start, start + len(self.text[start:self.pos].rstrip())))
        return 0


def _instantiate(template, slots, bindings):
    """``template`` with the value of each of its ``slots``."""
    out, last = [], 0
    for start, end in slots:
        expr = template[start:end]
        value = _eval_int(expr, bindings)
        try:
            out += (template[last:start], str(value))
        except ValueError as err:  # more digits than str() converts
            raise PresentationError(
                f"value of {_clip(expr)} is too large") from err
        last = end
    out.append(template[last:])
    return "".join(out)


def _grid_bindings(grid, bindings=None, index=0, room=MAX_SCAN_INSTANCES):
    # room: the cap divided by the sizes of the enclosing ranges.
    bindings = dict(bindings or {})
    if index == len(grid):
        yield bindings
        return
    name, lo_expr, hi_expr = grid[index]
    lo = _eval_int(str(lo_expr), bindings)
    hi = _eval_int(str(hi_expr), bindings)
    size = max(0, hi - lo + 1)
    if size > room:
        raise PresentationError(f"range of {name!r} takes the family past "
                                f"{MAX_SCAN_INSTANCES} instances")
    for value in range(lo, hi + 1):
        bindings[name] = value
        yield from _grid_bindings(grid, bindings, index + 1, room // size)


def instances(template, grid):
    """The text of every instance of a family, in grid order.

    ``grid`` is an ordered list of (name, lo, hi), the bounds ints or
    expressions in earlier names.  Every template error raises before
    this returns.  A slot becomes an integer literal, so no binding
    makes an instance's syntax right or wrong.
    """
    cur = _SlotCursor(template)
    read_presentation(cur, detect_notation(template))
    # An integer literal stays as written.
    slots = [(start, end) for start, end in cur.spans
             if not re.fullmatch(r"[+-]?[0-9]+", template[start:end])]
    return [_instantiate(template, slots, bindings)
            for bindings in _grid_bindings(list(grid))]


def class_rows(report):
    """One row per class of ``report``, keyed by ``SCAN_CSV_HEADER``.

    ``gap`` is ``min_vertical_genus`` minus ``min_horizontal_genus`` when
    both kinds produced a candidate in the class, else None.  A gap >= 0
    is exact; a negative gap is only a lower bound on the true one, which
    lies between it and 0, because the horizontal minimum is then an
    upper bound (see ``ClassNorm``).
    """
    key = canonical_form(report.presentation)
    rows = []
    for entry in report.entries:
        vertical, horizontal = (entry.min_vertical_genus,
                                entry.min_horizontal_genus)
        kinds = entry.witness_kinds
        e1, e2, e3 = entry.z2class.parities
        rows.append({
            "canonical_form": key,
            "class": entry.z2class.label,
            "e1": e1, "e2": e2, "e3": e3,
            "min_genus": entry.min_genus,
            "norm": entry.norm,
            "witness_kind": "both" if len(kinds) == 2 else kinds[0],
            "gap": None if None in (vertical, horizontal)
            else vertical - horizontal,
            "exhaustive": entry.exhaustive,
        })
    return rows


def csv_text(rows):
    """``rows`` as CSV under ``SCAN_CSV_HEADER``: a blank for a missing
    gap, and ``true`` or ``false`` for the exhaustive flag."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, SCAN_CSV_HEADER)
    writer.writeheader()
    writer.writerows({**row, "exhaustive": str(row["exhaustive"]).lower()}
                     for row in rows)
    return buffer.getvalue()
