"""The family file of ``sfs-norm scan``: its grammar, instances and rows.

A family file holds one family per line, ``TEMPLATE | var=lo..hi | ...``,
``#`` starting a comment.  The template is a presentation in any of the
three notations, read by that notation's grammar, whose integer slots
are arithmetic in the variables (``+ - * // ()``); the bounds of a range
may use the variables ranged before it.  Each slot and bound is checked
against that arithmetic, compiled once by Python's compiler, and run
with no builtins, so its names are the line's variables and nothing else.
A variable is an ASCII identifier other than a Python keyword and
``__debug__``, which Python reads as a constant: a slot or bound that
names ``__debug__`` is an unbound name.

A template that its notation's pattern reads whole is a literal
presentation: it has no slot to evaluate, so each of its instances is
the template itself, one per binding, and only the bounds are
evaluated.  Any other template is walked by ``_SlotCursor`` to find its
slots.  ``instances`` makes the instances of one family one at a time,
and ``check_families`` drains them for a whole file, so a template error
stops a scan before any instance runs.  ``class_rows`` and ``csv_text``
give the rows and the CSV that ``sfs-norm scan`` prints.
"""

from __future__ import annotations

import ast
import csv
import io
import keyword
import re
from functools import lru_cache
from operator import itemgetter

from .errors import NotationSyntaxError, PresentationError, SfsNormError
from .notation import GRAMMARS, INTEGER, Cursor, canonical_form, \
    detect_notation, read_presentation

SCAN_CSV_HEADER = ("canonical_form", "class", "e1", "e2", "e3",
                   "min_genus", "norm", "witness_kind", "gap", "exhaustive")

MAX_SCAN_INSTANCES = 10 ** 6

# The cells of a row before its exhaustive flag, the last column.
_CELLS = itemgetter(*SCAN_CSV_HEADER[:-1])

_ALLOWED_EXPR = re.compile(r"^[0-9a-zA-Z_+\-*/() ]*$")
# The nodes of a slot's tree besides its integer literals.
_ARITHMETIC = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Name, ast.Load,
               ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.USub, ast.UAdd)
# The globals of every slot: no builtins, so its names are variables.
_NO_BUILTINS = {"__builtins__": {}}
# A run of slot text up to a parenthesis or the end of the slot.
_SLOT_RUN = re.compile(r"(?:[^,;/()]|//)*")
# A slot that is an integer literal, which an instance keeps as written.
_LITERAL_SLOT = re.compile(INTEGER)


def parse_scan_file(text):
    """One family per line: ``template | var=lo..hi | var=lo..hi ...``,
    as (line number, template, grid) triples.  An error names its line."""
    families = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "|" not in line:  # a single presentation: no grid to read
            families.append((lineno, line, []))
            continue
        fields = [field.strip() for field in line.split("|")]
        template, grid = fields[0], []
        with _on_line(lineno):
            for field in fields[1:]:
                if "=" not in field or ".." not in field:
                    raise NotationSyntaxError(
                        f"expected 'var=lo..hi', got {field!r}")
                name, span = field.split("=", 1)
                lo, hi = span.split("..", 1)
                name = name.strip()
                if not (name.isidentifier() and name.isascii()) or \
                        keyword.iskeyword(name) or name == "__debug__":
                    raise NotationSyntaxError(f"bad variable name {name!r}")
                if any(name == seen for seen, _, _ in grid):
                    raise NotationSyntaxError(
                        f"variable {name!r} ranged twice")
                grid.append((name, lo.strip(), hi.strip()))
        families.append((lineno, template, grid))
    return families


class _on_line:
    """A context that prefixes the message of an error raised inside with
    ``line N:``, keeping its type, so the exit code stays the same."""

    __slots__ = ("lineno",)

    def __init__(self, lineno):
        self.lineno = lineno

    def __enter__(self):
        pass

    def __exit__(self, kind, err, traceback):
        if isinstance(err, SfsNormError):
            err.args = (f"line {self.lineno}: {err}",)


def _clip(text):
    """``text`` quoted, cut to its first 40 characters if longer."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _eval_int(expr, bindings):
    """The value of the slot or bound ``expr`` under ``bindings``."""
    code = _compile(expr)
    # Checked before the eval: there a name that ``bindings`` lacks would
    # be looked up in the globals, where ``__builtins__`` is a dict.
    for name in code.co_names:
        if name not in bindings:
            raise PresentationError(f"unbound variable {_clip(name)}")
    try:
        return eval(code, _NO_BUILTINS, bindings)
    except ZeroDivisionError as err:
        raise PresentationError(f"division by zero in {_clip(expr)}") from err


@lru_cache(maxsize=1 << 10)  # a family's slots and bounds, parsed once
def _compile(expr):
    """``expr`` parsed, checked and compiled once into a code object.

    The tree is checked node by node, without recursion, against the
    arithmetic a slot may hold: integer literals, names and
    ``+ - * //``.  Too deep a nesting raises RecursionError in the parse
    or the compile.
    """
    shown = _clip(expr)
    if not _ALLOWED_EXPR.match(expr):
        raise PresentationError(f"bad arithmetic expression {shown}")
    try:
        tree = ast.parse(expr, mode="eval")
        for node in ast.walk(tree):
            # Python compiles ``__debug__`` to a constant, so no variable
            # can bind it and it never reaches the code's names.
            if type(node) is ast.Name and node.id == "__debug__":
                raise PresentationError("unbound variable '__debug__'")
            if not isinstance(node, _ARITHMETIC) and not (
                    type(node) is ast.Constant and type(node.value) is int):
                raise PresentationError(f"unsupported arithmetic in {shown}")
        return compile(tree, "<slot>", "eval")
    except (SyntaxError, RecursionError) as err:
        raise PresentationError(f"bad arithmetic expression {shown}") from err


class _SlotCursor(Cursor):
    """Reads a template by its notation's grammar, each integer a slot:
    the text up to the next ',', ';', single '/' or a ')' that closes no
    '(' of the slot.  ``spans`` collects the (start, end), unpadded, of
    each slot that is not an integer literal.  A literal is read as the
    notation reads it, so one that int() cannot convert raises here."""

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
        end = start + len(self.text[start:self.pos].rstrip())
        if _LITERAL_SLOT.fullmatch(self.text, start, end):
            self.pos = start
            return super().integer()
        self.spans.append((start, end))
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


def _grid_bindings(grid):
    """Each binding of the names of ``grid``, in grid order, a fresh dict
    each.  The ranges turn as an odometer, not by recursion, so no count
    of ranges meets the interpreter's recursion limit."""
    names = [name for name, _, _ in grid]
    # values: one per range entered; room: the cap divided by the sizes
    # of the entered ranges, each of which keeps the room it was given.
    values, ranges, room = [], [], MAX_SCAN_INSTANCES
    while True:
        # A name ranged twice reads as its innermost binding.
        bindings = dict(zip(names, values))
        if len(ranges) == len(grid):
            yield bindings
        else:
            name, *bounds = grid[len(ranges)]
            lo, hi = (_eval_int(str(bound), bindings) for bound in bounds)
            size = max(0, hi - lo + 1)
            if size > room:
                raise PresentationError(
                    f"range of {name!r} takes the family past "
                    f"{MAX_SCAN_INSTANCES} instances")
            ranges.append((iter(range(lo, hi + 1)), room))
            room //= max(size, 1)
        # Turn the innermost range with a value left, leaving spent ones.
        while ranges:
            value = next(ranges[-1][0], None)
            if value is not None:
                values[len(ranges) - 1:] = [value]
                break
            room = ranges.pop()[1]
        else:
            return


@lru_cache(maxsize=1 << 10)  # one read for check_families and family_scan
def _slots(template):
    """The spans of the slots of ``template`` that are not literals; a
    literal int() cannot convert raises as in ``parse_presentation``."""
    notation = detect_notation(template)
    if GRAMMARS[notation].pattern.fullmatch(template):
        # int() converts 640 digits under any limit of the interpreter.
        if len(template) > 640:
            read_presentation(Cursor(template), notation)
        return ()
    cur = _SlotCursor(template)
    read_presentation(cur, notation)
    return tuple(cur.spans)


def instances(template, grid):
    """The text of each instance of a family, in grid order, made and
    handed out one at a time.

    ``grid`` is an ordered list of (name, lo, hi), the bounds ints or
    expressions in earlier names.  A template error raises before the
    first instance, and a bound or slot error at the first instance
    that meets it.  A slot becomes an integer literal, so no binding
    makes an instance's syntax right or wrong.
    """
    slots = _slots(template)
    grid = list(grid)
    # A family with no ranges has one instance, under no bindings.
    for bindings in _grid_bindings(grid) if grid else ({},):
        yield _instantiate(template, slots, bindings) if slots else template


def check_families(families):
    """Raise the first template error of ``families``, as ``instances``
    would raise it with its line named, holding one instance text at a
    time.  ``families`` are the triples of ``parse_scan_file``."""
    for lineno, template, grid in families:
        with _on_line(lineno):
            for _ in instances(template, grid):
                pass


def class_rows(report):
    """One row per class of ``report``, keyed by ``SCAN_CSV_HEADER``.

    ``gap`` is ``min_vertical_genus`` minus ``min_horizontal_genus`` when
    both are given, else None.  So a gap is blank or exact and >= 0: the
    horizontal minimum is given only where it is the class minimum (see
    ``ClassNorm``).
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
    writer = csv.writer(buffer)
    writer.writerow(SCAN_CSV_HEADER)
    for row in rows:
        writer.writerow((*_CELLS(row),
                         "true" if row["exhaustive"] else "false"))
    return buffer.getvalue()
