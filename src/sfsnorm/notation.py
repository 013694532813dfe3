"""Parsing and printing of the three common Seifert notations.

Martelli   S2((2,-1),(3,1),(8,1))
Hatcher    M(+0,0; -1/2, 1/3, 1/8)
Orlik      [-1; (2,1),(3,1),(8,1)]      with 0 < b' < a for each pair

All three describe the same manifold; Orlik's integer e is absorbed into
the first fiber on parsing (beta_1 = b'_1 + e*a_1), and printing in Orlik
form recovers it from the normal form.  Input notation is read off the
leading token, the first literal of each notation's table.

One token table per notation (``GRAMMARS``) lists its literals and
integers in the order of the text; any whitespace may stand before a
token and at the end, and an integer is a sign or none followed by
ASCII digits.  The table serves two readers: a whole-text pattern
compiled from it, which reads a well-formed presentation in one match,
and the cursor walk (``read_presentation``), which reads token by token.
``parse_presentation`` walks only where the pattern fails, to word and
place the error; ``scan`` walks templates with a cursor of its own.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import itemgetter

from .errors import NotationSyntaxError, PresentationError
from .seifert import SeifertPresentation, to_orlik_normal_form

# The one digit class of every notation: int() refuses the other
# Unicode digits that str.isdigit accepts.
_DIGIT = "[0-9]"
INTEGER = f"[+-]?{_DIGIT}+"
_DIGIT_RUN = re.compile(f"{_DIGIT}*")

# Each table lists the tokens of a notation in order, split on spaces.
# The names are its integers: Orlik's e, and the pair (ai, bi) of fiber
# i; every other token is a literal.
_TABLES = {
    "martelli": "S2 ( ( a1 , b1 ) , ( a2 , b2 ) , ( a3 , b3 ) )",
    "hatcher": "M ( +0 , 0 ; b1 / a1 , b2 / a2 , b3 / a3 )",
    "orlik": "[ e ; ( a1 , b1 ) , ( a2 , b2 ) , ( a3 , b3 ) ]",
}
_INTEGER_NAMES = ("e", "a1", "b1", "a2", "b2", "a3", "b3")

NOTATIONS = tuple(_TABLES)


class Grammar:
    """The token table of one notation, and the pattern compiled from it.

    ``tokens`` holds (text, is_integer) pairs in the order of the text.
    """

    def __init__(self, table):
        self.tokens = tuple((token, token in _INTEGER_NAMES)
                            for token in table.split())
        where = {name: i for i, name in enumerate(
            token for token, is_integer in self.tokens if is_integer)}
        self._e = where.get("e")
        # a1, b1, a2, b2, a3, b3 out of the integers in text order.
        self._fibers = itemgetter(*[where[f"{x}{i}"] for i in (1, 2, 3)
                                    for x in "ab"])

    @cached_property
    def pattern(self):
        """The whole text, one group per integer; compiled at first use.

        ``\\s`` matches exactly the characters that ``str.isspace``
        accepts, so the pattern skips what ``Cursor.skip_ws`` skips.
        """
        return re.compile("".join(
            r"\s*" + (f"({INTEGER})" if is_integer else re.escape(token))
            for token, is_integer in self.tokens) + r"\s*")

    def shape(self, values):
        """(e, pairs) of the integers ``values``, given in text order."""
        e = 0 if self._e is None else values[self._e]
        a1, b1, a2, b2, a3, b3 = self._fibers(values)
        return e, [(a1, b1), (a2, b2), (a3, b3)]


GRAMMARS = {notation: Grammar(table) for notation, table in _TABLES.items()}


class Cursor:
    """A position in a presentation string, read token by token."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, literal):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise NotationSyntaxError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def integer(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        self.pos = _DIGIT_RUN.match(self.text, digits).end()
        if self.pos == digits:
            raise NotationSyntaxError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            raise NotationSyntaxError(
                f"integer of {self.pos - digits} digits is too long",
                start) from None

    def end(self):
        self.skip_ws()
        if self.pos < len(self.text):
            raise NotationSyntaxError(
                f"unexpected trailing input {self.text[self.pos:]!r}",
                self.pos)


def detect_notation(text):
    stripped = text.lstrip()
    if stripped.startswith("S2"):
        return "martelli"
    if stripped.startswith("M"):
        return "hatcher"
    if stripped.startswith("["):
        return "orlik"
    raise NotationSyntaxError(
        "cannot detect notation (expected S2(...), M(+0,0; ...) or "
        "[e; ...])", len(text) - len(stripped))


def parse_presentation(text):
    """Parse any supported notation, the one its leading token names.

    Syntax problems raise NotationSyntaxError with the offending offset;
    well-formed input that violates the semantic constraints (alpha >= 2,
    coprimality, Orlik range, smallness) raises PresentationError, as
    does a ``text`` that is not a string.
    """
    if not isinstance(text, str):
        raise PresentationError(f"not a presentation text: {text!r}")
    notation = detect_notation(text)
    e, pairs = _read(text, notation)
    return build_presentation(e, pairs, notation)


def _read(text, notation):
    """(e, pairs) of ``text``: one match of the notation's pattern, or
    where that fails, the cursor walk, which words and places the error."""
    grammar = GRAMMARS[notation]
    match = grammar.pattern.fullmatch(text)
    if match is not None:
        try:
            return grammar.shape(list(map(int, match.groups())))
        except ValueError:  # more digits than int() converts
            pass
    return read_presentation(Cursor(text), notation)


def read_presentation(cur, notation):
    """The integers of a presentation, read off the whole of ``cur``.

    Returns (e, pairs): the fiber pairs (alpha, beta) as written, and
    Orlik's e, which is 0 in the other notations.  The walk follows the
    notation's token table: ``cur.expect`` for each literal and
    ``cur.integer()`` for each integer, then ``cur.end()``.
    """
    grammar = GRAMMARS[notation]
    values = []
    for token, is_integer in grammar.tokens:
        if is_integer:
            values.append(cur.integer())
        else:
            cur.expect(token)
    cur.end()
    return grammar.shape(values)


def build_presentation(e, pairs, notation):
    """The presentation of the integers that ``read_presentation`` gives."""
    if notation != "orlik":
        return SeifertPresentation.from_pairs(pairs)
    for alpha, b in pairs:
        if not 0 < b < alpha:
            raise PresentationError(
                f"Orlik pair ({alpha}, {b}) needs 0 < beta' < alpha")
    (a1, b1), rest = pairs[0], pairs[1:]
    return SeifertPresentation.from_pairs([(a1, b1 + e * a1), *rest])


def format_presentation(presentation, notation="martelli"):
    if notation == "martelli":
        body = ",".join(f"({a},{b})" for a, b in presentation.pairs())
        return f"S2({body})"
    if notation == "hatcher":
        body = ", ".join(f"{b}/{a}" for a, b in presentation.pairs())
        return f"M(+0,0; {body})"
    if notation == "orlik":
        return canonical_form(presentation)
    raise PresentationError(f"unknown notation {notation!r}")


def canonical_form(presentation):
    """Stable Orlik-form key, constant on fiber move orbits: the
    presentation in Orlik notation."""
    e, ((a1, b1), (a2, b2), (a3, b3)) = to_orlik_normal_form(presentation)
    return f"[{e}; ({a1},{b1}),({a2},{b2}),({a3},{b3})]"
