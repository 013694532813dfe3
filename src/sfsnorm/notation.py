"""Parsing and printing of the three common Seifert notations.

Martelli   S2((2,-1),(3,1),(8,1))
Hatcher    M(+0,0; -1/2, 1/3, 1/8)
Orlik      [-1; (2,1),(3,1),(8,1)]      with 0 < b' < a for each pair

All three describe the same manifold; Orlik's integer e is absorbed into
the first fiber on parsing (beta_1 = b'_1 + e*a_1), and printing in Orlik
form recovers it from the normal form.  Input notation is auto-detected
from the leading token unless forced.
"""

from __future__ import annotations

from .errors import NotationSyntaxError, PresentationError
from .seifert import SeifertPresentation, to_orlik_normal_form

NOTATIONS = ("martelli", "hatcher", "orlik")


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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise NotationSyntaxError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            raise NotationSyntaxError(
                f"integer of {self.pos - digits} digits is too long",
                start) from None

    def pair(self):
        self.expect("(")
        a = self.integer()
        self.expect(",")
        b = self.integer()
        self.expect(")")
        return a, b

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


def parse_presentation(text, notation=None):
    """Parse any supported notation into a presentation.

    Syntax problems raise NotationSyntaxError with the offending offset;
    well-formed input that violates the semantic constraints (alpha >= 2,
    coprimality, Orlik range, smallness) raises PresentationError.
    """
    if notation is None:
        notation = detect_notation(text)
    if notation not in NOTATIONS:
        raise PresentationError(f"unknown notation {notation!r}")
    e, pairs = read_presentation(Cursor(text), notation)
    if notation != "orlik":
        return SeifertPresentation.from_pairs(pairs)
    for alpha, b in pairs:
        if not 0 < b < alpha:
            raise PresentationError(
                f"Orlik pair ({alpha}, {b}) needs 0 < beta' < alpha")
    (a1, b1), rest = pairs[0], pairs[1:]
    return SeifertPresentation.from_pairs([(a1, b1 + e * a1), *rest])


def read_presentation(cur, notation):
    """The integers of a presentation, read off the whole of ``cur``.

    Returns (e, pairs): the fiber pairs (alpha, beta) as written, and
    Orlik's e, which is 0 in the other notations.  Every integer is read
    by ``cur.integer()``, in the order of the text.
    """
    if notation == "martelli":
        cur.expect("S2")
        cur.expect("(")
        pairs = [cur.pair()]
        for _ in range(2):
            cur.expect(",")
            pairs.append(cur.pair())
        cur.expect(")")
        cur.end()
        return 0, pairs
    if notation == "hatcher":
        for literal in ("M", "(", "+0", ",", "0", ";"):
            cur.expect(literal)
        pairs = []
        for i in range(3):
            if i:
                cur.expect(",")
            beta = cur.integer()
            cur.expect("/")
            alpha = cur.integer()
            pairs.append((alpha, beta))
        cur.expect(")")
        cur.end()
        return 0, pairs
    cur.expect("[")
    e = cur.integer()
    cur.expect(";")
    triples = [cur.pair()]
    for _ in range(2):
        cur.expect(",")
        triples.append(cur.pair())
    cur.expect("]")
    cur.end()
    return e, triples


def format_presentation(presentation, notation="martelli"):
    if notation == "martelli":
        body = ",".join(f"({a},{b})" for a, b in presentation.pairs())
        return f"S2({body})"
    if notation == "hatcher":
        body = ", ".join(f"{b}/{a}" for a, b in presentation.pairs())
        return f"M(+0,0; {body})"
    if notation == "orlik":
        e, triples = to_orlik_normal_form(presentation)
        body = ",".join(f"({a},{b})" for a, b in triples)
        return f"[{e}; {body}]"
    raise PresentationError(f"unknown notation {notation!r}")


def canonical_form(presentation):
    """Stable Orlik-form key, constant on fiber move orbits."""
    return format_presentation(presentation, "orlik")
