"""Round trips and error reporting for the three notations."""

import itertools
import random
import re
from collections import Counter
from math import gcd

import pytest

from sfsnorm.errors import NotationSyntaxError, PresentationError, \
    SfsNormError
from sfsnorm.notation import (
    GRAMMARS,
    Cursor,
    build_presentation,
    canonical_form,
    detect_notation,
    format_presentation,
    parse_presentation,
    read_presentation,
)
from sfsnorm.seifert import SeifertPresentation

from corpora import euler_sum


class TestParse:
    def test_martelli(self):
        m = parse_presentation("S2((2,-1),(3,1),(8,1))")
        assert m.pairs() == ((2, -1), (3, 1), (8, 1))

    def test_hatcher_same_manifold(self):
        m = parse_presentation("M(+0,0; -1/2, 1/3, 1/8)")
        assert m.pairs() == ((2, -1), (3, 1), (8, 1))

    def test_orlik_absorbs_e_into_first_fiber(self):
        m = parse_presentation("[-1; (2,1),(3,1),(8,1)]")
        assert m.pairs() == ((2, -1), (3, 1), (8, 1))

    def test_whitespace_tolerated(self):
        m = parse_presentation("  S2( (2, -1) , (3,1), (8, 1) ) ")
        assert m.pairs() == ((2, -1), (3, 1), (8, 1))

    def test_detection(self):
        assert detect_notation("S2((2,1),(3,1),(7,1))") == "martelli"
        assert detect_notation(" M(+0,0; 1/2, 1/3, 1/7)") == "hatcher"
        assert detect_notation("[0; (2,1),(3,1),(7,1)]") == "orlik"
        with pytest.raises(NotationSyntaxError):
            detect_notation("T2((2,1),(3,1),(7,1))")

    def test_syntax_error_carries_position(self):
        with pytest.raises(NotationSyntaxError) as err:
            parse_presentation("S2((2,-1),(3,1)(8,1))")
        assert err.value.position == 15
        with pytest.raises(NotationSyntaxError):
            parse_presentation("S2((2,-1),(3,1),(8,1)) extra")

    def test_semantic_errors(self):
        with pytest.raises(PresentationError):
            parse_presentation("S2((1,1),(3,1),(8,1))")
        with pytest.raises(PresentationError):
            parse_presentation("S2((4,2),(3,1),(8,1))")
        with pytest.raises(PresentationError):
            parse_presentation("[0; (2,3),(3,1),(8,1)]")
        with pytest.raises(PresentationError) as err:
            parse_presentation("S2((2,-1),(3,1),(6,1))")
        assert "horizontal incompressible surface" in str(err.value)

    @pytest.mark.parametrize("text", [None, 5,
                                      b"S2((2,-1),(3,1),(8,1))"],
                             ids=["none", "int", "bytes"])
    def test_text_that_is_no_string(self, text):
        with pytest.raises(PresentationError,
                           match="not a presentation text"):
            parse_presentation(text)


class TestFormat:
    def test_formats(self):
        m = parse_presentation("S2((2,-1),(3,1),(8,1))")
        assert format_presentation(m, "martelli") == "S2((2,-1),(3,1),(8,1))"
        assert format_presentation(m, "hatcher") == "M(+0,0; -1/2, 1/3, 1/8)"
        assert format_presentation(m, "orlik") == "[-1; (2,1),(3,1),(8,1)]"

    def test_canonical_form_is_orlik(self):
        m = parse_presentation("S2((3,4),(5,-4),(7,2))")
        n = parse_presentation("S2((3,1),(5,1),(7,2))")
        # The two inputs differ by fiber moves, so they share a key.
        assert canonical_form(m) == canonical_form(n)

    def test_round_trip_corpus(self):
        corpus = []
        for alphas in itertools.product((2, 3, 4, 5), repeat=3):
            for betas in itertools.product((-3, -1, 1, 2), repeat=3):
                if any(gcd(a, b) != 1 for a, b in zip(alphas, betas)):
                    continue
                try:
                    corpus.append(
                        SeifertPresentation.from_pairs(zip(alphas, betas)))
                except PresentationError:
                    continue
        assert len(corpus) > 100
        for m in corpus:
            for notation in ("martelli", "hatcher", "orlik"):
                text = format_presentation(m, notation)
                again = parse_presentation(text)
                assert euler_sum(again) == euler_sum(m)
                if notation != "orlik":
                    assert again.pairs() == m.pairs()
                assert format_presentation(again, notation) == text


class TestDigits:
    # Integers are ASCII digits in every notation: '²' and '٥' pass
    # str.isdigit, but int() refuses them.
    @pytest.mark.parametrize("text, position, message", [
        ("S2((2,-1),(3,1),(5²,1))", 18, "expected ','"),
        ("S2((2,-1),(3,1),(٥,1))", 17, "expected an integer"),
        ("M(+0,0; -1/2, 1/3, 1/٨)", 21, "expected an integer"),
        ("[-1; (2,1),(3,1),(8,1²)]", 21, "expected ')'"),
        ("S2((2,-1),(3,1),(- 8,1))", 17, "expected an integer"),
        ("S2((2,-1),(3,1),(" + "1" * 5000 + ",1))", 17,
         "integer of 5000 digits is too long"),
    ], ids=["superscript_two", "arabic_indic_five", "hatcher_eight",
            "orlik_superscript", "spaced_sign", "long_literal"])
    def test_syntax_error(self, text, position, message):
        with pytest.raises(NotationSyntaxError) as err:
            parse_presentation(text)
        assert err.value.position == position
        assert str(err.value) == \
            f"syntax error at position {position}: {message}"


# Formats of the three notations, independent of the grammar tables.
FORMATS = {
    "martelli": "S2(({},{}),({},{}),({},{}))",
    "hatcher": "M(+0,0; {}/{}, {}/{}, {}/{})",
    "orlik": "[{}; ({},{}),({},{}),({},{})]",
}
SPACES = (" ", "\t", "  ", "\n", " ", "\x0b", " \t")
ALPHABET = "()[],;/+-0123456789 \tS2M²٥ x"


def random_integer(rng, value):
    """``value`` as written with a random explicit sign or leading zeros,
    now and then a literal of thousands of digits or a space inside."""
    roll = rng.random()
    if roll < 0.02:
        return rng.choice(("", "+", "-")) + "7" * 5000
    if roll < 0.04:
        return str(rng.randint(10 ** 300, 10 ** 301))
    text = str(abs(value))
    if rng.random() < 0.2:
        text = "0" * rng.randint(1, 3) + text
    if value < 0:
        text = "-" + text
    elif rng.random() < 0.3:
        text = "+" + text
    if roll > 0.98:
        i = rng.randrange(len(text) + 1)
        text = text[:i] + " " + text[i:]
    return text


def random_text(rng):
    """A text of a random notation, spaced at random: mostly next to a
    bracket or separator, now and then inside a literal."""
    notation = rng.choice(sorted(FORMATS))
    if notation == "hatcher":
        values = [v for _ in range(3)
                  for v in (rng.randint(-40, 40), rng.randint(2, 40))]
    else:
        values = [v for _ in range(3)
                  for v in (rng.randint(2, 40), rng.randint(-40, 40))]
    if notation == "orlik":
        values = [rng.randint(-3, 3)] + [abs(v) for v in values]
    pieces = []
    for literal, value in zip(FORMATS[notation].split("{}"),
                              [*values, None]):
        pieces += literal
        if value is not None:
            pieces.append(random_integer(rng, value))
    out = []
    for before, piece in zip([" ", *pieces], [*pieces, " "]):
        beside = before in "(),;/[] " or piece in "(),;/[] "
        if rng.random() < (0.3 if beside else 0.01):
            out.append(rng.choice(SPACES))
        out.append(piece)
    return "".join(out)[:-1]


def mutated(rng, text):
    """``text`` with one character deleted, inserted (a random one, or
    the one beside it again), or swapped with the next one."""
    i = rng.randrange(len(text))
    kind = rng.randrange(4)
    if kind == 0:
        return text[:i] + text[i + 1:]
    if kind == 1:
        return text[:i] + rng.choice(ALPHABET) + text[i:]
    if kind == 2:
        return text[:i] + text[i] + text[i:]
    return text[:i] + text[i + 1:i + 2] + text[i] + text[i + 2:]


def outcome(read, *args):
    """What ``read(*args)`` gives: a presentation, or the type, message
    and offset of the error it raises."""
    try:
        return read(*args)
    except SfsNormError as err:
        return type(err), str(err), getattr(err, "position", None)


def walk_and_build(text, notation):
    if notation is None:
        notation = detect_notation(text)
    e, pairs = read_presentation(Cursor(text), notation)
    return build_presentation(e, pairs, notation)


class LongCursor(Cursor):
    """A cursor that reads an integer of any length, as a pattern does:
    one that int() cannot convert reads as 0."""

    def integer(self):
        try:
            return super().integer()
        except NotationSyntaxError as err:
            if "digits is too long" not in str(err):
                raise
            return 0


def walk_reads(text, notation):
    """Whether the cursor walk reads every token of ``text``."""
    try:
        read_presentation(LongCursor(text), notation)
    except NotationSyntaxError:
        return False
    return True


def differential_corpus():
    rng = random.Random(13)
    valid = [random_text(rng) for _ in range(1200)]
    short = [text for text in valid if len(text) < 200]
    return valid + [mutated(rng, rng.choice(short)) for _ in range(3000)]


class TestPatternAgreesWithWalk:
    """The one-match read and the cursor walk come from one table: they
    agree on every text, and the pattern reads exactly what the walk
    reads."""

    def test_same_presentation_or_error(self):
        corpus = differential_corpus()
        assert any("\t" in text for text in corpus)
        forced = Counter()
        for text in corpus:
            parsed = outcome(parse_presentation, text)
            assert parsed == outcome(walk_and_build, text, None), text
            # A walk in any notation that reads every token of the text
            # gives what detection gives, a presentation or a semantic
            # error: forcing a notation could only change a syntax error.
            for notation in FORMATS:
                walked = outcome(walk_and_build, text, notation)
                if isinstance(walked, SeifertPresentation):
                    forced["presentation"] += 1
                elif walked[0] is NotationSyntaxError:
                    continue
                forced["read"] += 1
                assert walked == parsed, (notation, text)
        assert forced["presentation"] > 300 and forced["read"] > 2000, forced

    def test_pattern_reads_what_the_walk_reads(self):
        accepted = 0
        for text in differential_corpus():
            for notation, grammar in GRAMMARS.items():
                matched = grammar.pattern.fullmatch(text) is not None
                assert matched == walk_reads(text, notation), \
                    (notation, text)
                accepted += matched
        assert accepted > 1000

    def test_pattern_whitespace_is_isspace(self):
        # The pattern's \s and the cursor's str.isspace agree on every
        # code point.
        space = re.compile(r"\s")
        assert [c for c in range(0x110000)
                if bool(space.match(chr(c))) != chr(c).isspace()] == []
