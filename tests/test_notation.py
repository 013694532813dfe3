"""Round trips and error reporting for the three notations."""

import itertools
from fractions import Fraction
from math import gcd

import pytest

from sfsnorm.errors import NotationSyntaxError, PresentationError
from sfsnorm.notation import (
    canonical_form,
    detect_notation,
    format_presentation,
    parse_presentation,
)
from sfsnorm.seifert import SeifertPresentation


def euler_sum(presentation):
    return sum((Fraction(f.beta, f.alpha) for f in presentation.fibers),
               Fraction(0))


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

    def test_forced_notation_overrides_detection(self):
        with pytest.raises(NotationSyntaxError):
            parse_presentation("S2((2,-1),(3,1),(8,1))", notation="orlik")


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
