"""Tests for presentations, gluing completions and Z/2 homology."""

import copy
import pickle
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

import sfsnorm.seifert as seifert
from sfsnorm.errors import PresentationError
from sfsnorm.seifert import (
    FiberMatrix,
    HomologyCase,
    SeifertPresentation,
    Z2Class,
    complete_matrix,
    homology_structure,
    to_orlik_normal_form,
)

from corpora import M, euler_sum, presentations_by_case


class TestCompleteMatrix:
    def test_paper_style_completions(self):
        m = complete_matrix(2, -1)
        assert (m.gamma, m.delta) == (-1, 1)
        m = complete_matrix(8, 1)
        assert (m.gamma, m.delta) == (7, 1)
        m = complete_matrix(3, 1)
        assert (m.gamma, m.delta) == (2, 1)
        m = complete_matrix(5, 2)
        assert (m.gamma, m.delta) == (2, 1)
        m = complete_matrix(7, 4)
        assert (m.gamma, m.delta) == (5, 3)

    def test_determinant_always_one(self):
        for alpha in range(2, 15):
            for beta in range(-15, 15):
                if beta == 0 or Fraction(beta, alpha).denominator != alpha:
                    continue
                m = complete_matrix(alpha, beta)
                assert m.alpha * m.delta - m.beta * m.gamma == 1

    def test_rejects_bad_pairs(self):
        with pytest.raises(PresentationError):
            complete_matrix(1, 1)
        with pytest.raises(PresentationError):
            complete_matrix(4, 2)
        # The constructor checks the multiplicity and the determinant,
        # which rules out a pair that is not coprime.
        with pytest.raises(PresentationError, match="at least 2"):
            FiberMatrix(1, 1, 0, 1)
        with pytest.raises(PresentationError, match="determinant 2"):
            FiberMatrix(4, 2, 1, 1)

    @pytest.mark.parametrize("entries", [(2.0, -1, 1, 0.0), (2, True, 1, 1),
                                         (2, -1, -1, 1.0), (2, -1, "1", 0)])
    def test_rejects_non_integers(self, entries):
        # (2.0, -1, 1, 0.0) used to pass, and compute_norms then died
        # with a bare TypeError; beta=True passed as 1.
        with pytest.raises(PresentationError, match="integer entries"):
            FiberMatrix(*entries)
        alpha, beta = entries[:2]
        if type(alpha) is not int or type(beta) is not int:
            with pytest.raises(PresentationError, match="integer entries"):
                complete_matrix(alpha, beta)

    def test_shifted_completion_is_valid(self):
        m = complete_matrix(5, 3)
        for t in range(-5, 6):
            s = m.shifted(t)
            assert s.alpha * s.delta - s.beta * s.gamma == 1

    def test_cap_slope_contract(self):
        # The fiber pair caps with the meridian, the map keeps the gcd
        # of a slope (the sweeps' coprimality test reads the cap slope),
        # and a change of completion moves q by a multiple of 2k, which
        # leaves N unchanged.
        slopes = [(l, m) for l in range(-6, 7) for m in range(-6, 7)
                  if (l, m) != (0, 0)]
        for alpha in range(2, 13):
            for beta in range(-alpha, alpha + 1):
                if gcd(alpha, beta) != 1:
                    continue
                fiber = complete_matrix(alpha, beta)
                assert fiber.cap_slope(*fiber.pair) == (0, 1)
                for l, m in slopes:
                    twok, q = fiber.cap_slope(l, m)
                    assert gcd(twok, q) == gcd(l, m)
                    for t in (-2, 1, 3):
                        assert fiber.shifted(t).cap_slope(l, m) == \
                            (twok, q - t * twok)


class TestPresentation:
    def test_rejects_zero_euler_sum(self):
        with pytest.raises(PresentationError):
            M((2, -1), (3, 1), (6, 1))

    def test_smallness_matches_fraction_sum(self):
        from itertools import product
        from math import gcd
        fibers = [(a, b) for a in (2, 3, 4, 6) for b in range(-7, 8)
                  if gcd(a, b) == 1]
        rejected = 0
        for pairs in product(fibers, repeat=3):
            total = sum(Fraction(b, a) for a, b in pairs)
            if total == 0:
                rejected += 1
                with pytest.raises(PresentationError, match="not small"):
                    M(*pairs)
            else:
                euler = euler_sum(M(*pairs))
                assert isinstance(euler, Fraction) and euler == total
        assert rejected > 100

    def test_rejects_wrong_arity(self):
        with pytest.raises(PresentationError):
            SeifertPresentation.from_pairs([(2, 1), (3, 1)])

    def test_from_pairs_matches_checked_constructors(self):
        # from_pairs stores its matrices past the constructors' checks;
        # each value must equal the one the checking constructors build,
        # with every slot set.
        for m in presentations_by_case(10, seed=37):
            again = SeifertPresentation(
                tuple(FiberMatrix(*f._values(f)) for f in m.fibers))
            assert m == again
            for value, rebuilt in [(m, again), *zip(m.fibers, again.fibers)]:
                for slot in type(value).__slots__:
                    assert getattr(value, slot) == getattr(rebuilt, slot)


class TestOrlikNormalForm:
    def test_negative_beta_carries(self):
        e, triples = to_orlik_normal_form(M((2, -1), (3, 1), (8, 1)))
        assert e == -1
        assert triples == ((2, 1), (3, 1), (8, 1))

    def test_in_range_is_untouched(self):
        e, triples = to_orlik_normal_form(M((2, 1), (3, 1), (8, 1)))
        assert e == 0
        assert triples == ((2, 1), (3, 1), (8, 1))

    def test_euler_sum_preserved(self):
        m = M((3, 4), (5, -4), (7, 2))
        e, triples = to_orlik_normal_form(m)
        total = e + sum(Fraction(b, a) for a, b in triples)
        assert total == euler_sum(m)

    def test_constant_on_fiber_move_orbits(self):
        # The fiber moves b_1 += a_1, b_2 -= a_2 keep sum(b_i/a_i).
        m = M((3, 1), (5, 1), (7, 2))
        assert to_orlik_normal_form(m) == \
            to_orlik_normal_form(M((3, 4), (5, -4), (7, 2)))


class TestHomologyStructure:
    def test_klein_four(self):
        h = homology_structure(M((2, -1), (2, 1), (6, 1)))
        assert h.case is HomologyCase.KLEIN_FOUR
        assert {c.parities for c in h.nonzero_classes} == \
            {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
        assert [h.class_off(k).parities for k in range(3)] == \
            [(0, 1, 1), (1, 0, 1), (1, 1, 0)]

    def test_trivial_odd_beta_sum(self):
        h = homology_structure(M((3, 1), (5, 1), (7, 1)))
        assert h.case is HomologyCase.TRIVIAL
        assert h.nonzero_classes == ()

    def test_two_even(self):
        h = homology_structure(M((2, -1), (3, 1), (8, 1)))
        assert h.case is HomologyCase.CYCLIC_TWO_EVEN
        assert h.nonzero_classes[0].parities == (1, 0, 1)

    def test_one_even_is_trivial(self):
        h = homology_structure(M((3, 1), (4, 1), (7, 1)))
        assert h.case is HomologyCase.TRIVIAL

    def test_cyclic_vertical(self):
        h = homology_structure(M((3, 2), (5, 2), (7, 4)))
        assert h.case is HomologyCase.CYCLIC_VERTICAL
        assert len(h.nonzero_classes) == 1

    def test_class_count_matches_parity_census(self):
        for alphas in product(range(2, 11), repeat=3):
            for betas in product((1, 2), repeat=3):
                if any(gcd(a, b) != 1 for a, b in zip(alphas, betas)):
                    continue
                try:
                    m = M(*zip(alphas, betas))
                except PresentationError:
                    continue
                evens = sum(1 for a in alphas if a % 2 == 0)
                count = len(homology_structure(m).nonzero_classes)
                if evens == 3:
                    assert count == 3
                elif evens == 2:
                    assert count == 1
                elif evens == 1:
                    assert count == 0
                else:
                    assert count == (1 if sum(betas) % 2 == 0 else 0)

    def test_interned_per_parity_key(self, monkeypatch):
        # One structure per key (a1, a2, a3, b1 + b2 + b3) mod 2, built
        # the first time the key is met and equal to one built afresh.
        # Three even alphas force three odd betas, so the key (0, 0, 0, 0)
        # names no presentation; the builder is still checked on it.
        monkeypatch.setattr(seifert, "_STRUCTURES", {})
        interned = {}
        for alphas in product(range(2, 8), repeat=3):
            for betas in product((-1, 1, 2), repeat=3):
                try:
                    m = M(*zip(alphas, betas))
                except PresentationError:
                    continue
                key = tuple(a % 2 for a in alphas) + (sum(betas) % 2,)
                h = homology_structure(m)
                assert h is interned.setdefault(key, h), key
                assert homology_structure(m) is h
        assert len(interned) == 15
        for key in product((0, 1), repeat=4):
            fresh = seifert._build_structure(key)
            evens = key[:3].count(0)
            expected = {0: 1 - key[3], 1: 0, 2: 1, 3: 3}[evens]
            assert len(fresh.nonzero_classes) == expected, key
            if key in interned:
                assert fresh == interned[key] and fresh is not interned[key]
                assert seifert._STRUCTURES[key] is interned[key]


class TestZ2Class:
    def test_rejects_zero_class(self):
        with pytest.raises(PresentationError):
            Z2Class((0, 0, 0))

    def test_label(self):
        assert Z2Class((1, 0, 1)).label == "101"

    def test_interned(self):
        cls = Z2Class((1, 1, 0))
        assert Z2Class([1, 1, 0]) is cls
        assert Z2Class((True, True, False)) is cls
        assert Z2Class("110") is cls
        assert Z2Class((1, 1, 0)).parities == (1, 1, 0)
        assert Z2Class((1, 0, 1)) is not cls
        assert Z2Class((1, 0, 1)) != cls
        assert hash(cls) == hash(Z2Class((1, 1, 0)))

    def test_copy_and_pickle_give_the_interned_class(self):
        for parities in ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)):
            cls = Z2Class(parities)
            assert copy.copy(cls) is cls
            assert copy.deepcopy(cls) is cls
            assert copy.deepcopy({cls: [cls]}) == {cls: [cls]}
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(cls, protocol)) is cls

    def test_repr_and_immutability(self):
        cls = Z2Class((0, 1, 1))
        assert repr(cls) == "Z2Class(parities=(0, 1, 1))"
        with pytest.raises(AttributeError):
            cls.parities = (1, 1, 0)

    @pytest.mark.parametrize("parities, message", [
        ((0, 0, 0), "(0, 0, 0) is the zero class"),
        ([0, 0, 0], "(0, 0, 0) is the zero class"),
        ((1, 2, 0), "parities must be three bits: (1, 2, 0)"),
        ((1, 1), "parities must be three bits: (1, 1)"),
        ((1, 0, 1, 0), "parities must be three bits: (1, 0, 1, 0)"),
    ])
    def test_errors(self, parities, message):
        with pytest.raises(PresentationError) as err:
            Z2Class(parities)
        assert str(err.value) == message
