"""Unit tests for the one-sided genus function N and its helpers."""

import math

import pytest

from sfsnorm.errors import LensCurveError
from sfsnorm.lens import (
    LensCurve,
    _n_normalized,
    b_sequence,
    cf_expand,
    n_genus,
    n_genus_oracle,
    normalize_lens,
    normalize_lens_steps,
)


def skip_sum(digits):
    """Half the b-sequence sum.  Rejects digit lists with odd total.

    The digit-list form of the continued fraction route, kept as the
    reference for the fused loop in ``_n_normalized``.  An odd total
    cannot arise from digits of a normalized even slope, so it signals
    an invariant breach upstream rather than a usage error.
    """
    total = sum(b_sequence(digits))
    if total % 2 != 0:
        raise ValueError(
            f"b-sequence of {list(digits)} has odd sum {total}; "
            "the source fraction is not an even slope")
    return total // 2


def hand_euclid(n, d):
    # Independent digit oracle: raw quotient list of the Euclidean algorithm.
    out = []
    while d:
        out.append(n // d)
        n, d = d, n % d
    return out


def cf_value(digits):
    """Rebuild the fraction (numerator, denominator) from its digits."""
    ds = tuple(digits)
    n, d = ds[-1], 1
    for a in reversed(ds[:-1]):
        n, d = a * n + d, n
    return n, d


def n_lower_bound_reached(curve, target):
    """True when the digits of ``target`` are a strict prefix of ``curve``'s.

    The skip sum is causal in the digits: the shared prefix contributes
    the same b-values to both slopes and the extra digits of ``curve``
    contribute nonnegatively, so a strict prefix certifies
    N(curve) >= N(target).  This is the step the slope-pencil bound
    rests on.  A False return proves nothing.
    """
    if normalize_lens(target) != target:
        raise LensCurveError(f"target {target} is not normalized")
    c = normalize_lens(curve)
    if c.twok == 0 or target.twok == 0:
        return False
    cd = cf_expand(c.twok, c.q)
    td = cf_expand(target.twok, target.q)
    return len(td) < len(cd) and cd[:len(td)] == td


def valid_slopes(limit):
    for twok in range(2, limit + 1, 2):
        for q in range(1, twok):
            if math.gcd(twok, q) == 1:
                yield twok, q


class TestLensCurve:
    def test_rejects_odd_longitude(self):
        with pytest.raises(LensCurveError):
            LensCurve(3, 1)

    def test_rejects_non_coprime(self):
        with pytest.raises(LensCurveError):
            LensCurve(6, 3)
        with pytest.raises(LensCurveError):
            LensCurve(0, 3)

    def test_meridian_allows_unit_q(self):
        assert LensCurve(0, -1).q == -1

    @pytest.mark.parametrize("twok, q", [(2.0, 1), (2, 1.0), (True, 1),
                                         (2, True), ("2", 1)])
    def test_rejects_non_integers(self, twok, q):
        # 2.0 used to reach gcd's TypeError, and True passed as 1.
        with pytest.raises(LensCurveError, match="must be integers"):
            LensCurve(twok, q)


class TestNormalize:
    def test_sign_flip(self):
        assert normalize_lens(LensCurve(-46, -7)) == LensCurve(46, 7)

    def test_reduction_chain(self):
        # q mod 2k then reflection, matching N(4,7) = N(4,3) = N(4,1).
        assert normalize_lens(LensCurve(4, 7)) == LensCurve(4, 1)

    def test_meridian(self):
        assert normalize_lens(LensCurve(0, -1)) == LensCurve(0, 1)

    def test_klein_bottle_slope_is_fixed(self):
        assert normalize_lens(LensCurve(2, 1)) == LensCurve(2, 1)

    def test_idempotent_and_in_range(self):
        for twok, q in valid_slopes(40):
            for c in (LensCurve(twok, q), LensCurve(-twok, -q),
                      LensCurve(twok, q + 2 * twok)):
                n = normalize_lens(c)
                assert normalize_lens(n) == n
                assert normalize_lens_steps(c)[0] == n
                assert n.twok > 0 and 0 < n.q <= n.twok // 2 + (n.twok == 2)
                assert 2 * n.q <= n.twok

    def test_steps_reported(self):
        _, steps = normalize_lens_steps(LensCurve(-4, -7))
        assert len(steps) == 3


class TestCfExpand:
    def test_hand_euclid_examples(self):
        assert list(cf_expand(46, 7)) == hand_euclid(46, 7) == [6, 1, 1, 3]
        assert list(cf_expand(8, 3)) == hand_euclid(8, 3) == [2, 1, 2]

    def test_integer_case(self):
        assert list(cf_expand(8, 1)) == [8]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cf_expand(6, 3)
        with pytest.raises(ValueError):
            cf_expand(0, 1)
        with pytest.raises(ValueError):
            cf_expand(5, -1)

    def test_round_trip_both_ways(self):
        for n in range(1, 60):
            for d in range(1, 60):
                if math.gcd(n, d) != 1:
                    continue
                digits = cf_expand(n, d)
                assert cf_value(digits) == (n, d)
        # digits -> fraction -> digits is also the identity on canonical lists
        for digits in ([3], [1], [0, 2, 3], [6, 1, 1, 3], [2, 1, 2], [5, 5]):
            n, d = cf_value(digits)
            assert list(cf_expand(n, d)) == digits

    def test_canonical_last_digit(self):
        for n, d in valid_slopes(80):
            ds = list(cf_expand(n, d))
            assert len(ds) == 1 or ds[-1] > 1


class TestSkipSum:
    def test_frozen_examples(self):
        assert b_sequence([6, 1, 1, 3]) == [6, 0, 1, 3]
        assert skip_sum((6, 1, 1, 3)) == 5
        assert skip_sum((8,)) == 4
        assert b_sequence([2, 1, 2]) == [2, 0, 2]
        assert skip_sum((2, 1, 2)) == 2

    def test_rejects_odd_total(self):
        with pytest.raises(ValueError):
            skip_sum((3,))

    def test_even_total_on_all_valid_slopes(self):
        for twok, q in valid_slopes(100):
            c = normalize_lens(LensCurve(twok, q))
            assert sum(b_sequence(cf_expand(c.twok, c.q))) % 2 == 0


def normalized_slopes(limit):
    """Every normalized slope (2k, q) with 0 < 2k <= limit."""
    for twok in range(2, limit + 1, 2):
        for q in range(1, twok // 2 + 1):
            if math.gcd(twok, q) == 1:
                yield twok, q


class TestFusedLoop:
    def test_matches_digit_route_and_oracle(self):
        kernel = _n_normalized.__wrapped__
        compared = 0
        for twok, q in normalized_slopes(1000):
            value = kernel(twok, q)
            assert value == skip_sum(cf_expand(twok, q)), (twok, q)
            assert value == n_genus_oracle(LensCurve(twok, q)), (twok, q)
            compared += 1
        assert compared > 50000

    def test_keeps_input_checks(self):
        kernel = _n_normalized.__wrapped__
        assert kernel(0, 1) == 0
        for twok, q in ((6, 3), (4, 2), (-4, 1), (4, -1), (4, 0)):
            with pytest.raises(ValueError):
                kernel(twok, q)
        # An odd longitude coefficient gives an odd b-sum.
        with pytest.raises(ValueError, match="odd sum"):
            kernel(3, 1)

    def test_cache_is_bounded(self):
        size = _n_normalized.cache_info().maxsize
        assert size == 1 << 16
        for k in range(1, size + 100):
            assert _n_normalized(2 * k, 1) == k
        assert _n_normalized.cache_info().currsize == size


class TestNGenus:
    def test_known_values(self):
        assert n_genus(LensCurve(46, 7)) == 5
        assert n_genus(LensCurve(0, 1)) == 0
        for k in range(1, 11):
            assert n_genus(LensCurve(2 * k, 1)) == k

    def test_oracle_examples(self):
        # (8,3): the unique in-range step is (Q, m) = (3, 1), 8*1-3*3 = -1,
        # landing on (2, 1).
        assert n_genus_oracle(LensCurve(8, 3)) == 2
        assert n_genus_oracle(LensCurve(6, 1)) == 3
        assert n_genus_oracle(LensCurve(46, 7)) == 5

    def test_dual_oracle_small_grid(self):
        for twok, q in valid_slopes(80):
            c = LensCurve(twok, q)
            assert n_genus(c) == n_genus_oracle(c), (twok, q)

    def test_symmetries(self):
        for twok, q in valid_slopes(60):
            n = n_genus(LensCurve(twok, q))
            assert n == n_genus(LensCurve(twok, 2 * twok - q))
            assert n == n_genus(LensCurve(twok, q + 2 * twok))
            assert n == n_genus(LensCurve(-twok, -q))
            r = pow(q, -1, twok)
            assert n == n_genus(LensCurve(twok, r))

    def test_estimates(self):
        for twok, q in valid_slopes(60):
            c = normalize_lens(LensCurve(twok, q))
            k = c.twok // 2
            assert n_genus(c) >= k // c.q >= 1
            for h in range(1, 6):
                assert (n_genus(LensCurve(twok + 2 * h * q, q))
                        == h + n_genus(LensCurve(twok, q)))


class TestLowerBound:
    def test_prefix_example(self):
        # cf(466/71) = [6,1,1,3,2,4] extends cf(46/7) = [6,1,1,3].
        assert hand_euclid(466, 71)[:4] == [6, 1, 1, 3]
        assert n_lower_bound_reached(LensCurve(466, 71), LensCurve(46, 7))
        assert n_genus(LensCurve(466, 71)) >= 5

    def test_non_prefix(self):
        assert not n_lower_bound_reached(LensCurve(8, 3), LensCurve(46, 7))

    def test_equal_curve_is_not_strict(self):
        assert not n_lower_bound_reached(LensCurve(46, 7), LensCurve(46, 7))

    def test_requires_normalized_target(self):
        with pytest.raises(LensCurveError):
            n_lower_bound_reached(LensCurve(466, 71), LensCurve(46, 39))

    def test_certificate_is_sound_on_grid(self):
        targets = [normalize_lens(LensCurve(t, q))
                   for t, q in valid_slopes(30)]
        for twok, q in valid_slopes(80):
            c = LensCurve(twok, q)
            for t in targets:
                if n_lower_bound_reached(c, t):
                    assert n_genus(c) >= n_genus(t)
