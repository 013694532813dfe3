"""Brute-force validation of the symbolic slope-pencil certificates."""

import random
from math import gcd

import sfsnorm.search
from sfsnorm.errors import PresentationError
from sfsnorm.lens import (
    LensCurve,
    b_sequence,
    cf_expand,
    n_genus,
    normalize_lens,
)
from sfsnorm.pencils import (
    Lin,
    TailCertificate,
    certified_tail,
    lead_floor,
    slope_pencil,
)
from sfsnorm.search import compute_norms
from sfsnorm.seifert import (
    HomologyCase,
    SeifertPresentation,
    complete_matrix,
    homology_structure,
)


def grows(cert):
    return cert.growth is not None and cert.growth[0] > 0


def matches(cert, digits):
    """True when ``digits`` strictly extends the certified prefix."""
    ds = tuple(digits)
    return len(ds) > len(cert.prefix) and \
        ds[:len(cert.prefix)] == cert.prefix


def check_certificate(first, second, horizon=160):
    """Assert the certificate against direct evaluation of the pencil."""
    cert = certified_tail(first, second)
    if cert is None:
        return 0
    checked = 0
    for t in range(cert.t_min, cert.t_min + horizon):
        a, b = first.at(t), second.at(t)
        if a % 2 != 0 or gcd(a, b) != 1:
            continue
        curve = LensCurve(a, b)
        value = n_genus(curve)
        assert value >= cert.bound_at(t), (first, second, t)
        norm = normalize_lens(curve)
        if norm.twok > 0:
            digits = cf_expand(norm.twok, norm.q)
            assert matches(cert, digits), (first, second, t, digits,
                                           cert.prefix)
        checked += 1
    return checked


# Reference for ``certified_tail``: Euclid on ``Lin`` forms, with every
# eventual floor, sign and comparison recorded through ``need``, and the
# b-sequence summed afterwards.  The library's kernel runs the same
# decisions on plain pairs of ints and must return the same certificate.

def _neg(f):
    return Lin(-f.a, -f.b)


def _sub(f, g):
    return Lin(f.a - g.a, f.b - g.b)


def _scale(f, c):
    return Lin(f.a * c, f.b * c)


def _onset_nonneg(f):
    """Least T >= 0 with f(t) >= 0 for every t >= T, or None."""
    if f.a > 0:
        return max(0, -(f.b // f.a))
    if f.a == 0 and f.b >= 0:
        return 0
    return None


def _eventual_floor(num, den):
    """floor(num(t)/den(t)) for all large t; den must have positive slope."""
    if num.a % den.a == 0:
        m = num.a // den.a
        return m if num.b - m * den.b >= 0 else m - 1
    return num.a // den.a


def _reference_constant_pair(twok, second):
    g = gcd(second.a, twok)
    best = None
    for r in range(twok):
        if (r - second.b) % g != 0 or gcd(r, twok) != 1:
            continue
        val = n_genus(LensCurve(twok, r))
        best = val if best is None else min(best, val)
    if best is None:
        return None
    return TailCertificate((), 0, 2 * best, None)


def reference_tail(first, second):
    thresholds = [0]

    def need(f):
        t = _onset_nonneg(f)
        if t is None:
            return False
        thresholds.append(t)
        return True

    if first.a < 0 or (first.a == 0 and first.b < 0):
        first, second = _neg(first), _neg(second)
    if first.a == 0:
        if first.b == 0:
            return None
        return _reference_constant_pair(first.b, second)
    if not need(Lin(first.a, first.b - 1)):
        return None

    q = _eventual_floor(second, first)
    r = _sub(second, _scale(first, q))
    if not (need(r) and need(_sub(_sub(first, r), Lin(0, 1)))):
        return None
    if r.a == 0 and r.b == 0:
        return None

    s = _sub(_scale(r, 2), first)
    if s.a > 0 or (s.a == 0 and s.b > 0):
        if not need(_sub(s, Lin(0, 1))):
            return None
        r = _sub(first, r)
    elif s.a == 0 and s.b == 0:
        return None
    else:
        if not need(_sub(_neg(s), Lin(0, 1))):
            return None

    digits = []
    x, y = first, r
    growth = None
    while True:
        if y.a == 0:
            c = y.b
            if c < 1:
                return None
            growth = (x.a, x.b - c + 1, c)
            break
        q = _eventual_floor(x, y)
        if q < 1:
            return None
        rem = _sub(x, _scale(y, q))
        if not (need(rem) and need(_sub(_sub(y, rem), Lin(0, 1)))):
            return None
        if rem.a == 0 and rem.b == 0:
            return None
        digits.append(q)
        x, y = y, rem

    bs = b_sequence(digits) if digits else []
    base_half = sum(bs)
    skipped = bool(digits) and bs[-1] == digits[-1] and base_half % 2 == 0
    return TailCertificate(tuple(digits), max(thresholds), base_half,
                           None if skipped else growth)


def seeded_pencils(count, seed):
    """``count`` random pencils of both signs; one in 50 has a constant
    first form, and then an even one."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.randrange(50) == 0:
            first = Lin(0, rng.choice([-2, 2]) * rng.randrange(0, 20))
        else:
            first = Lin(rng.choice([-1, 1]) * rng.randrange(1, 41),
                        rng.randrange(-300, 301))
        yield first, Lin(rng.randrange(-120, 121), rng.randrange(-300, 301))


def test_kernel_matches_reference_on_seeded_pencils():
    kinds = {"none": 0, "growth": 0, "plateau": 0}
    for first, second in seeded_pencils(100000, seed=8):
        cert = certified_tail(first, second)
        assert cert == reference_tail(first, second), (first, second)
        kind = "none" if cert is None else \
            "plateau" if cert.growth is None else "growth"
        kinds[kind] += 1
    assert min(kinds.values()) >= 500, kinds


class TestCertifiedTail:
    def test_fiber_pencils_random(self):
        rng = random.Random(20250811)
        checked = 0
        for _ in range(250):
            alpha = rng.randrange(2, 14)
            beta = rng.randrange(-12, 13)
            if beta == 0 or gcd(alpha, beta) != 1:
                continue
            fiber = complete_matrix(alpha, beta)
            lam = rng.choice([1, 2, 3, 4, 6, 8, 12])
            mu0 = rng.randrange(-20, 21)
            step = rng.choice([2, -2])
            first, second = slope_pencil(fiber, lam, mu0, step)
            checked += check_certificate(first, second, horizon=80)
        assert checked > 1500

    def test_growth_means_unbounded(self):
        # (6t+2, -4t-1) normalizes to (6t+2, 2t+1) = [2, 1, 2t]; the
        # growing digit is kept, so the bound is exactly t + 1.
        fiber = complete_matrix(3, 1)
        first, second = slope_pencil(fiber, 1, 1, 2)
        cert = certified_tail(first, second)
        assert cert is not None and grows(cert)
        assert cert.prefix == (2, 1)
        t = cert.t_min
        assert cert.bound_at(t + 100) > cert.bound_at(t) + 50
        for t in range(max(1, cert.t_min), 40):
            mu = 1 + 2 * t
            assert n_genus(LensCurve(3 * mu - 1, 1 - 2 * mu)) \
                == cert.bound_at(t) == t + 1

    def test_plateau_when_skip_rule_fires(self):
        # (16t+2, -14t-1) has stable prefix (7, 1) whose b-sum is even
        # with the last digit kept, so the next digit is skipped and only
        # the constant bound 4 survives; N really does sit at 7 along the
        # coprime steps of this pencil.
        fiber = complete_matrix(8, 1)
        first, second = slope_pencil(fiber, 6, 1, 2)
        cert = certified_tail(first, second)
        assert cert is not None and not grows(cert)
        assert cert.prefix == (7, 1)
        assert cert.bound_at(cert.t_min) == 4

    def test_bound_monotone(self):
        fiber = complete_matrix(5, 2)
        first, second = slope_pencil(fiber, 3, -1, -2)
        cert = certified_tail(first, second)
        assert cert is not None
        values = [cert.bound_at(t) for t in range(cert.t_min,
                                                  cert.t_min + 50)]
        assert all(x <= y for x, y in zip(values, values[1:]))

    def test_constant_first_entry(self):
        # (4, 2t + 1): residues 1 and 3 mod 4 both give N(4, q) = 2.
        cert = certified_tail(Lin(0, 4), Lin(2, 1))
        assert cert is not None
        assert cert.bound_at(0) == 2
        for t in range(40):
            assert n_genus(LensCurve(4, 2 * t + 1)) >= cert.bound_at(t)

    def test_degenerate_pencils(self):
        assert certified_tail(Lin(0, 0), Lin(2, 1)) is None

    def test_negative_slopes_flip(self):
        cert_pos = certified_tail(Lin(4, 2), Lin(2, 1))
        cert_neg = certified_tail(Lin(-4, -2), Lin(-2, -1))
        assert cert_pos == cert_neg

    def test_explicit_family(self):
        # (2n - 12, 13 - 2n) normalizes to (2n - 12, 1): N = n - 6, and
        # the pencil n = 7 + t certifies exactly that growth.
        first, second = Lin(2, 14 - 12), Lin(-2, 13 - 14)
        cert = certified_tail(first, second)
        assert cert is not None
        for t in range(cert.t_min, cert.t_min + 60):
            n = 7 + t
            actual = n_genus(LensCurve(2 * n - 12, 13 - 2 * n))
            assert actual == n - 6
            assert cert.bound_at(t) <= actual


def presentations_by_case(per_case, seed, max_alpha=12):
    """``per_case`` seeded presentations of each homology case."""
    rng = random.Random(seed)
    found = {case: [] for case in HomologyCase}
    while any(len(ms) < per_case for ms in found.values()):
        pairs = []
        for _ in range(3):
            a = rng.randrange(2, max_alpha + 1)
            b = rng.choice([b for b in range(-a + 1, a) if gcd(a, b) == 1])
            pairs.append((a, b))
        try:
            m = SeifertPresentation.from_pairs(pairs)
        except PresentationError:
            continue
        ms = found[homology_structure(m).case]
        if len(ms) < per_case:
            ms.append(m)
    return [m for ms in found.values() for m in ms]


def search_pencils(monkeypatch, corpus):
    """Every pencil ``compute_norms`` builds on ``corpus``."""
    pencils = []

    def recording(*args):
        pencil = slope_pencil(*args)
        pencils.append(pencil)
        return pencil
    monkeypatch.setattr(sfsnorm.search, "slope_pencil", recording)
    for m in corpus:
        compute_norms(m)
    return pencils


# All-odd: case 1 sweeps it at the degrees 1, 3, 5 and 7.
ALL_ODD = SeifertPresentation.from_pairs([(31, 2), (33, 5), (29, -3)])
# Criterion 4, genus 399: nearly all its sweep steps lie before t_min.
TALL = SeifertPresentation.from_pairs([(2, -1), (3, 1), (800, 1)])


def test_search_pencils_hold_from_t_min(monkeypatch):
    # A sweep stops on its certificates alone, so every pencil the
    # search builds must keep its digit prefix and N bound from t_min on.
    corpus = presentations_by_case(5, seed=1) + [ALL_ODD]
    pencils = search_pencils(monkeypatch, corpus)
    assert len(pencils) >= 300
    checked = sum(check_certificate(first, second, horizon=40)
                  for first, second in pencils)
    assert checked >= 10000


def test_kernel_matches_reference_on_search_pencils(monkeypatch):
    corpus = presentations_by_case(5, seed=1) + \
        presentations_by_case(5, seed=2) + [ALL_ODD, TALL]
    pencils = set(search_pencils(monkeypatch, corpus))
    assert len(pencils) >= 500
    for first, second in pencils:
        assert certified_tail(first, second) == \
            reference_tail(first, second), (first, second)


def slope_n(first, second, t):
    """N at step t, or None when the step is not a slope."""
    a, b = first.at(t), second.at(t)
    if a % 2 != 0 or gcd(a, b) != 1:
        return None
    return n_genus(LensCurve(a, b))


def test_lead_floor_one_step_is_half_leading_digit():
    # b0 = a0 is always kept, so N >= ceil(a0/2) on every slope.
    for twok in range(2, 201, 2):
        for q in range(1, twok // 2 + 1):
            if gcd(twok, q) != 1:
                continue
            floor = (cf_expand(twok, q)[0] + 1) // 2
            assert floor <= n_genus(LensCurve(twok, q))
            for sign in (1, -1):
                for shift in (0, twok, -3 * twok):
                    assert lead_floor(Lin(0, sign * twok),
                                      Lin(0, sign * (q + shift)), 0, 0) \
                        == floor, (twok, q)
    # The meridian and an odd longitude coefficient get 0, never raise.
    assert lead_floor(Lin(0, 0), Lin(0, 1), 0, 0) == 0
    assert lead_floor(Lin(0, 7), Lin(0, 2), 0, 0) == 0
    assert lead_floor(Lin(1, 0), Lin(0, 1), 0, 3) == 0


def test_search_pencils_lead_floor_before_t_min(monkeypatch):
    # A sweep skips steps before t_min on these floors, so on every
    # pencil the search builds they must stay at or below N there, on
    # single steps and on spans.
    corpus = presentations_by_case(5, seed=2) + [ALL_ODD, TALL]
    pencils = search_pencils(monkeypatch, corpus)
    rng = random.Random(7)
    compared = 0
    for first, second in pencils:
        cert = certified_tail(first, second)
        end = cert.t_min if cert is not None else 400
        if end == 0:
            continue
        steps = list(range(min(end, 80)))
        steps += [rng.randrange(end) for _ in range(30)]
        for t in steps:
            n = slope_n(first, second, t)
            if n is not None:
                assert lead_floor(first, second, t, t) <= n, \
                    (first, second, t)
                compared += 1
        for _ in range(16):
            t0 = rng.randrange(end)
            t1 = min(end - 1, t0 + rng.randrange(1, 48))
            floor = lead_floor(first, second, t0, t1)
            for t in range(t0, t1 + 1):
                n = slope_n(first, second, t)
                if n is not None:
                    assert floor <= n, (first, second, t0, t1, t)
                    compared += 1
    assert compared >= 100000
