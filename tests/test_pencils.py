"""Brute-force validation of the symbolic slope-pencil certificates."""

import random
from itertools import product
from math import gcd

import sfsnorm.search
from sfsnorm.lens import (
    LensCurve,
    b_sequence,
    cf_expand,
    n_genus,
    normalize_lens,
    slope_genus,
)
from sfsnorm.pencils import (
    Lin,
    TailCertificate,
    certified_tail,
    lead_floor,
    region_floors,
    slope_pencil,
)
from sfsnorm.search import compute_norms
from sfsnorm.seifert import SeifertPresentation, complete_matrix

from corpora import presentations_by_case


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


def reference_tail(first, second):
    thresholds = [0]

    def need(f):
        t = _onset_nonneg(f)
        if t is None:
            return False
        thresholds.append(t)
        return True

    if first.a == 0:
        return None
    if first.a < 0:
        first, second = _neg(first), _neg(second)
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
        # A constant first form gets no certificate: slope_pencil's
        # first form has slope alpha*step with alpha >= 2 and |step| = 2,
        # so the search never builds one.
        for first in (Lin(0, 4), Lin(0, -4), Lin(0, 2)):
            assert certified_tail(first, Lin(2, 1)) is None
        for alpha in range(2, 14):
            for beta in range(-alpha + 1, alpha):
                if gcd(alpha, beta) != 1:
                    continue
                fiber = complete_matrix(alpha, beta)
                for step in (2, -2):
                    first, _ = slope_pencil(fiber, 3, 1, step)
                    assert first.a == alpha * step

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


def search_pencils(monkeypatch, corpus):
    """The leg pencils of every sweep direction ``compute_norms`` runs on
    ``corpus``, in order: both directions of each sweep, also of one that
    ends on its region floors before it builds a direction.  Every pencil
    the search builds is checked to be among them."""
    built = []

    def recording(*args):
        pencil = slope_pencil(*args)
        built.append(pencil)
        return pencil
    monkeypatch.setattr(sfsnorm.search, "slope_pencil", recording)
    pencils = [pencil for pencils in search_directions(monkeypatch, corpus)
               for pencil in pencils]
    assert built and set(built) <= set(pencils)
    return pencils


def search_directions(monkeypatch, corpus):
    """The leg pencils of every sweep direction ``compute_norms`` runs on
    ``corpus``, one list per direction."""
    directions = []
    sweep = sfsnorm.search._sweep

    def recording(state, cls, lam, base, legs, center):
        for step in (2, -2):
            mu0 = center if step > 0 else center - 2
            directions.append([
                slope_pencil(fiber, lam, offset + sign * mu0, sign * step)
                for fiber, offset, sign in legs])
        return sweep(state, cls, lam, base, legs, center)
    monkeypatch.setattr(sfsnorm.search, "_sweep", recording)
    for m in corpus:
        compute_norms(m)
    return directions


# All-odd: case 1 sweeps it at the degrees 1, 3, 5 and 7.
ALL_ODD = SeifertPresentation.from_pairs([(31, 2), (33, 5), (29, -3)])
# Criterion 4, genus 399: nearly all its sweep steps lie before t_min.
TALL = SeifertPresentation.from_pairs([(2, -1), (3, 1), (800, 1)])


def test_search_pencils_hold_from_t_min(monkeypatch):
    # A sweep stops on its certificates alone, so every pencil the
    # search builds must keep its digit prefix and N bound from t_min on.
    corpus = presentations_by_case(5, seed=1) + \
        presentations_by_case(5, seed=3, max_alpha=30) + [ALL_ODD]
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
    # The meridian gets 0, never raises.
    assert lead_floor(Lin(0, 0), Lin(0, 1), 0, 0) == 0
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


def test_lead_bound_holds_past_each_onset(monkeypatch):
    # At the window's end a sweep direction leaves its class uncapped
    # once its base plus ``_lead_bound`` from the tail's first step t0
    # exceeds the class bound, so that sum with base 0 must stay at or
    # below the exact N sum at every later slope step.  Tails starting
    # at and past each onset are sampled, each against its next 48
    # steps.  Past its onset no search direction was seen to meet that
    # sum at its first slope step, so one direction that does is added:
    # N(2t + 2, 1) = t + 1 = ceil(a0/2).
    corpus = presentations_by_case(5, seed=2) + [ALL_ODD, TALL]
    directions = search_directions(monkeypatch, corpus)
    assert len(directions) >= 250
    directions.append([(Lin(2, 2), Lin(0, 1))])
    rng = random.Random(13)
    compared = tight = 0
    for pencils in directions:
        onsets = [cert.t_min for cert in (certified_tail(*pencil)
                                          for pencil in pencils)
                  if cert is not None]
        if not onsets:
            continue  # the direction runs to its window's end unstopped
        onset = min(onsets)
        starts = [onset, onset + 1] + \
            [onset + rng.randrange(80) for _ in range(12)]
        for t0 in starts:
            sums = []
            for t in range(t0, t0 + 48):
                ns = [slope_n(first, second, t) for first, second in pencils]
                if None not in ns:
                    sums.append(sum(ns))
            if sums:
                bound = sfsnorm.search._lead_bound(0, pencils, t0)
                assert bound <= min(sums), (pencils, t0)
                compared += 1
                tight += bound == sums[0]
    assert compared >= 3500 and tight >= 12, (compared, tight)


class FixedBound:
    """A search state whose bound is ``bound`` for every class, and whose
    sweeps run ``window`` either way."""

    def __init__(self, bound, window):
        self.bound = bound
        self.window = window
        self.capped = set()

    def need(self, cls):
        return self.bound


def steps_within(pencils, base, bound, steps):
    """The steps below ``steps`` where every leg is a slope and ``base``
    plus the legs' exact N sum is at most ``bound``."""
    out = []
    for t in range(steps):
        ns = [slope_n(first, second, t) for first, second in pencils]
        if None not in ns and base + sum(ns) <= bound:
            out.append(t)
    return out


def test_sweep_yields_every_step_within_a_fixed_bound(monkeypatch):
    # ``_sweep`` stops a direction and drops a span on lower bounds only,
    # so with the class bound held fixed it must yield exactly the steps
    # within the bound, in order.  Every sweep ``compute_norms`` runs is
    # replayed over a short window at bounds drawn from its own sums.
    # Search directions leave the lead floor short of the exact sum past
    # each onset (see test_lead_bound_holds_past_each_onset), so the
    # pencil (2t + 2, 1), where it is exact at every step, is swept too:
    # a drop that over-claims by one past the onset loses a step there.
    sweep, sweeps = sfsnorm.search._sweep, []

    def recording(state, cls, lam, base, legs, center):
        sweeps.append((lam, base, legs, center))
        return sweep(state, cls, lam, base, legs, center)
    monkeypatch.setattr(sfsnorm.search, "_sweep", recording)
    for m in presentations_by_case(15, seed=2) + [ALL_ODD, TALL]:
        compute_norms(m)
    assert len(sweeps) >= 200, len(sweeps)
    window, compared = 60, 0
    for lam, base, legs, center in sweeps:
        directions = []
        for step in (2, -2):
            mu0 = center if step > 0 else center - 2
            pencils = [slope_pencil(fiber, lam, offset + sign * mu0,
                                    sign * step)
                       for fiber, offset, sign in legs]
            directions.append((mu0, step, pencils,
                               (window - abs(mu0 - center)) // 2 + 1))
        sums = sorted({base + sum(ns) for _, _, pencils, steps in directions
                       for t in range(steps)
                       for ns in [[slope_n(*pencil, t) for pencil in pencils]]
                       if None not in ns})
        for bound in {sums[0] - 1, sums[0], sums[len(sums) // 2]}:
            expected = [mu0 + step * t for mu0, step, pencils, steps
                        in directions
                        for t in steps_within(pencils, base, bound, steps)]
            assert list(sweep(FixedBound(bound, window), None, lam, base,
                              legs, center)) == expected, \
                (lam, base, legs, center, bound)
            compared += len(expected)
    assert compared >= 5000, compared
    monkeypatch.setattr(sfsnorm.search, "slope_pencil",
                        lambda *args: (Lin(2, 2), Lin(0, 1)))
    for bound in range(1, 12):
        expected = [2 * t for t in range(bound)] + \
            [-2 - 2 * t for t in range(bound)]
        assert list(sweep(FixedBound(bound, window), None, 1, 0,
                          [(None, 0, 1)], 0)) == expected, bound


def test_sweep_caps_exactly_where_both_tail_bounds_admit(monkeypatch):
    # A direction's last span is its tail, every step from the window's
    # end on: with the bound held fixed, the class is capped exactly when
    # in some direction the tail meets a live region of the sweep's line
    # (``region_floors``: base plus floors at most the bound) and neither
    # the legs' floors nor their certified bounds there exceed it.  Every
    # sweep ``compute_norms`` runs is replayed; the cases that the floors
    # alone, the certificates alone or the regions alone leave uncapped
    # are counted, so dropping any of the three tests fails.
    sweep, sweeps = sfsnorm.search._sweep, []
    monkeypatch.setattr(sfsnorm.search, "_sweep",
                        lambda *args: sweeps.append(args[2:6]) or sweep(*args))
    for m in presentations_by_case(15, seed=2) + [ALL_ODD, TALL]:
        compute_norms(m)
    by_floor = by_certificates = by_region = 0
    for (lam, base, legs, center), window in product(sweeps, (1, 2, 6, 20)):
        cuts, floors = region_floors(
            [slope_pencil(fiber, lam, offset + sign * center, 2 * sign)
             for fiber, offset, sign in legs])
        tails = []
        for mu0, step in ((center, 2), (center - 2, -2)):
            t = (window - abs(mu0 - center)) // 2 + 1
            pencils = [slope_pencil(fiber, lam, offset + sign * mu0,
                                    sign * step)
                       for fiber, offset, sign in legs]
            # Region r holds the line's steps cuts[r-1] <= s < cuts[r];
            # the tail holds s >= t going up and s <= -1 - t going down.
            met = [floor for r, floor in enumerate(floors)
                   if ((r == len(cuts) or cuts[r] > t) if step > 0
                       else (r == 0 or cuts[r - 1] < -t))]
            tails.append((
                sfsnorm.search._lead_bound(base, pencils, t),
                sfsnorm.search._certified_bound(
                    base, sfsnorm.search._certificates(pencils), t),
                base + min(met)))
        for bound in range(base, base + 8):
            state = FixedBound(bound, window)
            list(sweep(state, None, lam, base, legs, center))
            capped = any(max(tail) <= bound for tail in tails)
            assert state.capped == ({None} if capped else set()), \
                (lam, base, legs, center, window, bound)
            if not capped:
                by_floor += any(max(c, r) <= bound for _, c, r in tails)
                by_certificates += any(max(f, r) <= bound
                                       for f, _, r in tails)
                by_region += any(max(f, c) <= bound for f, c, _ in tails)
    assert len(sweeps) >= 200 and by_floor >= 25 and \
        by_certificates >= 700 and by_region >= 2500, \
        (len(sweeps), by_floor, by_certificates, by_region)


def test_certified_bound_holds_from_each_onset(monkeypatch):
    # A sweep direction stops at step t once its base plus the bound at
    # t of each leg certified by t exceeds the class bound, so that sum
    # with base 0 must stay at or below the legs' exact N sum at t and at
    # every later step where each leg is a slope.  The steps next to each
    # onset are sampled.  A search pencil seldom over-claims one step
    # before its onset (none of about 669,000 with alpha < 30, lam < 40
    # does), so one pencil that does is added: at t = 2, one step early,
    # its bound is 2 and N(-2, -1) is 1.
    corpus = presentations_by_case(5, seed=2) + [ALL_ODD, TALL]
    directions = search_directions(monkeypatch, corpus)
    assert len(directions) >= 250
    directions.append([(Lin(36, -74), Lin(24, -49))])
    rng = random.Random(11)
    compared = 0
    for pencils in directions:
        certs = [cert for cert in (certified_tail(*pencil)
                                   for pencil in pencils)
                 if cert is not None]
        onsets = [cert.t_min for cert in certs]
        steps = {t for onset in onsets for t in (onset - 1, onset, onset + 1)}
        steps |= {rng.randrange(max(onsets, default=0) + 40)
                  for _ in range(6)}
        steps = sorted(t for t in steps if t >= 0)
        exact = {}
        for t in steps:
            ns = [slope_n(first, second, t) for first, second in pencils]
            if None not in ns:
                exact[t] = sum(ns)
        for i, t in enumerate(steps):
            bound = sfsnorm.search._certified_bound(0, certs, t)
            for later in steps[i:]:
                if later in exact:
                    assert bound <= exact[later], (pencils, t, later)
                    compared += 1
    assert compared >= 8000


def later_steps(t0):
    """The 200 steps after t0, then t0 plus each power of two to 2**20."""
    return list(range(t0, t0 + 201)) + [t0 + 2 ** j for j in range(8, 21)]


def test_floors_hold_past_each_pole_and_onset(monkeypatch):
    # A sweep direction cuts its steps at each leg's pole, where the
    # longitude form changes sign, and drops a span once its legs' lead
    # floors over it exceed the class bound; at the window's end it leaves
    # its class uncapped once the legs' tail floors do.  So on every leg
    # the search builds, the tail floor from t0 must stay at or below N
    # at every later slope step, and the floor of a span that ends or
    # starts next to a pole at or below N at each of its slope steps.
    # Starts: 0, each pole and a step either side, the leg's onset and
    # random steps.  ALL_ODD is the ladder at a = 31.  On the pencil
    # (2t + 2, 1), added, both floors are exact: N(2t + 2, 1) = t + 1.
    corpus = presentations_by_case(5, seed=2) + [ALL_ODD, TALL]
    legs = {pencil for pencils in search_directions(monkeypatch, corpus)
            for pencil in pencils}
    assert len(legs) >= 400
    legs.add((Lin(2, 2), Lin(0, 1)))
    rng = random.Random(17)
    compared = tight = 0
    for first, second in sorted(legs):
        exact = {}

        def check(floor, steps):
            nonlocal compared, tight
            for t in steps:
                if t not in exact:
                    exact[t] = slope_n(first, second, t)
                if exact[t] is not None:
                    assert floor <= exact[t], (first, second, steps[0], t)
                    compared += 1
                    tight += floor == exact[t]

        cert = certified_tail(first, second)
        # The first step at or past the pole -b/a, if the form has one.
        poles = [-(first.b // first.a)] if first.a else []
        starts = {0, rng.randrange(64), rng.randrange(256)}
        starts |= {pole + s for pole in poles for s in (-1, 0, 1)}
        if cert is not None:
            starts.add(cert.t_min)
        for t0 in sorted(t for t in starts if t >= 0):
            check(lead_floor(first, second, t0), later_steps(t0))
        for pole in poles:
            # Spans [t0, t1] that end just before the pole, and spans
            # from the first step past it on, where X is not zero.
            after = pole + (first.at(pole) == 0)
            spans = [(pole - 1 - width, pole - 1) for width in (0, 1, 7, 60)]
            spans += [(after, after + width) for width in (0, 1, 7, 60)]
            for t0, t1 in spans:
                if t0 >= 0:
                    check(lead_floor(first, second, t0, t1),
                          list(range(t0, t1 + 1)))
    assert compared >= 300000 and tight >= 500, (compared, tight)


def test_region_floors_hold_on_their_regions(monkeypatch):
    # A sweep cuts the line of its legs' forms at each leg's pole and ends
    # before it builds a direction when every region's base plus floors
    # exceeds the class bound; a direction stacks no span of such a dead
    # region, and no tail whose every region is dead.  So on every line
    # the search cuts, each region's floor must stay at or below the exact
    # N sum at every slope step of the region: every step of a finite
    # region, the next 3,000 of a tail.  And each sweep, replayed over a
    # small window with the bound at the least exact sum over one
    # direction's next 3,000 tail steps, must cap its class: the regions
    # that tail meets, its own floors and its certificates all admit that
    # step.  On the line (2s + 2, 1), added, every region's floor is exact.
    sweep, sweeps = sfsnorm.search._sweep, []
    monkeypatch.setattr(sfsnorm.search, "_sweep",
                        lambda *args: sweeps.append(args[2:6]) or sweep(*args))
    for m in presentations_by_case(15, seed=2) + [ALL_ODD, TALL]:
        compute_norms(m)
    assert len(sweeps) >= 200, len(sweeps)
    lines = {}
    for lam, base, legs, center in sweeps:
        line = tuple(slope_pencil(fiber, lam, offset + sign * center, 2 * sign)
                     for fiber, offset, sign in legs)
        lines.setdefault(line, []).append((lam, base, legs, center))
    lines[((Lin(2, 2), Lin(0, 1)),)] = []
    compared = tight = replays = 0
    for line, replayed in lines.items():
        cuts, floors = region_floors(line)
        # Exact N sums at the steps lo <= s < lo + len(sums), None off
        # the slopes.
        lo = min(cuts[0], -12) - 3000
        steps = range(lo, max(cuts[-1], 12) + 3000)
        legs_n = [[slope_genus(x, y) if gcd(x, y) == 1 else None
                   for x, y in zip([a * s + b for s in steps],
                                   [c * s + d for s in steps])]
                  for (a, b), (c, d) in line]
        sums = [None if None in ns else sum(ns) for ns in zip(*legs_n)]
        edges = [cuts[0] - 3000] + cuts + [cuts[-1] + 3000]
        for floor, start, end in zip(floors, edges, edges[1:]):
            for n in sums[start - lo:end - lo]:
                if n is not None:
                    assert floor <= n, (line, start, end)
                    compared += 1
                    tight += floor == n
        for (lam, base, legs, center), window in product(replayed, (1, 2, 6)):
            for mu0 in (center, center - 2):
                steps = (window - abs(mu0 - center)) // 2 + 1
                # The tail's steps on the line: s >= steps going up,
                # s <= -1 - steps going down.
                start = steps if mu0 == center else -steps - 3000
                tail = [n for n in sums[start - lo:start - lo + 3000]
                        if n is not None]
                if tail:
                    state = FixedBound(base + min(tail), window)
                    list(sweep(state, None, lam, base, legs, center))
                    assert state.capped == {None}, \
                        (lam, base, legs, center, window, mu0)
                    replays += 1
    assert compared >= 500_000 and tight >= 40 and replays >= 1000, \
        (compared, tight, replays)
