import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from lamkit.circle import (
    AngleError,
    circle_dist,
    format_itinerary,
    in_closed_arc,
    in_open_arc,
    orbit_info,
    parse_angle,
    preimages,
    sigma,
)
from helpers import arc_len, arith_in_closed_arc, arith_in_open_arc


def test_parse_fraction_forms():
    assert parse_angle("1/7", 2) == F(1, 7)
    assert parse_angle("2/14", 2) == F(1, 7)
    assert parse_angle("9/7", 2) == F(2, 7)  # reduces mod 1
    assert parse_angle("0/5", 2) == 0


def test_parse_itineraries():
    assert parse_angle("_001", 2) == F(1, 7)
    assert parse_angle("_112", 3) == F(7, 13)
    assert parse_angle("0010_001", 2) == F(15, 112)
    assert parse_angle("_0", 2) == 0


@pytest.mark.parametrize(
    "text,d",
    [("_2", 2), ("_", 2), ("abc", 2), ("1/0", 2), ("", 3), ("3_1", 3), ("1.5", 2)],
)
def test_parse_rejects(text, d):
    with pytest.raises(AngleError):
        parse_angle(text, d)


@pytest.mark.parametrize("text", ["1_", "_", "0_", "1__1"])
def test_itineraries_need_a_period_digit(text):
    with pytest.raises(AngleError) as err:
        parse_angle(text, 2)
    assert str(err.value) == f"cannot parse angle literal {text!r} (expected p/q or digits_digits)"


def test_parse_bare_integers():
    assert parse_angle("0", 2) == 0
    assert parse_angle("12", 3) == 0  # reduces mod 1


def test_degree_validation():
    with pytest.raises(AngleError):
        parse_angle("1/7", 1)


def test_format_itinerary_examples():
    assert format_itinerary(F(1, 7), 2) == "_001"
    assert format_itinerary(F(7, 13), 3) == "_112"
    assert format_itinerary(F(15, 112), 2) == "0010_001"
    assert format_itinerary(F(0), 2) == "_0"


def test_sigma_and_preimages():
    assert sigma(F(1, 7), 2) == F(2, 7)
    assert sigma(F(9, 14), 2) == F(2, 7)
    assert sigma(F(7, 13), 3) == F(8, 13)
    assert preimages(F(2, 7), 2) == [F(1, 7), F(9, 14)]
    assert preimages(F(0), 3) == [0, F(1, 3), F(2, 3)]
    assert preimages(F(1, 7), 2) == [F(1, 14), F(4, 7)]


def test_preimages_map_back():
    for d in (2, 3, 4):
        for a in (F(0), F(1, 7), F(3, 11), F(5, 6)):
            pts = preimages(a, d)
            assert len(pts) == d
            assert all(sigma(p, d) == a for p in pts)
            gaps = {(pts[(i + 1) % d] - pts[i]) % 1 for i in range(d)}
            assert gaps == {F(1, d)}


def test_orbit_info_examples():
    assert orbit_info(F(1, 7), 2) == (0, 3)
    assert orbit_info(F(15, 112), 2) == (4, 3)
    assert orbit_info(F(0), 2) == (0, 1)
    assert orbit_info(F(1, 2), 2) == (1, 1)


@settings(deadline=None)
@given(
    num=st.integers(min_value=0, max_value=9999),
    den=st.integers(min_value=1, max_value=10000),
    d=st.sampled_from([2, 3, 4, 5]),
)
@example(num=1, den=5087, d=5)  # a 5086-digit period
def test_itinerary_round_trip(num, den, d):
    a = F(num, den) % 1
    assert parse_angle(format_itinerary(a, d), d) == a


@settings(deadline=None)
@given(
    num=st.integers(min_value=0, max_value=500),
    den=st.integers(min_value=1, max_value=500),
    d=st.sampled_from([2, 3]),
)
def test_preperiod_zero_iff_denominator_coprime(num, den, d):
    a = F(num, den) % 1
    import math

    coprime = math.gcd(a.denominator, d) == 1
    assert (orbit_info(a, d).preperiod == 0) == coprime


def test_circular_order_is_total():
    pts = [F(0), F(1, 7), F(2, 7), F(1, 2), F(9, 14)]
    for a in pts:
        for b in pts:
            for c in pts:
                if len({a, b, c}) < 3:
                    continue
                # exactly one of the two cyclic orientations holds
                assert in_open_arc(b, a, c) != in_open_arc(b, c, a)


def test_arc_predicates_match_the_arithmetic_oracle():
    # p/q with q <= 8, so ties are common; one draw in eight is moved out
    # of [0, 1) by -1 or +1, and one in eight is a bare int
    fracs = sorted({F(p, q) for q in range(1, 9) for p in range(q)})
    moved = [a + k for a in fracs for k in (-1, 1)]
    ints = list(range(-2, 3))
    reduced = {a: F(a) % 1 for a in fracs + moved + ints}
    rng = random.Random(29)

    def draw():
        roll = rng.random()
        return rng.choice(ints if roll < 0.125 else moved if roll < 0.25 else fracs)

    branches = Counter()
    for _ in range(100_000):
        x, start = draw(), draw()
        # one triple in six has start == end mod 1, often unnormalised
        end = start + rng.randrange(-1, 2) if rng.random() < 1 / 6 else draw()
        got = (in_open_arc(x, start, end), in_closed_arc(x, start, end))
        assert got == (arith_in_open_arc(x, start, end), arith_in_closed_arc(x, start, end)), (x, start, end)
        s, e, y = reduced[start], F(end) % 1, reduced[x]
        order = "<" if s < e else ">" if s > e else "="
        branches[order, got, y in (s, e)] += 1
    # each order rule, inside (open and closed), at an end (closed only), outside
    expected = {(o, (True, True), False) for o in "<>="}
    expected |= {(o, (False, True), True) for o in "<>="}
    expected |= {(o, (False, False), False) for o in "<>"}
    assert set(branches) == expected
    assert min(branches.values()) >= 1000, branches


def test_arc_len_and_dist():
    assert arc_len(F(3, 4), F(1, 4)) == F(1, 2)
    assert arc_len(F(0), F(0)) == 1
    assert circle_dist(F(0), F(9, 10)) == F(1, 10)
    assert circle_dist(F(1, 4), F(3, 4)) == F(1, 2)
