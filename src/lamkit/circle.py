"""Exact arithmetic on the circle of angles measured in turns.

Angles are rational points of [0, 1), represented directly as
``fractions.Fraction`` (always reduced, arbitrary precision).  The map
``sigma(a, d) = d*a mod 1`` defines the dynamics.  Itineraries are base-d
digit strings whose repeating block is introduced by ``_``, so ``_001`` in
base 2 is 1/7 and ``0010_001`` is 15/112.

Circular order is handled by exact arc-membership predicates, never by
floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

Angle = Fraction

_INTEGER_RE = re.compile(r"^[+-]?\d+$")
_FRACTION_RE = re.compile(r"^([+-]?\d+)\s*/\s*(\d+)$")
_ITINERARY_RE = re.compile(r"^(\d*)_(\d+)$")


class AngleError(ValueError):
    """Raised for malformed angle literals or invalid degrees."""


class OrbitInfo(NamedTuple):
    """Minimal preperiod and period of an angle under sigma."""

    preperiod: int
    period: int


def check_degree(d: int) -> int:
    if not isinstance(d, int) or d < 2:
        raise AngleError(f"degree must be an integer >= 2, got {d!r}")
    return d


def mod1(a) -> Angle:
    """Reduce a rational to the fundamental domain [0, 1)."""
    return Fraction(a) % 1


def parse_angle(text: str, d: int) -> Angle:
    """Parse ``p/q``, a bare integer, or a base-d itinerary ``pre_period``.

    The itinerary form evaluates the preperiod digits and then the
    repeating block as a geometric series; every form reduces mod 1.
    """
    check_degree(d)
    if not isinstance(text, str):
        raise AngleError(f"angle literal must be a string, got {text!r}")
    text = text.strip()
    if _INTEGER_RE.match(text):
        return mod1(Fraction(int(text)))
    m = _FRACTION_RE.match(text)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise AngleError(f"zero denominator in {text!r}")
        return mod1(Fraction(num, den))
    m = _ITINERARY_RE.match(text)
    if m:
        pre, per = m.group(1), m.group(2)
        if not per:
            raise AngleError(f"empty period in {text!r}")
        for digit in pre + per:
            if int(digit) >= d:
                raise AngleError(f"digit {digit} out of range for base {d} in {text!r}")
        s, t = len(pre), len(per)
        pre_val, per_val = _digits_value(pre, d), _digits_value(per, d)
        value = Fraction(pre_val * (d ** t - 1) + per_val, d ** s * (d ** t - 1))
        return mod1(value)
    raise AngleError(f"cannot parse angle literal {text!r} (expected p/q or digits_digits)")


def _digits_value(digits: str, d: int) -> int:
    # Horner's rule, not int(digits, d): CPython refuses to convert strings
    # of over 4300 digits in a base that is not a power of two, and the
    # period of p/q can run to q - 1 digits
    value = 0
    for digit in digits:
        value = value * d + int(digit)
    return value


def sigma(a: Angle, d: int) -> Angle:
    """Apply the angle d-tupling map once: a |-> d*a mod 1."""
    check_degree(d)
    return mod1(Fraction(a) * d)


def preimages(a: Angle, d: int) -> list[Angle]:
    """The d preimages (a+k)/d for k = 0..d-1, sorted ascending."""
    check_degree(d)
    a = mod1(a)
    return [(a + k) / d for k in range(d)]


def orbit_info(a: Angle, d: int) -> OrbitInfo:
    """Minimal preperiod and period of ``a`` under sigma, by exact iteration."""
    check_degree(d)
    seen: dict[Angle, int] = {}
    cur = mod1(a)
    i = 0
    while cur not in seen:
        seen[cur] = i
        cur = (cur * d) % 1
        i += 1
    first = seen[cur]
    return OrbitInfo(preperiod=first, period=i - first)


def format_itinerary(a: Angle, d: int) -> str:
    """Canonical base-d itinerary with minimal preperiod and period.

    Round-trips through :func:`parse_angle`.
    """
    check_degree(d)
    a = mod1(Fraction(a))
    info = orbit_info(a, d)
    digits = []
    cur = a
    for _ in range(info.preperiod + info.period):
        digits.append(int(cur * d))  # floor, since 0 <= cur < 1
        cur = (cur * d) % 1
    pre = "".join(str(x) for x in digits[: info.preperiod])
    per = "".join(str(x) for x in digits[info.preperiod :])
    return f"{pre}_{per}"


def format_angle(a: Angle) -> str:
    """Reduced-fraction literal, e.g. ``1/7`` or ``0``."""
    return str(Fraction(a))


def arc_len(start: Angle, end: Angle) -> Fraction:
    """Length of the counterclockwise arc from start to end, in (0, 1].

    start == end yields 1 (the full circle), never 0.
    """
    diff = (Fraction(end) - Fraction(start)) % 1
    return diff if diff != 0 else Fraction(1)


def in_open_arc(x: Angle, start: Angle, end: Angle) -> bool:
    """True iff x lies strictly inside the counterclockwise arc (start, end)."""
    rel = (Fraction(x) - Fraction(start)) % 1
    return 0 < rel < arc_len(start, end)


def in_closed_arc(x: Angle, start: Angle, end: Angle) -> bool:
    rel = (Fraction(x) - Fraction(start)) % 1
    return rel == 0 or rel <= arc_len(start, end)


def circle_dist(a: Angle, b: Angle) -> Fraction:
    """Shorter arc length between two circle points."""
    diff = (Fraction(a) - Fraction(b)) % 1
    return min(diff, 1 - diff)
