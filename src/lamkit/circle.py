"""Exact arithmetic on the circle of angles measured in turns.

Angles are rational points of [0, 1), represented directly as
``fractions.Fraction`` (always reduced, arbitrary precision).  The map
``sigma(a, d) = d*a mod 1`` defines the dynamics.  Itineraries are base-d
digit strings whose repeating block is introduced by ``_``, so ``_001`` in
base 2 is 1/7 and ``0010_001`` is 15/112.

Arc membership is decided by the order of angles reduced into [0, 1),
with no arithmetic and no floating point.  One tail walk (``_orbits``) gives
the preperiods and periods of angles, residues and classes along image chains.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, NamedTuple

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
    """Reduce a rational to the fundamental domain [0, 1); a ``Fraction``
    already there comes back unchanged."""
    if type(a) is Fraction and 0 <= a.numerator < a.denominator:
        return a
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
    m = _FRACTION_RE.match(text)
    if m:
        num, den = _int(m.group(1)), _int(m.group(2))
        if den == 0:
            raise AngleError(f"zero denominator in {text!r}")
        return Fraction(num % den, den)
    if _INTEGER_RE.match(text):
        return mod1(Fraction(_int(text)))
    m = _ITINERARY_RE.match(text)
    if m:
        pre, per = m.group(1), m.group(2)
        for digit in pre + per:
            if int(digit) >= d:
                raise AngleError(f"digit {digit} out of range for base {d} in {text!r}")
        s, t = len(pre), len(per)
        pre_val, per_val = _digits_value(pre, d), _digits_value(per, d)
        return _printable(mod1(Fraction(pre_val * (d ** t - 1) + per_val, d ** s * (d ** t - 1))), "angle literal")
    raise AngleError(f"cannot parse angle literal {text!r} (expected p/q or digits_digits)")


def _printable(value, what: str):
    """``value``, unless it (a ``Fraction``: its denominator) has more decimal digits than ``str`` converts."""
    big, what = (value, what) if type(value) is int else (value.denominator, f"{what}'s denominator")
    digits = Decimal(big).adjusted() + 1  # Decimal converts past CPython's limit on str(int)
    if 0 < getattr(sys, "get_int_max_str_digits", int)() < digits:  # a limit of 0 is none
        raise AngleError(f"{what} has {digits} digits, too long to convert")
    return value


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # CPython's limit on decimal digits (see _digits_value)
        raise AngleError(f"angle literal has a {len(digits.lstrip('+-'))}-digit integer, too long to convert") from None


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
    """Minimal preperiod and period of ``a`` under sigma, by exact iteration
    of its numerator under ``x -> d * x mod denominator``."""
    check_degree(d)
    n, q = mod1(a).as_integer_ratio()
    return _orbits(lambda x: d * x % q, [n])[n]


def _orbits(step, starts: Iterable) -> dict:
    """Preperiod and period of each start under ``step``, one tail walk each.

    A walk stops on a new cycle, at a point already in the table, or where
    ``step`` returns None, which makes every point of that walk None.  Every
    point a walk passes gets an entry, so later starts often stop early.
    """
    table: dict = {}
    for x in starts:
        path: dict = {}
        while x is not None and x not in table and x not in path:
            path[x] = len(path)
            x = step(x)
        if x in path:  # the walk closed a new cycle at step path[x]
            entry, period = path[x], len(path) - path[x]
        elif x is None or table[x] is None:
            table.update(dict.fromkeys(path))
            continue
        else:
            entry, period = len(path) + table[x].preperiod, table[x].period
        for y, i in path.items():
            table[y] = OrbitInfo(max(0, entry - i), period)
    return table


def format_itinerary(a: Angle, d: int) -> str:
    """Canonical base-d itinerary with minimal preperiod and period, its
    digits ``d * n // q`` read off the numerator walk ``n -> d * n mod q``.

    Round-trips through :func:`parse_angle`.
    """
    info = orbit_info(a, d)
    n, q = mod1(a).as_integer_ratio()
    digits = []
    for _ in range(info.preperiod + info.period):
        digits.append(str(d * n // q))
        n = d * n % q
    return "".join(digits[: info.preperiod]) + "_" + "".join(digits[info.preperiod :])


def format_angle(a: Angle) -> str:
    """Reduced-fraction literal, e.g. ``1/7`` or ``0``."""
    return str(a if type(a) is Fraction else Fraction(a))


def in_open_arc(x: Angle, start: Angle, end: Angle) -> bool:
    """True iff x lies strictly inside the counterclockwise arc (start, end).

    By order of the angles reduced into [0, 1): start < x < end if start <
    end, else x > start or x < end, which is x != start if start == end."""
    x, start, end = mod1(x), mod1(start), mod1(end)
    if start < end:
        return start < x < end
    return x > start or x < end


def in_closed_arc(x: Angle, start: Angle, end: Angle) -> bool:
    """The rules of :func:`in_open_arc` with ``<=``: start <= x <= end if
    start < end, else x >= start or x <= end, always True if start == end."""
    x, start, end = mod1(x), mod1(start), mod1(end)
    if start < end:
        return start <= x <= end
    return x >= start or x <= end


def circle_dist(a: Angle, b: Angle) -> Fraction:
    """Shorter arc length between two circle points."""
    diff = (Fraction(a) - Fraction(b)) % 1
    return min(diff, 1 - diff)
