"""Fraction views of library data that only the tests use."""

from fractions import Fraction
from typing import Optional

from lamkit.circle import Angle, arc_len, check_degree
from lamkit.core import Chord, PolygonClass, RoundGap, _class_residues, _IntModel
from lamkit.portraits import _portrait_residues


def deepest_classes(fdl) -> list[PolygonClass]:
    """Classes at depth ``fdl.depth_n``: the periodic ones when it is 0."""
    deepest = set(fdl.deepest)  # sorted like fdl.residues, which the classes follow
    return [p for r, p in zip(fdl.residues, fdl.lamination.sorted_classes()) if r in deepest]


def portrait_points(target: PolygonClass, d: int, region: Optional[RoundGap] = None) -> list[Angle]:
    """Preimages of the target's vertices available for a portrait.

    For the whole disk these are all d preimages per vertex; inside a round
    gap, the ones lying in its closed basis.  Points come back in circular
    order starting at the smallest point whose image is the target's first
    vertex, and their labels must repeat 0..n-1 cyclically.
    """
    check_degree(d)
    model = _IntModel(d, *_class_residues([target]))
    pts = _portrait_residues(model.classes[0], model, region)
    return [model.angle(p) for p in pts]


def arith_in_open_arc(x, start, end) -> bool:
    """Arc membership by ``Fraction`` arithmetic: the offset of x from
    start, mod 1, lies strictly between 0 and the arc's length."""
    rel = (Fraction(x) - Fraction(start)) % 1
    return 0 < rel < arc_len(start, end)


def arith_in_closed_arc(x, start, end) -> bool:
    rel = (Fraction(x) - Fraction(start)) % 1
    return rel == 0 or rel <= arc_len(start, end)


def set_shares_endpoint(c1: Chord, c2: Chord) -> bool:
    return bool({c1.a, c1.b} & {c2.a, c2.b})


def arith_chords_cross(c1: Chord, c2: Chord) -> bool:
    """Chords cross iff they share no endpoint and exactly one endpoint of
    c2 lies in the open arc cut by c1, decided by the oracles above."""
    if set_shares_endpoint(c1, c2):
        return False
    return arith_in_open_arc(c2.a, c1.a, c1.b) != arith_in_open_arc(c2.b, c1.a, c1.b)
