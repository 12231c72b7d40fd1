"""Fraction views of library data that only the tests use."""

from typing import Optional

from lamkit.circle import Angle, check_degree
from lamkit.core import PolygonClass, RoundGap, _class_residues, _IntModel
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
