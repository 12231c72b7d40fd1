from fractions import Fraction as F

import pytest

from lamkit.core import (
    ClassLamination,
    PolygonClass,
    gap_decomposition,
    gap_degree,
    polygons_conflict,
)
from lamkit.fdl import deepest_classes
from lamkit.portraits import (
    Placement,
    PortraitError,
    PortraitShape,
    count_all,
    count_injective,
    enumerate_all_portraits,
    enumerate_injective_portraits,
    instantiate_portrait,
    internal_count,
    portrait_points,
    portrait_to_tree,
    reduce_portrait,
    tree_to_portrait,
)

RABBIT = PolygonClass((F(1, 7), F(2, 7), F(4, 7)))
SIBLING = PolygonClass((F(1, 14), F(9, 14), F(11, 14)))


def test_closed_form_counts():
    assert [count_injective(i, 2) for i in (1, 2, 3, 4)] == [1, 2, 5, 14]
    assert count_injective(3, 3) == 12
    assert count_all(2, 3) == 4
    assert count_all(3, 2) == 12
    assert all(count_injective(1, n) == 1 for n in range(2, 8))
    assert all(count_all(1, n) == 1 for n in range(2, 8))


def test_enumeration_small_cases():
    assert len(enumerate_injective_portraits(1, 3)) == 1
    assert len(enumerate_injective_portraits(2, 2)) == 2
    assert len(enumerate_injective_portraits(2, 3)) == 3
    alln = enumerate_all_portraits(2, 3)
    assert len(alln) == 4
    sizes = sorted(tuple(sorted(len(b) for b in s.blocks)) for s in alln)
    assert sizes == [(3, 3), (3, 3), (3, 3), (6,)]


def test_block_label_balance():
    # every block carries each label equally often and the portrait uses
    # every point
    for i in (1, 2, 3):
        for n in (2, 3):
            for s in enumerate_all_portraits(i, n):
                used = [p for b in s.blocks for p in b]
                assert sorted(used) == list(range(i * n))
                for b in s.blocks:
                    counts = [0] * n
                    for p in b:
                        counts[p % n] += 1
                    assert len(set(counts)) == 1


def test_enumeration_is_canonically_sorted():
    shapes = enumerate_all_portraits(3, 2)
    assert shapes == sorted(shapes, key=lambda s: s.blocks)


def test_tree_bijection():
    for i in (1, 2, 3):
        for n in (2, 3):
            shapes = enumerate_injective_portraits(i, n)
            trees = set()
            for s in shapes:
                t = portrait_to_tree(s)
                assert internal_count(t) == i
                assert tree_to_portrait(t, n) == s
                trees.add(t)
            assert len(trees) == len(shapes)


def test_tree_bijection_rejects_covering_blocks():
    hexagon = next(s for s in enumerate_all_portraits(2, 3) if not s.is_injective)
    with pytest.raises(PortraitError):
        portrait_to_tree(hexagon)


def test_reduce_portrait_bijection():
    for i in (1, 2, 3):
        for n in (2, 3):
            dom = enumerate_injective_portraits(i, n + 1)
            rng = enumerate_all_portraits(i, n)
            images = [reduce_portrait(s) for s in dom]
            assert len(set(images)) == len(dom)
            assert set(images) == set(rng)


def test_reduce_portrait_any_anchor_label():
    for X in range(3):
        dom = enumerate_injective_portraits(2, 3)
        images = [reduce_portrait(s, X) for s in dom]
        assert set(images) == set(enumerate_all_portraits(2, 2))


def test_portrait_points_rabbit_root():
    lam = ClassLamination.create(2, [RABBIT])
    pts = portrait_points(RABBIT, 2, None)
    assert pts == [F(1, 14), F(1, 7), F(2, 7), F(4, 7), F(9, 14), F(11, 14)]


def test_instantiate_in_whole_disk():
    lam = ClassLamination.create(2, [])
    shapes = enumerate_injective_portraits(2, 3)
    results = []
    for s in shapes:
        placed = instantiate_portrait(s, RABBIT, None, lam)
        assert placed is not None
        results.append({c.vertices for c in placed.new_classes})
    target = {RABBIT.vertices, SIBLING.vertices}
    assert target in results


def test_instantiate_reuse_and_overlap():
    lam = ClassLamination.create(2, [RABBIT])
    shapes = enumerate_all_portraits(2, 3)
    outcomes = []
    for s in shapes:
        placed = instantiate_portrait(s, RABBIT, None, lam)
        if placed is None:
            outcomes.append("rejected")
        elif placed.reused:
            outcomes.append("reused")
        else:
            outcomes.append("fresh")
    # only the sibling-completing placement survives; it reuses the target
    assert outcomes.count("reused") == 1
    assert outcomes.count("rejected") == 3


def test_instantiate_inside_round_gap():
    lam = ClassLamination.create(2, [RABBIT, SIBLING])
    gaps = gap_decomposition(lam).round_gaps
    deg1 = next(g for g in gaps if g.arcs == ((F(1, 7), F(2, 7)),))
    target = PolygonClass((F(5, 14), F(11, 28), F(3, 7)))
    shape = enumerate_injective_portraits(1, 3)[0]
    placed = instantiate_portrait(shape, target, deg1, lam)
    assert placed is not None and len(placed.new_classes) == 1
    assert placed.new_classes[0].vertices == (F(5, 28), F(11, 56), F(3, 14))


def test_instantiate_degree2_gap_hexagon():
    # two levels below the sibling triangle, its preimage hexagon fills the
    # critical gap
    u = PolygonClass((F(9, 56), F(11, 56), F(15, 56)))
    u2 = PolygonClass((F(37, 56), F(39, 56), F(43, 56)))
    v = PolygonClass((F(1, 56), F(51, 56), F(53, 56)))
    v2 = PolygonClass((F(23, 56), F(25, 56), F(29, 56)))
    t1 = PolygonClass((F(8, 56), F(16, 56), F(32, 56)))
    t2 = PolygonClass((F(4, 56), F(36, 56), F(44, 56)))
    us = PolygonClass((F(18, 56), F(22, 56), F(30, 56)))
    vs = PolygonClass((F(2, 56), F(46, 56), F(50, 56)))
    lam = ClassLamination.create(2, [t1, t2, us, vs, u, u2, v, v2])
    gaps = gap_decomposition(lam).round_gaps
    crit = next(g for g in gaps if gap_degree(g, 2).degree == 2)
    hexagon_shape = PortraitShape(2, 3, ((0, 1, 2, 3, 4, 5),))
    placed = instantiate_portrait(hexagon_shape, u, crit, lam)
    assert placed is not None
    assert [c.vertices for c in placed.new_classes] == [
        tuple(F(k, 112) for k in (9, 11, 15, 65, 67, 71))
    ]


def test_placed_blocks_always_positively_oriented():
    # an orientation-reversing triangle over the sibling's preimage points
    # exists set-wise but its label cycle reverses, so no shape places it
    lam = ClassLamination.create(2, [RABBIT, SIBLING])
    reversing = (F(1, 28), F(11, 28), F(23, 28))
    from lamkit.core import covering_degree

    seen = set()
    for shape in enumerate_all_portraits(2, 3):
        placed = instantiate_portrait(shape, SIBLING, None, lam)
        if placed is None:
            continue
        for c in placed.new_classes:
            assert covering_degree(c, 2).kind in ("covering", "collapses_to_leaf")
            seen.add(c.vertices)
    assert reversing not in seen


def test_instantiate_region_degree_mismatch():
    lam = ClassLamination.create(2, [RABBIT, SIBLING])
    gaps = gap_decomposition(lam).round_gaps
    deg1 = next(g for g in gaps if g.arcs == ((F(1, 7), F(2, 7)),))
    target = PolygonClass((F(5, 14), F(11, 28), F(3, 7)))
    two_shape = enumerate_injective_portraits(2, 3)[0]
    with pytest.raises(PortraitError):
        instantiate_portrait(two_shape, target, deg1, lam)


def _fraction_bind(shape, points, lam):
    # reference binder on exact Fraction geometry: a block reproducing a
    # class is reused, any other contact with a class rejects the placement
    new, reused = [], []
    for block in shape.blocks:
        poly = PolygonClass(tuple(points[p] for p in block))
        if poly in lam.classes:
            reused.append(poly)
        elif any(polygons_conflict(poly, c) for c in lam.classes):
            return None
        else:
            new.append(poly)
    return Placement(tuple(new), tuple(reused))


def test_rank_binding_matches_fraction_geometry(rabbit_tree, cubic_root):
    nodes = [n for level in rabbit_tree.levels[:4] for n in level] + [cubic_root]
    checked = 0
    for node in nodes:
        lam = node.lamination
        for target in deepest_classes(node):
            points = portrait_points(target, lam.degree, None)
            for shape in enumerate_all_portraits(lam.degree, len(target)):
                placed = instantiate_portrait(shape, target, None, lam)
                assert placed == _fraction_bind(shape, points, lam)
                checked += placed is not None
    assert checked > 0
