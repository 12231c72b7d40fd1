import random
import re
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest

from lamkit.circle import preimages, sigma
from lamkit.core import (
    ClassLamination,
    PolygonClass,
    RoundGap,
    chords_cross,
    gap_decomposition,
    gap_degree,
)
from lamkit.portraits import (
    PortraitError,
    PortraitShape,
    count_all,
    count_injective,
    enumerate_all_portraits,
    enumerate_injective_portraits,
    internal_count,
    portrait_to_tree,
    reduce_portrait,
    tree_to_portrait,
)

from helpers import deepest_classes, instantiate_portrait, portrait_points

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


def _backtrack_portraits(i, n, injective):
    """Reference enumeration by backtracking over the cyclic point sequence:
    the first unused point starts a block, and each extension splits off
    independent segments."""

    def solve(region):
        # region is a circularly contiguous run of free points, in order
        if not region:
            return [()]
        out = []

        def extend(block, segments, rest):
            # block may close whenever labels wrap around completely
            if len(block) % n == 0 and (not injective or len(block) == n):
                pieces = [solve(seg) for seg in segments + [rest]]
                for combo in product(*pieces):
                    out.append((tuple(block),) + tuple(b for part in combo for b in part))
            if injective and len(block) == n:
                return
            need = (block[-1] + 1) % n
            for idx, q in enumerate(rest):
                if q % n == need:
                    extend(block + [q], segments + [rest[:idx]], rest[idx + 1 :])

        extend([region[0]], [], tuple(region[1:]))
        return out

    shapes = {PortraitShape(i, n, blocks) for blocks in solve(tuple(range(i * n)))}
    return sorted(shapes, key=lambda s: s.blocks)


def test_enumeration_matches_backtracking_oracle():
    for i in range(1, 6):
        for n in range(2, 6):
            if i * n <= 20:
                assert enumerate_injective_portraits(i, n) == _backtrack_portraits(i, n, True), (i, n)
                assert enumerate_all_portraits(i, n) == _backtrack_portraits(i, n, False), (i, n)


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


def _filter_scan_tree(shape):
    """Reference tree bijection: each block's n segments are filtered out of
    its region point by point."""
    if not shape.is_injective:
        raise PortraitError("tree bijection is defined for one-to-one portraits only")
    n = shape.n
    block_of = {p: b for b in shape.blocks for p in b}

    def build(region):
        if not region:
            return None
        b = block_of[region[0]]
        if b[0] != region[0]:
            raise PortraitError("region does not start its own block; shape is not non-crossing")
        segments = []
        for k in range(n):
            lo = b[k]
            hi = b[k + 1] if k + 1 < n else None
            segments.append(tuple(p for p in region if p > lo and (hi is None or p < hi) and p not in b))
        return tuple(build(seg) for seg in segments)

    return build(tuple(range(shape.i * shape.n)))


def _tree_or_error(to_tree, shape):
    try:
        return to_tree(shape)
    except PortraitError as exc:
        return str(exc)


def test_tree_bijection_matches_the_filter_scan_oracle():
    # enumerated shapes, shapes with two points swapped between blocks, and
    # random partitions into blocks of n points or of random sizes
    rng = random.Random(2029)
    outcomes = Counter()
    for _ in range(20_000):
        i, n = rng.randint(1, 4), rng.randint(2, 4)
        blocks = [list(b) for b in rng.choice(enumerate_injective_portraits(i, n)).blocks]
        kind = rng.randrange(4)
        if kind == 1 and i > 1:
            a, b = rng.sample(range(i), 2)
            x, y = rng.randrange(n), rng.randrange(n)
            blocks[a][x], blocks[b][y] = blocks[b][y], blocks[a][x]
        elif kind >= 2:
            points = rng.sample(range(i * n), i * n)
            cuts = sorted(rng.sample(range(1, i * n), i - 1)) if kind == 3 else range(n, i * n, n)
            blocks = [points[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, i * n])]
        shape = PortraitShape(i, n, tuple(map(tuple, blocks)))
        want = _tree_or_error(_filter_scan_tree, shape)
        assert _tree_or_error(portrait_to_tree, shape) == want, shape
        outcomes[want if isinstance(want, str) else "tree"] += 1
    assert len(outcomes) == 3 and min(outcomes.values()) > 1000, outcomes


def test_malformed_portraits_raise_portrait_errors():
    with pytest.raises(PortraitError, match=r"^blocks \(\(0, 1, 2\),\) do not partition range\(6\)$"):
        PortraitShape(2, 3, ((0, 1, 2),))
    with pytest.raises(PortraitError, match=r"^block \(0, 1, 3\) holds 0 points of label 2, not one$"):
        reduce_portrait(PortraitShape(2, 3, ((0, 1, 3), (2, 4, 5))))
    with pytest.raises(PortraitError, match=r"^tree node has 2 subtrees, not n = 3$"):
        tree_to_portrait((None, None), 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tree_to_portrait(None, 3), "tree must have at least one internal node"),
        (
            lambda: reduce_portrait(PortraitShape(2, 3, (tuple(range(6)),))),
            "reduce_portrait needs a one-to-one portrait",
        ),
        (
            lambda: reduce_portrait(enumerate_injective_portraits(2, 2)[0]),
            "need at least 3 labels to reduce",
        ),
        (lambda: reduce_portrait(enumerate_injective_portraits(2, 3)[0], 5), "label 5 out of range"),
        (
            lambda: instantiate_portrait(
                enumerate_injective_portraits(3, 2)[0], RABBIT, None, ClassLamination.create(2, [RABBIT])
            ),
            "shape is for 2-gons, target has 3 vertices",
        ),
        (
            lambda: instantiate_portrait(
                enumerate_injective_portraits(2, 3)[0],
                RABBIT,
                RoundGap(((F(1, 7), F(2, 7)),)),
                ClassLamination.create(2, [RABBIT]),
            ),
            "region holds no preimage of the target's first vertex",
        ),
        (
            lambda: instantiate_portrait(
                enumerate_injective_portraits(2, 3)[0],
                RABBIT,
                RoundGap(((F(2, 7), F(4, 7)),)),
                ClassLamination.create(2, [RABBIT]),
            ),
            "preimage points do not split evenly over the target's vertices",
        ),
        (
            lambda: instantiate_portrait(
                enumerate_injective_portraits(2, 3)[0],
                RABBIT,
                RoundGap(((F(1, 5), F(1, 5) + F(1, 1000)),)),
                ClassLamination.create(2, [RABBIT]),
            ),
            "no preimage points available in the region",
        ),
        (
            # preimages 1/14, 2/7 and 9/14 carry labels 0, 2 and 1
            lambda: instantiate_portrait(
                enumerate_injective_portraits(2, 3)[0],
                RABBIT,
                RoundGap(tuple((x - F(1, 1000), x + F(1, 1000)) for x in (F(1, 14), F(2, 7), F(9, 14)))),
                ClassLamination.create(2, [RABBIT]),
            ),
            "preimage labels do not repeat cyclically in the region",
        ),
    ],
)
def test_bad_portrait_inputs_raise_classified_errors(call, message):
    with pytest.raises(PortraitError, match=f"^{re.escape(message)}$"):
        call()


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


def _fraction_points(target, d, region):
    # reference portrait points on Fraction geometry: sorted preimages,
    # rotated to the first point whose label is 0
    pts = sorted(
        p
        for v in target.vertices
        for p in preimages(v, d)
        if region is None or region.contains_point(p)
    )
    labels = [target.vertices.index(sigma(p, d)) for p in pts]
    i = labels.index(0)
    return pts[i:] + pts[:i]


def test_portrait_points_rabbit_root(rabbit_tree, basilica_tree, cubic_tree):
    pts = portrait_points(RABBIT, 2, None)
    assert pts == [F(1, 14), F(1, 7), F(2, 7), F(4, 7), F(9, 14), F(11, 14)]
    nodes = [
        n
        for levels in (rabbit_tree.levels, basilica_tree.levels[:7], cubic_tree.levels[:3])
        for level in levels
        for n in level
    ]
    checked = 0
    for node in nodes:
        for target in deepest_classes(node):
            assert portrait_points(target, node.degree, None) == _fraction_points(
                target, node.degree, None
            )
            checked += 1
    assert checked > 300
    # inside a round gap only the preimages in its basis are available; in
    # the gap [2/7, 4/7] the sibling's points start at label 0, not at 9/28
    lam = ClassLamination.create(2, [RABBIT, SIBLING])
    gaps = {g.arcs: g for g in gap_decomposition(lam).round_gaps}
    target = PolygonClass((F(5, 14), F(11, 28), F(3, 7)))
    for tgt, arc, want in (
        (target, (F(1, 7), F(2, 7)), [F(5, 28), F(11, 56), F(3, 14)]),
        (SIBLING, (F(2, 7), F(4, 7)), [F(15, 28), F(9, 28), F(11, 28)]),
    ):
        region = gaps[(arc,)]
        assert portrait_points(tgt, 2, region) == _fraction_points(tgt, 2, region) == want


def test_instantiate_in_whole_disk():
    lam = ClassLamination.create(2, [])
    shapes = enumerate_injective_portraits(2, 3)
    results = []
    for s in shapes:
        new, _ = instantiate_portrait(s, RABBIT, None, lam)
        results.append({c.vertices for c in new})
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
        elif placed[1]:  # reused classes
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
    new, _ = instantiate_portrait(shape, target, deg1, lam)
    assert [c.vertices for c in new] == [(F(5, 28), F(11, 56), F(3, 14))]


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
    new, _ = instantiate_portrait(hexagon_shape, u, crit, lam)
    assert [c.vertices for c in new] == [
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
        for c in placed[0]:
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
        elif any(
            set(poly.vertices) & set(c.vertices)
            or any(chords_cross(e1, e2) for e1 in poly.edges() for e2 in c.edges())
            for c in lam.classes
        ):
            return None
        else:
            new.append(poly)
    return tuple(new), tuple(reused)


def test_residue_binding_matches_fraction_geometry(rabbit_tree, basilica_tree, cubic_tree):
    nodes = [
        n
        for levels in (rabbit_tree.levels[:4], basilica_tree.levels[:6], cubic_tree.levels[:2])
        for level in levels
        for n in level
    ]
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
