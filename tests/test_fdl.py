import gc
import hashlib
import random
import re
import sys
import weakref
from bisect import bisect
from collections import Counter
from fractions import Fraction as F
from itertools import chain, combinations, product

import pytest

from lamkit.circle import format_angle, preimages
from lamkit.core import (
    Chord,
    ClassLamination,
    LaminationError,
    PolygonClass,
    _hull_edges,
    _class_residues,
    _events,
    _sweep,
    criticality_audit,
)
from lamkit import fdl as fdl_module
from lamkit.fdl import (
    FDL,
    FdlError,
    _Level,
    _blocks_cross,
    _has_disjoint_collection,
    _placements,
    build_pullback_tree,
    canonical_form,
    enumerate_children,
    root_fdl,
    validate_fdl,
)
from lamkit.io import dumps, load_lamination, save_lamination
from lamkit.portraits import enumerate_all_portraits
from lamkit.pullback import hyperbolic_approx

from helpers import (
    all_vertices,
    bind_shape,
    classes_from_chords,
    deepest_classes,
    image,
    placement_model,
    portrait_residues,
    region_labels,
)

RABBIT = PolygonClass((F(1, 7), F(2, 7), F(4, 7)))
SIBLING = PolygonClass((F(1, 14), F(9, 14), F(11, 14)))


def test_validate_rabbit_root():
    report = validate_fdl(ClassLamination.create(2, [RABBIT]))
    assert report.valid and report.depth_n == 0


def test_validate_rabbit_level1():
    report = validate_fdl(ClassLamination.create(2, [RABBIT, SIBLING]))
    assert report.valid and report.depth_n == 1


def test_validate_hexagon_fails_forward_closure():
    hexagon = PolygonClass(
        (F(1, 14), F(1, 7), F(2, 7), F(4, 7), F(9, 14), F(11, 14))
    )
    report = validate_fdl(ClassLamination.create(2, [hexagon]))
    assert not report.valid
    assert not report.axioms[3].passed


def test_validate_critical_leaf_fails():
    report = validate_fdl(ClassLamination.create(2, [PolygonClass((F(0), F(1, 2)))]))
    assert not report.valid
    assert not report.axioms[2].passed


def test_validate_missing_siblings():
    # a lone preimage triangle lacks its disjoint partner
    u = PolygonClass((F(9, 28), F(11, 28), F(15, 28)))
    report = validate_fdl(ClassLamination.create(2, [RABBIT, SIBLING, u]))
    assert not report.valid
    assert not report.axioms[5].passed


def test_validate_orientation_reversing_periodic():
    rev = PolygonClass((F(1, 7), F(2, 7), F(4, 7), F(9, 14)))
    report = validate_fdl(ClassLamination.create(2, [rev]))
    assert not report.valid
    # a fixed triangle of sigma_3 whose boundary map reverses orientation:
    # 0 -> 0, 1/8 -> 3/8, 3/8 -> 1/8
    fixed = PolygonClass((F(0), F(1, 8), F(3, 8)))
    report = validate_fdl(ClassLamination.create(3, [fixed]))
    assert report.failures() == {7: report.axioms[7]}
    assert report.axioms[7].witnesses == (
        "periodic class {0,1/8,3/8} has boundary map not_covering",
    )


def test_validate_reports_crossing_classes():
    # axiom 0: the lamination check fails, and no axiom after it is evaluated
    lam = ClassLamination(2, {PolygonClass((F(0), F(1, 2))), PolygonClass((F(1, 3), F(2, 3)))})
    report = validate_fdl(lam)
    assert not report.valid and report.depth_n is None
    assert report.failure_text() == "axiom 0: classes {0,1/2} and {1/3,2/3} cross"


def test_validate_names_periodic_leaves_without_a_nonperiodic_preimage():
    # both new triangles lie over the second root triangle, so no non-periodic
    # leaf maps onto the first one: axiom 4 fails alone, on its three leaves
    root = [
        PolygonClass((F(1, 26), F(3, 26), F(9, 26))),
        PolygonClass((F(7, 13), F(8, 13), F(11, 13))),
    ]
    pair = [
        PolygonClass((F(7, 39), F(8, 39), F(11, 39))),
        PolygonClass((F(20, 39), F(34, 39), F(37, 39))),
    ]
    report = validate_fdl(ClassLamination.create(3, root + pair))
    assert report.failures() == {4: report.axioms[4]} and report.depth_n == 1
    assert report.axioms[4].witnesses == tuple(
        f"periodic leaf ({e}) lacks a non-periodic preimage (n=1)"
        for e in ("1/26,3/26", "3/26,9/26", "1/26,9/26")
    )


def _backtrack_disjoint_collection(leaf, same_image, d: int) -> bool:
    """Reference for axiom 5 by backtracking: can ``leaf`` extend to d
    pairwise endpoint-disjoint leaves of ``same_image``?"""
    others = [s for s in same_image if set(s).isdisjoint(leaf)]
    if len(others) < d - 1:
        return False

    def extend(chosen, pool):
        if len(chosen) == d:
            return True
        for idx, c in enumerate(pool):
            cs = set(c)
            if all(cs.isdisjoint(x) for x in chosen) and extend(chosen + [c], pool[idx + 1 :]):
                return True
        return False

    return extend([leaf], others)


def _first_fit(leaf, same_image, d: int) -> bool:
    # greedy: keep each leaf disjoint from those kept so far, in list order
    chosen = [leaf]
    for s in same_image:
        if all(set(s).isdisjoint(c) for c in chosen):
            chosen.append(s)
    return len(chosen) >= d


def test_disjoint_collections_match_the_backtracking_oracle():
    # random same-image leaf sets on few endpoints, in shuffled order, so
    # that the first disjoint leaf is often a wrong pick
    rng = random.Random(2028)
    outcomes = Counter()
    for _ in range(50_000):
        d = rng.randint(2, 4)
        ends = range(2 * d + 2)
        same_image = list({tuple(sorted(rng.sample(ends, 2))) for _ in range(rng.randint(d, 3 * d))})
        rng.shuffle(same_image)
        leaf = rng.choice(same_image)
        want = _backtrack_disjoint_collection(leaf, same_image, d)
        assert _has_disjoint_collection(leaf, same_image, d) == want, (leaf, same_image, d)
        outcomes[want, _first_fit(leaf, same_image, d)] += 1
    assert outcomes[True, True] and outcomes[False, False] and outcomes[True, False] > 1000
    assert not outcomes[False, True]


def test_canonical_form():
    assert canonical_form(ClassLamination.create(2, [RABBIT])) == "2|1/7,2/7,4/7"
    a = canonical_form(ClassLamination.create(2, [RABBIT, SIBLING]))
    b = canonical_form(ClassLamination.create(2, [SIBLING, RABBIT]))
    assert a == b == "2|1/14,9/14,11/14|1/7,2/7,4/7"


def test_classes_from_chords():
    chords = list(RABBIT.edges()) + list(SIBLING.edges())
    classes = classes_from_chords(2, chords)
    assert {c.vertices for c in classes} == {RABBIT.vertices, SIBLING.vertices}
    # hull edges plus a diagonal are not a class
    hexagon = PolygonClass((F(1, 14), F(1, 7), F(2, 7), F(4, 7), F(9, 14), F(11, 14)))
    with pytest.raises(FdlError):
        classes_from_chords(2, list(hexagon.edges()) + [Chord(F(1, 7), F(4, 7))])


def test_root_rejects_non_self_image():
    with pytest.raises(FdlError, match=r"^root must be its own image \(depth parameter 0, not 1\)$"):
        root_fdl(2, [RABBIT, SIBLING])
    with pytest.raises(FdlError, match=r"axiom 3: image of \(2/7,4/7\) is not a leaf"):
        root_fdl(2, [PolygonClass((F(1, 7), F(2, 7), F(4, 7), F(9, 14)))])


def test_tree_root_is_validated_in_full():
    # children are valid by construction from a valid parent, so the root must be valid
    with pytest.raises(FdlError, match="tree root is no finite dynamical lamination at depth 1"):
        build_pullback_tree(FDL._node(2, 1, 7, ((1, 2, 4),), (), "2|1/7,2/7,4/7"), 1)
    with pytest.raises(FdlError, match="at depth 0"):
        build_pullback_tree(FDL._node(2, 0, 2, ((0, 1),), ((0, 1),), "2|0,1/2"), 1)


def test_rabbit_children_chain(rabbit_root):
    kids = enumerate_children(rabbit_root)
    assert [k.key() for k in kids] == ["2|1/14,9/14,11/14|1/7,2/7,4/7"]
    level1 = kids[0]
    assert level1.depth_n == 1
    kids2 = enumerate_children(level1)
    assert [k.key() for k in kids2] == [
        "2|1/28,23/28,25/28|1/14,9/14,11/14|1/7,2/7,4/7|9/28,11/28,15/28"
    ]


def test_basilica_children(basilica_root):
    kids = enumerate_children(basilica_root)
    assert len(kids) == 1
    assert kids[0].key() == "2|1/6,5/6|1/3,2/3"


def test_tree_nodes_pass_the_full_lamination_check(basilica_tree, rabbit_tree, cubic_tree):
    # children are neither passed through ClassLamination.check nor through
    # validate_fdl, relying on the construction of enumerate_children, so
    # every node is checked again from scratch
    for tree in (basilica_tree, rabbit_tree, cubic_tree):
        for level, nodes in enumerate(tree.levels):
            for node in nodes:
                lam = ClassLamination.create(node.degree, node.lamination.classes)
                report = validate_fdl(lam)
                assert report.valid and report.depth_n == level, node.key()
    # the local A152046 b-file, indices 0-8
    assert basilica_tree.level_counts() == [1, 1, 1, 3, 5, 11, 21, 43, 85]


def test_rabbit_tree_structure(rabbit_tree):
    assert rabbit_tree.level_counts() == [1, 1, 1, 1, 4, 7]
    for lv, nodes in enumerate(rabbit_tree.levels):
        for node in nodes:
            assert node.depth_n == lv
    for parent, child in rabbit_tree.edges():
        assert parent.lamination.classes < child.lamination.classes
        d = child.degree
        images = {
            image(c, d) for c in child.lamination.classes if image(c, d) is not None
        }
        assert images == set(parent.lamination.classes)


def test_periodic_classes_constant(rabbit_tree):
    for node in rabbit_tree.all_nodes():
        report = validate_fdl(node.lamination)
        assert set(report.periodic_classes) == {RABBIT}


def _partitions_blocks(points):
    points = list(points)

    def rec(remaining):
        if not remaining:
            yield []
            return
        first, rest = remaining[0], remaining[1:]
        yield from rec(rest)
        for r in range(1, len(rest) + 1):
            for others in combinations(rest, r):
                block = (first,) + others
                leftover = [x for x in rest if x not in others]
                for p in rec(leftover):
                    yield [block] + p

    yield from rec(points)


def _oracle_children(fdl):
    """Unconstrained search: every partition of the free preimage points
    into blocks, filtered by the validator alone."""
    lam = fdl.lamination
    d = lam.degree
    pts = set()
    for target in deepest_classes(fdl):
        for v in target.vertices:
            pts.update(preimages(v, d))
    pts = sorted(pts - all_vertices(lam))
    found = set()
    for blocks in _partitions_blocks(pts):
        if not blocks:
            continue
        try:
            cand = ClassLamination.create(
                d, set(lam.classes) | {PolygonClass(b) for b in blocks}
            )
        except LaminationError:
            continue
        rep = validate_fdl(cand)
        if rep.valid and rep.depth_n == fdl.depth_n + 1:
            found.add(FDL(cand).key())
    return sorted(found)


def test_children_match_unconstrained_oracle(rabbit_root, basilica_root):
    node = rabbit_root
    for _ in range(2):
        kids = enumerate_children(node)
        assert [k.key() for k in kids] == _oracle_children(node)
        node = kids[0]
    node = basilica_root
    for _ in range(3):
        kids = enumerate_children(node)
        assert [k.key() for k in kids] == _oracle_children(node)
        node = kids[0]


def _expected_deepest(node):
    # periodic classes at depth 0; deeper, the non-periodic classes that
    # are no class's image, since axiom 4 gives every shallower leaf a
    # preimage
    lam = node.lamination
    periodic = list(validate_fdl(lam).periodic_classes)
    if node.depth_n == 0:
        return periodic
    d = lam.degree
    images = {image(c, d) for c in lam.classes}
    return [c for c in lam.sorted_classes() if c not in periodic and c not in images]


def test_deepest_classes_match_independent_answer(rabbit_tree, basilica_root):
    trees = [rabbit_tree, build_pullback_tree(basilica_root, 6)]
    assert [len(t.levels) for t in trees] == [6, 7]
    for tree in trees:
        for node in tree.all_nodes():
            assert deepest_classes(node) == _expected_deepest(node), node.key()


def _fraction_key(lam):
    # the key as a join of Fraction literals over the sorted classes
    parts = [str(lam.degree)]
    parts += [",".join(format_angle(v) for v in c.vertices) for c in lam.sorted_classes()]
    return "|".join(parts)


def _ranks_cross(e1, e2):
    # chords as increasing residue pairs; sharing an endpoint is not crossing
    a1, b1 = e1
    a2, b2 = e2
    if a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
        return False
    return (a1 < a2 < b1) != (a1 < b2 < b1)


def _reference_bind(shape, points, model):
    # every new hull edge is tested against every model edge
    new, new_edges = [], []
    for block in shape.blocks:
        vs = tuple(sorted(points[p] for p in block))
        if vs in model.known:
            continue
        if any(v in model.vertices for v in vs):
            return None
        edges = _hull_edges(vs)
        if any(_ranks_cross(e, ce) for e in edges for ce in model.edges):
            return None
        new.append(vs)
        new_edges.extend(edges)
    return new, new_edges


def _deepest(model, n):
    # the classes of an _IntModel at depth n, by the model's own depth walk
    depth = model.depths
    return [c for c in model.classes if depth[c] == n]


def _reference_children(fdl):
    """Child keys by the edge-scan binder, Fraction child classes, a fresh
    validation and the Fraction key."""
    lam = fdl.lamination
    d = lam.degree
    model = placement_model(d, *_class_residues([c.vertices for c in lam.classes]))
    options = []
    for t in _deepest(model, fdl.depth_n):
        pts = portrait_residues(t, model, None)
        placed = [_reference_bind(s, pts, model) for s in enumerate_all_portraits(d, len(t))]
        options.append([p for p in placed if p is not None and p[0]])
    keys = set()
    for combo in product(*options):
        if _sweep(e for _, edges in combo for e in edges)[0] is not None:
            continue
        new = {PolygonClass(tuple(map(model.angle, vs))) for blocks, _ in combo for vs in blocks}
        candidate = ClassLamination(d, lam.classes | new)
        report = validate_fdl(candidate)
        if report.valid and report.depth_n == fdl.depth_n + 1:
            keys.add(_fraction_key(candidate))
    return sorted(keys)


def test_children_match_edge_scan_reference(basilica_tree, rabbit_tree, cubic_tree):
    expanded = 0
    for tree in (basilica_tree, rabbit_tree, cubic_tree):
        for level in tree.levels[:-1]:
            for node in level:
                got = [k.key() for k in enumerate_children(node)]
                assert got == _reference_children(node), node.key()
                expanded += 1
    assert expanded == 86 + 8 + 3


def _product_children(fdl, census):
    """Child keys, in order, by the whole-combination enumerator: every
    combination of one bound placement per deepest class, kept when one
    sweep over all its new edges finds no crossing.  On the way, each
    target's disk-wide placements check its region-local ``_placements``,
    and ``census`` counts targets and free ones, and the regions (and
    nodes with one) where free groups of two or more targets meet."""
    d = fdl.degree
    model = placement_model(d, fdl.modulus, fdl.residues)
    targets = _deepest(model, fdl.depth_n)
    points = [portrait_residues(t, model, None) for t in targets]
    labels = region_labels(model, (p for pts in points for p in pts))
    groups = _groups(model, [tuple(x // d for x in t) for t in targets])
    options = []
    for t, pts in zip(targets, points):
        placed = (bind_shape(s, pts, model, labels) for s in enumerate_all_portraits(d, len(t)))
        options.append([p for p in placed if p is not None])
        _check_placements(tuple(x // d for x in t), model, options[-1], census, groups)
    # the region lemma's consequence: a forced target's blocks cross no block
    # of another target's placements in their region
    by_region = {}
    for i, opts in enumerate(options):
        for vs in {vs for blocks, _ in opts for vs in blocks}:
            by_region.setdefault(labels[vs[0]], []).append((i, len(opts) == 1, vs))
    for blocks in by_region.values():
        for (i, fa, va), (j, fb, vb) in combinations(blocks, 2):
            assert not ((fa or fb) and i != j and _blocks_cross(va, vb)), (fdl.key(), va, vb)
    free = Counter()  # region -> targets holding more than n points there
    for t, pts in zip(targets, points):
        free.update(r for r, k in Counter(labels[p] for p in pts if p in labels).items() if k > len(t))
    shared = sum(k > 1 for k in free.values())
    census["shared regions"] += shared
    census["shared nodes"] += shared > 0
    keys = set()
    for combo in product(*options):
        new = [vs for blocks, _ in combo for vs in blocks]
        if _sweep(e for vs in new for e in _hull_edges(vs))[0] is not None:
            continue
        keys.add("|".join([str(d)] + [model.text(c) for c in sorted(model.classes + new)]))
    return sorted(keys)


def _groups(model, targets):
    # the _sweep groups that _placements reads: each target's preimages that
    # are no model vertex, tagged with the target, by region and target
    d, M = model.d, model.D // model.d
    events = _events(model.edges)
    for c in targets:
        events += _events((), [p for p in (x + k * M for k in range(d) for x in c) if p not in model.vertices], c)
    return _sweep(events=events)[1]


def _check_placements(c, model, bound, census, groups=None):
    # the forced/free split gives exactly the disk-wide placements that bind,
    # so a target it finds forced (one option) is one where one of them binds;
    # ``groups``, of a sweep over several targets, are read by c's tag
    groups = _groups(model, [c]) if groups is None else {k: v for k, v in groups.items() if k[1] == c}
    got = _placements((c,), model, groups)
    want = sorted(sorted(new) for new, _ in bound)
    assert sorted(map(sorted, got)) == want, c
    census["targets"] += 1
    census["free" if len(want) > 1 else "forced" if want else "none"] += 1


@pytest.fixture(scope="module")
def basilica9_tree(basilica_root):
    return build_pullback_tree(basilica_root, 9)


def test_children_match_the_product_enumerator(basilica9_tree, rabbit_root, cubic_tree):
    # the per-region product against every combination swept whole, one
    # level below each tree's deepest nodes
    expanded = 0
    censuses = []
    for tree in (basilica9_tree, build_pullback_tree(rabbit_root, 8), cubic_tree):
        census = Counter()
        for node in tree.all_nodes():
            keys = _product_children(node, census)
            assert [k.key() for k in enumerate_children(node)] == keys, node.key()
            expanded += 1
        censuses.append(dict(census))
    assert expanded == 342 + 111 + 19
    # targets (deepest classes of every node), those with more than one
    # placement, none failing; regions where free groups of several targets
    # meet, so _placements grows shapes past crossings, and nodes with one
    assert censuses == [
        {"targets": 57771, "free": 170, "forced": 57601, "shared regions": 46, "shared nodes": 46},
        {"targets": 9316, "free": 36, "forced": 9280, "shared regions": 5, "shared nodes": 5},
        {"targets": 586, "free": 26, "forced": 560, "shared regions": 8, "shared nodes": 7},
    ]


def test_placements_match_disk_wide_binding_on_random_targets(basilica_tree, rabbit_tree, cubic_tree):
    # seeded random targets over the fixture nodes: a random 2- or 3-gon,
    # whose preimages may fall into a region in a number that no shape takes;
    # two vertices of a class, whose preimages may fill a class in part; and a
    # class over a random part of the node's classes, whose preimages are
    # partly reused
    rng = random.Random(21)
    census = Counter()
    for tree in (basilica_tree, rabbit_tree, cubic_tree):
        d = tree.degree
        for node in tree.all_nodes():
            M = node.modulus
            whole = placement_model(d, M, node.residues)
            for _ in range(3):
                kept = placement_model(d, M, [r for r in node.residues if rng.random() < 0.7])
                targets = [
                    tuple(sorted(rng.sample(range(M), rng.choice((2, 3))))),
                    tuple(sorted(rng.sample(rng.choice(node.residues), 2))),
                    rng.choice(node.residues),
                ]
                for c, model in zip(targets, (whole, whole, kept)):
                    labels = region_labels(model, (x + k * M for k in range(d) for x in c))
                    pts = portrait_residues(tuple(d * x for x in c), model, None)
                    bound = (bind_shape(s, pts, model, labels) for s in enumerate_all_portraits(d, len(c)))
                    _check_placements(c, model, [b for b in bound if b is not None], census)
    assert census == {"targets": 1845, "forced": 1162, "free": 19, "none": 664}


def _region_lemma_cases(d, M, residues, targets, cases):
    # per region, each target's group: its non-vertex preimages there, with
    # the index of the vertex of its class they map to; then for each ordered
    # pair of groups of distinct targets and each b != e of the first, the
    # second group's points in the open arc (b, e), counted per index
    model = placement_model(d, M, residues)
    fibers = [[(x + k * M, j) for k in range(d) for j, x in enumerate(c)] for c in targets]
    labels = region_labels(model, (p for fiber in fibers for p, _ in fiber))
    regions = {}
    for i, fiber in enumerate(fibers):
        for p, j in fiber:
            if p in labels:
                regions.setdefault(labels[p], {}).setdefault(i, []).append((p, j))
    for groups in regions.values():
        for (s, gs), (t, gt) in product(groups.items(), repeat=2):
            if s == t:
                continue
            for (b, _), (e, _) in product(gs, repeat=2):
                if b == e:
                    continue
                inside = Counter(j for p, j in gt if (b < p < e if b < e else p > b or p < e))
                counts = {inside[j] for j in range(len(targets[t]))}
                assert len(counts) == 1, (targets, b, e, gt)
                cases[(len(gt) // len(targets[t]), counts.pop() > 0)] += 1


def test_region_lemma_on_fixture_nodes(basilica_tree, rabbit_tree, cubic_tree):
    """Region lemma.  Let L satisfy axioms 2 and 3, and let t be a deepest
    class, an n-gon onto which nothing in L maps but, at depth 0, its
    periodic preimage tau, one-to-one with positive orientation (axioms 4
    and 7).  Let R be a complementary region of L.  The circle minus R's
    basis is a union of pockets, each the open arc behind one boundary leaf
    (p, q) of R.

    1. Pocket count: a closed pocket holds as many preimages of each vertex
       of t.  Its image winds K full turns, then once over the closed arc
       from sigma(p) to sigma(q).  If the leaf's class does not map onto t,
       its image is a leaf of another class (axioms 2 and 3), and t lies on
       one side of it, so that arc holds all of t or none.  Otherwise the
       class is tau and the pocket is the long arc behind an edge of tau;
       the open short arc in front holds no vertex of tau and maps onto K'
       turns plus an arc between consecutive vertices of t, so the closed
       pocket hits each vertex of t exactly d - K' times.
    2. Path count: for points b != e of R's basis that are no vertices, with
       sigma(b) and sigma(e) vertices of a class s other than t, the open
       arc (b, e) hits each vertex of t equally often: K turns plus the arc
       (sigma(b), sigma(e)), which holds all of t or none, as the classes s
       and t do not cross.
    3. (b, e) is made of parts of R's basis and whole closed pockets, so t's
       group in R (its preimages there that are no vertices) meets (b, e)
       equally often on each vertex of t.

    So a group of n points lies wholly inside or outside (b, e): in one gap
    of every other target's group in R, crossing no block of any placement
    of that target.  Forced blocks therefore cross nothing, and
    ``_placements`` grows only free groups' shapes past each other, region
    by region.  The lemma
    needs only axioms 2 and 3 and that nothing maps onto a target, so it
    also holds on a copy of each node with some deepest classes dropped.
    """
    rng = random.Random(22)
    cases = Counter()  # (group size / n, whether the group meets the arc)
    for tree in (basilica_tree, rabbit_tree, cubic_tree):
        for node in tree.all_nodes():
            dropped = {c for c in node.deepest if rng.random() < 0.5}
            for lost in (set(), dropped):
                residues = [c for c in node.residues if c not in lost]
                targets = [c for c in node.deepest if c not in lost]
                _region_lemma_cases(tree.degree, node.modulus, residues, targets, cases)
    assert cases == {(1, False): 46185, (1, True): 46185, (2, False): 520, (2, True): 2320}


def _disk_wide_placements(d, model, targets, labels):
    # every combination of one disk-wide binding per target whose new edges
    # cross nothing, as sorted block lists
    options = []
    for c in targets:
        pts = portrait_residues(tuple(d * x for x in c), model, None)
        placed = (bind_shape(s, pts, model, labels) for s in enumerate_all_portraits(d, len(c)))
        options.append([new for new, _ in filter(None, placed)])
    return sorted(
        sorted(new)
        for new in (list(chain.from_iterable(combo)) for combo in product(*options))
        if _sweep(e for vs in new for e in _hull_edges(vs))[0] is None
    )


def test_placements_match_the_disk_wide_product_on_thinned_nodes(basilica_tree, rabbit_tree, cubic_tree):
    # on the region lemma test's nodes and thinned copies (same seed), where
    # a region may hold a forced group beside a free group of another target
    rng = random.Random(22)
    census = Counter()
    for tree in (basilica_tree, rabbit_tree, cubic_tree):
        d = tree.degree
        for node in tree.all_nodes():
            dropped = {c for c in node.deepest if rng.random() < 0.5}
            for lost in (set(), dropped)[: 1 + bool(dropped)]:
                model = placement_model(d, node.modulus, [c for c in node.residues if c not in lost])
                targets = [c for c in node.deepest if c not in lost]
                labels = region_labels(model, (x + k * node.modulus for k in range(d) for c in targets for x in c))
                got = sorted(map(sorted, _placements(targets, model, _groups(model, targets))))
                assert got == _disk_wide_placements(d, model, targets, labels), (node.key(), lost)
                census["thinned" if lost else "whole"] += 1
                kinds = {}  # region -> its groups' kinds: False for n points, True for more
                for c in targets:
                    fiber = (x + k * node.modulus for k in range(d) for x in c)
                    for r, k in Counter(labels[p] for p in fiber if p in labels).items():
                        kinds.setdefault(r, set()).add(k > len(c))
                census["forced beside free"] += sum(len(k) == 2 for k in kinds.values())
    assert census == {"whole": 205, "thinned": 200, "forced beside free": 8}


def _fields(node):
    return node.key(), node.residues, node.deepest, node.modulus, node.depth_n


def _tables_of(level):
    return level.classes, level.points, level.texts, level.blocks


def test_level_tables_match_fresh_enumeration(basilica9_tree, rabbit_root, cubic_root):
    # a tree grows each level on one shared table; each node's children in
    # it, in order, are those enumerate_children(node) finds on a fresh one
    expanded = 0
    for tree in (basilica9_tree, build_pullback_tree(rabbit_root, 8), build_pullback_tree(cubic_root, 4)):
        kids = {}
        for node in tree.all_nodes():
            kids.setdefault(tree.parent.get(node.key()), []).append(_fields(node))
        for node in (n for level in tree.levels[:-1] for n in level):
            assert [_fields(k) for k in enumerate_children(node)] == kids.get(node.key(), []), node.key()
            expanded += 1
        # one copy of each class per level: nodes share their residue tuples
        for level in tree.levels:
            classes = [c for node in level for c in node.residues]
            assert len({id(c) for c in classes}) == len(set(classes))
    assert expanded == 171 + 56 + 19


def test_placements_give_distinct_children(basilica9_tree, rabbit_root, cubic_root):
    # why no dict merges children: on every expanded node each placement is
    # its own child (two differ in their new blocks), and no key repeats
    # within a level (a child's parent is its image, so two parents share no
    # child).  Census per tree: (expanded nodes, placements)
    census = []
    for tree in (basilica9_tree, build_pullback_tree(rabbit_root, 8), build_pullback_tree(cubic_root, 4)):
        for level in tree.levels:
            assert len({node.key() for node in level}) == len(level)
        kids = Counter(tree.parent.values())
        expanded = [n for level in tree.levels[:-1] for n in level]
        for node in expanded:
            model = placement_model(node.degree, node.modulus, node.residues)
            placements = _placements(node.deepest, model, _groups(model, node.deepest))
            assert len(placements) == kids[node.key()], node.key()
        census.append((len(expanded), sum(kids.values())))
    assert census == [(171, 341), (56, 110), (19, 187)]


def _digest(tree):
    # sha256 over the level counts and, level by level, each node's key,
    # depth, modulus, residues, deepest layer and parent key
    h = hashlib.sha256(repr(tree.level_counts()).encode())
    for node in tree.all_nodes():
        fields = (node.key(), node.depth_n, node.modulus, node.residues, node.deepest, tree.parent.get(node.key()))
        h.update(repr(fields).encode())
    return h.hexdigest()


def test_fixture_trees_match_their_digests(basilica9_tree, rabbit_root, cubic_root):
    # pinned from build_pullback_tree as it stood when it formatted every key
    # text afresh and merged children in dicts by key
    trees = (basilica9_tree, build_pullback_tree(rabbit_root, 8), build_pullback_tree(cubic_root, 4))
    assert [_digest(tree) for tree in trees] == [
        "0203ef408b3dc6b598e5f546d4ce036c9ba6b91af61e46cd3e0065a1d5d2abb6",
        "9dcd8d0fa3705abfd156a12f3035b42965b6fa08cf87ef5f58f35d303a768c3e",
        "e020d441f2e9083b50143cd45fa4f7b846473064fb7e0eca4ab72b6618f68baa",
    ]


def test_level_tables_carry_key_texts(basilica_root, rabbit_root, cubic_root, monkeypatch):
    # each table takes the last one's texts and no table: when a table starts,
    # every earlier one is gone.  A scaled class keeps the very text object
    # of the level above, and every text is the one _IntModel.text formats.
    # Census per tree: (texts in all its tables, texts carried)
    tables, texts = [], []  # weak references to a tree's tables; their texts

    def spy(node, level=None):
        if not tables or tables[-1]() is not level:
            gc.collect()
            assert all(table() is None for table in tables)
            assert level.prev is texts[-1] if texts else level.prev == {}
            tables.append(weakref.ref(level))
            texts.append(level.texts)
        return enumerate_children(node, level)

    monkeypatch.setattr(fdl_module, "enumerate_children", spy)
    census = []
    for root, depth in ((basilica_root, 9), (rabbit_root, 8), (cubic_root, 4)):
        build_pullback_tree(root, depth)
        d, carried = root.degree, 0
        for k, (above, level) in enumerate(zip([{}] + texts, texts)):
            fresh = placement_model(d, root.modulus * d**k, ())
            assert all(text == fresh.text(c) for c, text in level.items())
            assert all(level[tuple(d * x for x in c)] is text for c, text in above.items())
            carried += len(above)
        census.append((sum(map(len, texts)), carried))
        tables.clear()
        texts.clear()
    assert census == [(3770, 1635), (1180, 504), (320, 88)]


def test_deepest_preimages_are_no_vertices_below_depth_0(basilica9_tree, rabbit_root, cubic_root):
    # enumerate_children skips the vertex filter at depth n > 0: a class
    # holding a preimage of a deepest class t maps onto t, so it would sit at
    # depth n + 1.  Census over every expanded node: (preimage points,
    # vertices among them), all of those at depth 0
    census = []
    for tree in (basilica9_tree, build_pullback_tree(rabbit_root, 8), build_pullback_tree(cubic_root, 4)):
        points = vertices = 0
        for node in (n for level in tree.levels[:-1] for n in level):
            d, M = node.degree, node.modulus
            on = placement_model(d, M, node.residues).vertices
            hits = sum(x + k * M in on for c in node.deepest for k in range(d) for x in c)
            assert node.depth_n == 0 or hits == 0, node.key()
            points += d * sum(map(len, node.deepest))
            vertices += hits
        census.append((points, vertices))
    assert census == [(58144, 2), (14160, 3), (5346, 6)]


def test_a_level_table_serves_one_degree_and_modulus(basilica_tree, basilica_root, cubic_root, monkeypatch):
    calls = []  # (table, node): holding the tables keeps their ids apart

    def spy(node, level=None):
        calls.append((level, node))
        return enumerate_children(node, level)

    monkeypatch.setattr(fdl_module, "enumerate_children", spy)
    for root, depth in ((basilica_root, 6), (cubic_root, 3)):
        expanded = sum(len(level) for level in build_pullback_tree(root, depth).levels[:-1])
        assert len(calls) == expanded
        bound = {}
        for level, node in calls:
            assert (level.d, level.M) == (node.degree, node.modulus)
            bound.setdefault(id(level), set()).add((node.degree, node.modulus))
        assert len(bound) == depth and all(len(b) == 1 for b in bound.values())
        calls.clear()
    # a table of another modulus or degree is left alone, and changes nothing
    node = basilica_tree.levels[5][0]
    for other in (_Level(2, 2 * node.modulus), _Level(3, node.modulus)):
        got = enumerate_children(node, other)
        assert [_fields(k) for k in got] == [_fields(k) for k in enumerate_children(node)]
        assert not any(_tables_of(other))


def test_level_nodes_share_the_preimages_of_the_root_vertices(basilica_tree, rabbit_tree, cubic_tree):
    # every level-k node has the vertex set sigma^-k(V_0); the tables are
    # keyed by value, so a node off it still gets the fresh-table answer
    off = 0
    for tree in (basilica_tree, rabbit_tree, cubic_tree):
        d, root = tree.degree, tree.root
        v0 = {F(x, root.modulus) for c in root.residues for x in c}
        for k, level in enumerate(tree.levels):
            want = {(v + j) / d**k for v in v0 for j in range(d**k)}
            for node in level:
                assert {F(x, node.modulus) for c in node.residues for x in c} == want, node.key()
            table = _Level(d, level[0].modulus)
            for node in level:
                enumerate_children(node, table)
            for node in level:
                if len(node.deepest) < 2:
                    continue
                lost = node.deepest[0]
                residues = tuple(c for c in node.residues if c != lost)
                thin = FDL._node(d, node.depth_n, node.modulus, residues, node.deepest[1:], "thin")
                got = [_fields(kid) for kid in enumerate_children(thin, table)]
                assert got and got == [_fields(kid) for kid in enumerate_children(thin)], node.key()
                off += 1
    assert off == 201


@pytest.fixture()
def shape_listings(monkeypatch):
    """Counts calls of ``portraits.enumerate_all_portraits``, through every
    binding of it, as (i, n, shapes listed)."""
    calls = []

    def counted(i, n):
        shapes = enumerate_all_portraits(i, n)
        calls.append((i, n, len(shapes)))
        return shapes

    for name, module in list(sys.modules.items()):
        if name.startswith("lamkit") and getattr(module, "enumerate_all_portraits", 0) is enumerate_all_portraits:
            monkeypatch.setattr(module, "enumerate_all_portraits", counted)
    return calls


def test_only_free_regions_bind_portraits(basilica9_tree, cubic_tree, shape_listings):
    # each of the basilica tree's 170 free targets binds the 3 shapes of its
    # one region holding 4 of its points, 510 in all, and a forced target
    # binds none
    for node in basilica9_tree.all_nodes():
        enumerate_children(node)
    assert shape_listings == [(2, 2, 3)] * 170
    # in degree 3 a free region holds 2 of the 3 preimages of each vertex:
    # 26 free targets bind 4 shapes each
    shape_listings.clear()
    for node in cubic_tree.all_nodes():
        enumerate_children(node)
    assert shape_listings == [(2, 3, 4)] * 26


def _arc_case(a, b):
    # where b's vertices fall among the arcs of a
    arcs = {bisect(a, v) for v in b}
    if len({i % len(a) for i in arcs}) > 1:
        return "interleaved"
    if arcs == {0, len(a)}:
        return "wrap arc, both ends"
    return "wrap arc, one end" if arcs <= {0, len(a)} else "nested"


def test_block_clash_matches_the_sweep():
    rng = random.Random(18)
    cases = {}
    for _ in range(5000):
        na, nb = rng.randint(2, 5), rng.randint(2, 5)
        points = rng.sample(range(rng.randint(na + nb, 16)), na + nb)
        a, b = tuple(sorted(points[:na])), tuple(sorted(points[na:]))
        crossing = _sweep(_hull_edges(a) + _hull_edges(b))[0] is not None
        assert _blocks_cross(a, b) == _blocks_cross(b, a) == crossing, (a, b)
        case = _arc_case(a, b)
        assert (case == "interleaved") == crossing
        cases[case] = cases.get(case, 0) + 1
    assert set(cases) == {"interleaved", "wrap arc, both ends", "wrap arc, one end", "nested"}
    assert min(cases.values()) >= 100, cases


def test_nodes_carry_their_deepest_layer(basilica_tree, rabbit_tree, cubic_tree):
    # tree nodes get it from their parent's new blocks, validated ones from
    # the depth walk; either way it is the depth walk's answer
    for tree in (basilica_tree, rabbit_tree, cubic_tree):
        d = tree.degree
        for node in tree.all_nodes():
            for fdl in (node, FDL(node.lamination)):
                model = placement_model(d, fdl.modulus, fdl.residues)
                scaled = [tuple(d * x for x in c) for c in fdl.deepest]
                assert scaled == _deepest(model, node.depth_n), node.key()


def test_fdl_takes_its_depth_from_validation(rabbit_root, basilica_tree, cubic_tree):
    # FDL(lam) derives the depth parameter, so a tree node's lamination
    # gives back the node itself, and the same children
    def state(f):
        return f.key(), f.depth_n, f.modulus, f.residues, f.deepest

    rabbit_tree = build_pullback_tree(rabbit_root, 6)
    for tree, depth in ((basilica_tree, 6), (rabbit_tree, 6), (cubic_tree, 3)):
        for node in (n for lv in tree.levels[: depth + 1] for n in lv):
            fdl = FDL(node.lamination)
            assert state(fdl) == state(node)
            assert list(map(state, enumerate_children(fdl))) == list(map(state, enumerate_children(node)))
    witnesses = (
        "axiom 2: critical leaf (0,1/2); axiom 3: image of (0,1/2) is not a leaf; "
        "axiom 4: class image chain leaves the lamination; axiom 5: not evaluated"
    )
    with pytest.raises(FdlError, match=f"^not a finite dynamical lamination: {re.escape(witnesses)}$"):
        FDL(ClassLamination.create(2, [PolygonClass((F(0), F(1, 2)))]))


def test_residue_keys_match_fraction_keys(basilica_tree, rabbit_tree, cubic_tree):
    for tree in (basilica_tree, rabbit_tree, cubic_tree):
        for node in tree.all_nodes():
            assert node.key() == canonical_form(node.lamination) == _fraction_key(node.lamination)
    empty = ClassLamination(3, frozenset())
    assert canonical_form(empty) == _fraction_key(empty) == "3"
    zero = ClassLamination.create(2, [PolygonClass((F(0), F(1, 4)))])
    assert canonical_form(zero) == _fraction_key(zero) == "2|0,1/4"


def test_each_child_has_one_parent(basilica_tree, rabbit_tree, cubic_tree):
    # a child minus its deepest layer is its parent, so sibling sets are
    # disjoint and each level holds exactly the children of the one above
    for tree in (basilica_tree, rabbit_tree, cubic_tree):
        for above, level in zip(tree.levels, tree.levels[1:]):
            kids = [k.key() for node in above for k in enumerate_children(node)]
            assert len(kids) == len(set(kids)) == len(level)
            assert sorted(kids) == [node.key() for node in level]
            for node in level:
                parent = [p for p in above if p.lamination.classes < node.lamination.classes]
                assert [p.key() for p in parent] == [tree.parent[node.key()]]


def test_tree_nodes_build_their_lamination_on_demand(basilica_tree, rabbit_tree, cubic_tree):
    # nodes carry sorted residues mod root.modulus * d**n, in key order
    for tree in (basilica_tree, rabbit_tree, cubic_tree):
        root, d = tree.root, tree.degree
        for level, nodes in enumerate(tree.levels):
            for node in nodes:
                assert node.modulus == root.modulus * d**level
                assert list(node.residues) == sorted(node.residues)
                model = placement_model(d, node.modulus, node.residues)
                assert [model.text(c) for c in model.classes] == node.key().split("|")[1:]
                M = node.modulus
                classes = {PolygonClass(tuple(F(x, M) for x in c)) for c in node.residues}
                assert classes == node.lamination.classes
    for tree in (basilica_tree, rabbit_tree, cubic_tree):
        for kid in enumerate_children(tree.levels[-2][0]):
            assert kid._lamination is None and kid.degree == tree.degree
        for node in tree.all_nodes():
            lam = node.lamination
            assert lam is node.lamination and lam.degree == node.degree
            again = FDL(lam)
            assert again == node and hash(again) == hash(node)
            degree, *parts = node.key().split("|")
            rebuilt = ClassLamination.create(
                int(degree), [PolygonClass(tuple(map(F, p.split(",")))) for p in parts]
            )
            assert lam.classes == rebuilt.classes


@pytest.fixture()
def residue_conversions(monkeypatch):
    """Counts calls of ``core._class_residues``, through every binding of it."""
    calls = []

    def counted(polys):
        calls.append(len(polys))
        return _class_residues(polys)

    for name, module in list(sys.modules.items()):
        if name.startswith("lamkit") and getattr(module, "_class_residues", 0) is _class_residues:
            monkeypatch.setattr(module, "_class_residues", counted)
    return calls


def test_a_loaded_lamination_converts_to_residues_once(basilica_tree, residue_conversions):
    docs = [dumps(save_lamination(n.lamination)) for n in basilica_tree.levels[6]]
    residue_conversions.clear()
    for doc in docs:
        lam = load_lamination(doc)
        lam.check()
        assert validate_fdl(lam).valid and criticality_audit(lam).passed
        assert dumps(save_lamination(lam)) == doc
        canonical_form(lam)
    assert len(residue_conversions) == len(docs) == 21


def test_tree_nodes_never_convert_back_to_residues(basilica_root, residue_conversions):
    tree = build_pullback_tree(basilica_root, 5)  # fresh nodes, no lamination built yet
    residue_conversions.clear()
    for node in list(tree.all_nodes())[1:]:
        lam = node.lamination
        assert validate_fdl(lam).depth_n == node.depth_n
        criticality_audit(lam)
        lam.sorted_classes()
    hyperbolic_approx(build_pullback_tree(basilica_root, 1).levels[1][0], 4)
    assert residue_conversions == []


def test_trusted_laminations_match_checked_ones(basilica_tree, rabbit_tree, cubic_tree):
    # each node's twin keeps the same classes mod three times its modulus,
    # which is no lcm of denominators
    def tripled(classes):
        return tuple(tuple(3 * x for x in c) for c in classes)

    for tree, depth in ((basilica_tree, 6), (rabbit_tree, 5), (cubic_tree, 2)):
        for node in (n for lv in tree.levels[: depth + 1] for n in lv):
            M, d, n = node.modulus, node.degree, node.depth_n
            twin = FDL._node(d, n, 3 * M, tripled(node.residues), tripled(node.deepest), node.key())
            for a in (node.lamination, twin.lamination):
                b = ClassLamination.create(d, a.classes)
                assert a.sorted_classes() == b.sorted_classes()
                assert canonical_form(a) == canonical_form(b) == node.key()
                assert validate_fdl(a) == validate_fdl(b)
                assert criticality_audit(a) == criticality_audit(b)
                fa, fb = FDL(a), FDL(b)
                assert (fa.modulus, fa.residues, fa.deepest, fa.key()) == (
                    fb.modulus, fb.residues, fb.deepest, fb.key()
                )


def _failing_axiom_laminations():
    # the laminations of the failing-axiom tests above, whose check passes
    u = PolygonClass((F(9, 28), F(11, 28), F(15, 28)))
    hexagon = PolygonClass((F(1, 14), F(1, 7), F(2, 7), F(4, 7), F(9, 14), F(11, 14)))
    cubic_root = [PolygonClass((F(1, 26), F(3, 26), F(9, 26))), PolygonClass((F(7, 13), F(8, 13), F(11, 13)))]
    cubic_pair = [PolygonClass((F(7, 39), F(8, 39), F(11, 39))), PolygonClass((F(20, 39), F(34, 39), F(37, 39)))]
    return [
        ClassLamination.create(2, [hexagon]),
        ClassLamination.create(2, [PolygonClass((F(0), F(1, 2)))]),
        ClassLamination.create(2, [RABBIT, SIBLING, u]),
        ClassLamination.create(2, [PolygonClass((F(1, 7), F(2, 7), F(4, 7), F(9, 14)))]),
        ClassLamination.create(3, [PolygonClass((F(0), F(1, 8), F(3, 8)))]),
        ClassLamination.create(3, cubic_root + cubic_pair),
    ]


def test_a_lamination_model_is_its_own_view(basilica_tree, rabbit_root, cubic_tree):
    # a lamination's cached model holds its view mod its own M, unscaled;
    # swapped for the d-fold placement frame of the same view, it gives the
    # same key, validation report and audit: scaling changes none of them
    rabbit_tree = build_pullback_tree(rabbit_root, 7)
    nodes = [n.lamination for t in (basilica_tree, rabbit_tree, cubic_tree) for n in t.all_nodes()]
    lams = nodes + [load_lamination(save_lamination(lam)) for lam in nodes] + _failing_axiom_laminations()
    invalid = 0
    for lam in lams:
        M, keys, _ = lam._view
        assert lam._model.D == M and lam._model.classes == list(keys)
        own = canonical_form(lam), validate_fdl(lam), criticality_audit(lam)
        vars(lam)["_model"] = placement_model(lam.degree, M, keys)
        assert (canonical_form(lam), validate_fdl(lam), criticality_audit(lam)) == own
        invalid += not own[1].valid
    assert (len(lams), invalid) == (498, 6)
