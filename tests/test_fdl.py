from fractions import Fraction as F
from itertools import combinations

import pytest

from lamkit.circle import preimages
from lamkit.core import Chord, ClassLamination, LaminationError, PolygonClass
from lamkit.fdl import (
    FDL,
    FdlError,
    build_pullback_tree,
    canonical_form,
    classes_from_chords,
    deepest_classes,
    enumerate_children,
    root_fdl,
    validate_fdl,
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
    with pytest.raises(FdlError):
        root_fdl(2, [RABBIT, SIBLING])
    with pytest.raises(FdlError, match=r"axiom 3: image of \(2/7,4/7\) is not a leaf"):
        root_fdl(2, [PolygonClass((F(1, 7), F(2, 7), F(4, 7), F(9, 14)))])


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


def test_rabbit_tree_structure(rabbit_tree):
    assert rabbit_tree.level_counts() == [1, 1, 1, 1, 4, 7]
    for lv, nodes in enumerate(rabbit_tree.levels):
        for node in nodes:
            assert node.depth_n == lv
    for parent, child in rabbit_tree.edges():
        assert parent.lamination.classes < child.lamination.classes
        d = child.degree
        images = {
            c.image(d) for c in child.lamination.classes if c.image(d) is not None
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
    pts = sorted(pts - lam.all_vertices())
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
            found.add(FDL(cand, rep.depth_n).key())
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
    images = {c.image(d) for c in lam.classes}
    return [c for c in lam.sorted_classes() if c not in periodic and c not in images]


def test_deepest_classes_match_independent_answer(rabbit_tree, basilica_root):
    trees = [rabbit_tree, build_pullback_tree(basilica_root, 6)]
    assert [len(t.levels) for t in trees] == [6, 7]
    for tree in trees:
        for node in tree.all_nodes():
            assert deepest_classes(node) == _expected_deepest(node), node.key()
