import re
from fractions import Fraction as F

import pytest

from lamkit.core import GAP_POLYGON, PolygonClass, criticality_audit
from lamkit.fdl import FDL
from lamkit.paramgraph import (
    ParamGraphError,
    closure_is_refinement,
    criticality,
    generational_graph,
    refines,
    transitive_closure,
)


def test_criticality_rabbit_root(rabbit_root):
    rec = criticality(rabbit_root)
    assert rec.trapped == 0
    assert rec.free is None  # partly critical gap at the root


def test_criticality_along_tree(rabbit_tree):
    for lv in range(1, 6):
        for node in rabbit_tree.levels[lv]:
            rec = criticality(node)
            assert rec.consistent, (lv, node.key())
    trapped4 = sorted(criticality(n).trapped for n in rabbit_tree.levels[4])
    assert trapped4 == [0, 0, 0, 1]


def test_criticality_rejects_a_class_without_degree():
    # {0, 1/8, 3/8} maps onto itself under sigma_3 with reversed orientation
    tri = PolygonClass((F(0), F(1, 8), F(3, 8)))
    node = FDL._node(3, 0, 8, ((0, 1, 3),), ((0, 1, 3),), "3|0,1/8,3/8")
    with pytest.raises(ParamGraphError, match=re.escape(f"class {tri} has no degree")):
        criticality(node)


def test_refines_reflexive_and_examples(rabbit_tree):
    level4 = rabbit_tree.levels[4]
    hexa = [n for n in level4 if criticality(n).trapped == 1]
    tris = [n for n in level4 if criticality(n).trapped == 0]
    assert len(hexa) == 1 and len(tris) == 3
    for n in level4:
        assert refines(n, n)
    for t in tris:
        assert refines(t, hexa[0])
        assert not refines(hexa[0], t)


def test_refines_partial_order_per_level(rabbit_tree):
    for lv in (4, 5):
        nodes = rabbit_tree.levels[lv]
        for a in nodes:
            for b in nodes:
                if refines(a, b) and refines(b, a):
                    assert a.key() == b.key()
                for c in nodes:
                    if refines(a, b) and refines(b, c):
                        assert refines(a, c)


def test_generational_graph_level4(rabbit_tree):
    g = generational_graph(rabbit_tree, 4)
    assert len(g.vertices) == 4 and len(g.edges) == 3
    for a, b in g.edges:
        assert g.trapped[b] == g.trapped[a] + 1
    # acyclic by construction: trapped strictly increases
    closure = transitive_closure(g.vertices, g.edges)
    assert all((b, a) not in closure for a, b in closure)
    assert closure_is_refinement(g)


@pytest.mark.parametrize("level", [-1, 6])
def test_generational_graph_rejects_missing_levels(rabbit_tree, level):
    with pytest.raises(ParamGraphError, match=f"tree has no level {level}"):
        generational_graph(rabbit_tree, level)


def test_generational_graph_trivial_levels(rabbit_tree):
    for lv in (0, 1, 2, 3):
        g = generational_graph(rabbit_tree, lv)
        assert len(g.vertices) == 1 and g.edges == []
        assert closure_is_refinement(g)


def test_generational_graph_level5(rabbit_tree):
    g = generational_graph(rabbit_tree, 5)
    assert len(g.vertices) == 7
    assert closure_is_refinement(g)
    for a, b in g.edges:
        assert g.trapped[b] == g.trapped[a] + 1 and refines(g.nodes[a], g.nodes[b])


def test_generational_graph_level5_golden(rabbit_tree):
    # frozen structure of the fifth-generation graph, in canonical key order
    g = generational_graph(rabbit_tree, 5)
    idx = {k: i for i, k in enumerate(g.vertices)}
    assert [g.trapped[k] for k in g.vertices] == [1, 0, 0, 0, 1, 0, 0]
    assert sorted((idx[a], idx[b]) for a, b in g.edges) == [
        (1, 0),
        (2, 4),
        (3, 4),
        (5, 0),
        (5, 4),
        (6, 0),
    ]


def _set_refines(a, b):
    """Reference refinement: every vertex set of a is a subset of one of b's."""
    b_classes = [set(c.vertices) for c in b.lamination.classes]
    for c in a.lamination.classes:
        verts = set(c.vertices)
        if not any(verts <= other for other in b_classes):
            return False
    return True


def _audit_trapped(node):
    """Reference trapped criticality: the polygon entries of a full audit."""
    audit = criticality_audit(node.lamination)
    return sum(e.status.degree - 1 for e in audit.entries if e.kind == GAP_POLYGON)


def test_graph_matches_set_refinement_and_audit_oracles(basilica_tree, rabbit_tree, cubic_tree):
    trapped_values, longer_steps = set(), 0
    for tree in (basilica_tree, rabbit_tree, cubic_tree):
        for lv in range(len(tree.levels)):
            # the graph reads residues as they are: one level, one modulus
            assert len({n.modulus for n in tree.levels[lv]}) == 1
            g = generational_graph(tree, lv)
            nodes, keys = g.nodes, g.vertices
            trapped = {k: _audit_trapped(nodes[k]) for k in keys}
            assert g.trapped == trapped
            relation = {
                (a, b)
                for a in keys
                for b in keys
                if trapped[b] > trapped[a] and _set_refines(nodes[a], nodes[b])
            }
            assert g.related == relation
            edges = [(a, b) for a in keys for b in keys if trapped[b] == trapped[a] + 1]
            assert g.edges == [e for e in edges if e in relation]
            closed = transitive_closure(keys, g.edges) == relation
            assert closure_is_refinement(g) == closed
            trapped_values |= set(trapped.values())
            longer_steps += sum(trapped[b] > trapped[a] + 1 for a, b in relation)
    # the cubic levels trap 0, 1 and 2, so ">" and "+1" pick different pairs
    assert trapped_values == {0, 1, 2} and longer_steps > 0


def test_refines_matches_set_oracle(rabbit_tree, cubic_tree):
    # across levels too, where a class of a may miss b entirely
    for tree in (rabbit_tree, cubic_tree):
        nodes = list(tree.all_nodes())
        for a in nodes:
            for b in nodes:
                assert refines(a, b) == _set_refines(a, b), (a.key(), b.key())
