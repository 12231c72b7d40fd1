"""Trapped/free criticality, the refinement relation, and generational graphs.

Trapped criticality counts the covering excess held inside a lamination's
polygons; free criticality counts the excess left in its round gaps; the
two always sum to d - 1 once every gap has a degree.  The generational
graph of one pullback-tree level draws an edge a -> b exactly when b traps
one more unit of criticality than a and a's classes refine b's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    DEGREE_KNOWN,
    covering_degree,
    gap_decomposition,
    gap_degree,
)
from .fdl import FDL, PullbackTree


class ParamGraphError(ValueError):
    pass


@dataclass(frozen=True)
class CriticalityRecord:
    trapped: int
    free: Optional[int]  # None when a gap without a degree blocks the count
    degree: int

    @property
    def consistent(self) -> bool:
        return self.free is not None and self.trapped + self.free == self.degree - 1


def criticality(fdl: FDL) -> CriticalityRecord:
    """Trapped and free criticality of a lamination.

    trapped = sum over classes of (covering degree - 1); free = sum over
    round gaps of (degree - 1).  Free is None when some round gap has no
    degree (typical for depth-0 roots with partly critical gaps).
    """
    lam = fdl.lamination
    d = lam.degree
    trapped = 0
    for c in lam.classes:
        cov = covering_degree(c, d)
        if not cov.has_degree:
            raise ParamGraphError(f"class {c} has no degree; criticality undefined")
        trapped += cov.degree - 1
    free = 0
    for gap in gap_decomposition(lam).round_gaps:
        status = gap_degree(gap, d)
        if status.kind != DEGREE_KNOWN:
            return CriticalityRecord(trapped, None, d)
        free += status.degree - 1
    return CriticalityRecord(trapped, free, d)


def refines(a: FDL, b: FDL) -> bool:
    """True iff every class of ``a`` sits inside some class of ``b``."""
    if a.degree != b.degree:
        raise ParamGraphError("refinement compares laminations of equal degree")
    b_classes = [set(c.vertices) for c in b.lamination.classes]
    for c in a.lamination.classes:
        verts = set(c.vertices)
        if not any(verts <= other for other in b_classes):
            return False
    return True


@dataclass
class GenGraph:
    level: int
    vertices: list[str]  # canonical keys, sorted
    edges: list[tuple[str, str]]
    trapped: dict
    nodes: dict  # key -> FDL

    def successors(self, key: str) -> list[str]:
        return [b for a, b in self.edges if a == key]


def generational_graph(tree: PullbackTree, level: int) -> GenGraph:
    """Directed graph on one tree level; edges step trapped criticality by 1."""
    if level >= len(tree.levels):
        raise ParamGraphError(f"tree has no level {level}")
    nodes = {f.key(): f for f in tree.levels[level]}
    keys = sorted(nodes)
    trapped = {k: criticality(nodes[k]).trapped for k in keys}
    edges = []
    for ka in keys:
        for kb in keys:
            if ka == kb:
                continue
            if trapped[kb] == trapped[ka] + 1 and refines(nodes[ka], nodes[kb]):
                edges.append((ka, kb))
    return GenGraph(level, keys, sorted(edges), trapped, nodes)


def transitive_closure(vertices: list[str], edges: list[tuple[str, str]]) -> set[tuple[str, str]]:
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
    closure = set()
    for start in vertices:
        stack = list(adj[start])
        seen = set()
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            closure.add((start, v))
            stack.extend(adj[v])
    return closure


def closure_is_refinement(graph: GenGraph) -> bool:
    """Does the edge closure recover strict trapped-monotone refinement?"""
    closure = transitive_closure(graph.vertices, graph.edges)
    relation = set()
    for ka in graph.vertices:
        for kb in graph.vertices:
            if ka == kb:
                continue
            if graph.trapped[kb] > graph.trapped[ka] and refines(
                graph.nodes[ka], graph.nodes[kb]
            ):
                relation.add((ka, kb))
    return closure == relation
