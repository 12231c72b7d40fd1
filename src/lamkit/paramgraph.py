"""Trapped/free criticality, the refinement relation, and generational graphs.

Trapped criticality is the covering excess of a lamination's classes, free
criticality the excess in its round gaps (from the audit); they sum to d - 1
once every gap has a degree.  One relation on a tree level holds the pairs
(a, b) where b traps more than a and a's classes refine b's; the graph draws
the pairs one unit apart and keeps the relation as ``GenGraph.related``;
the transitive closure of the edges must give it back.  Both read the
residues that tree nodes store: one tree level shares one modulus, and only
:func:`refines`, which compares any two levels, scales nodes to an lcm.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional

from .core import _covering, criticality_audit
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


def _trapped(fdl: FDL) -> int:
    """Sum over classes of (covering degree - 1), on the node's residues."""
    degrees = [_covering(fdl.modulus, c, fdl.degree).degree for c in fdl.residues]
    if None in degrees:
        bad = fdl.lamination.sorted_classes()[degrees.index(None)]  # residues sort alike
        raise ParamGraphError(f"class {bad} has no degree; criticality undefined")
    return sum(k - 1 for k in degrees)


def criticality(fdl: FDL) -> CriticalityRecord:
    """Trapped and free criticality of a lamination; free is None when some
    round gap has no degree (typical for depth-0 roots with partly critical
    gaps)."""
    trapped = _trapped(fdl)
    audit = criticality_audit(fdl.lamination)
    free = audit.excess - trapped if audit.applicable else None
    return CriticalityRecord(trapped, free, audit.degree)


def refines(a: FDL, b: FDL) -> bool:
    """True iff every class of ``a`` sits inside some class of ``b``."""
    if a.degree != b.degree:
        raise ParamGraphError("refinement compares laminations of equal degree")
    M = lcm(a.modulus, b.modulus)
    ca, cb = ([[x * (M // f.modulus) for x in c] for c in f.residues] for f in (a, b))
    return _inside(ca, _class_index(cb))


def _class_index(classes: list[list[int]]) -> dict[int, int]:
    return {v: i for i, c in enumerate(classes) for v in c}


def _inside(classes: list[list[int]], index: dict[int, int]) -> bool:
    """Do all vertices of each class map to one class in ``index``?"""
    homes = ({index.get(v) for v in c} for c in classes)
    return all(len(h) == 1 and None not in h for h in homes)


def _refinement(nodes: dict, trapped: dict) -> set[tuple[str, str]]:
    """Key pairs (a, b) where b traps more criticality than a and a refines b.
    ``nodes`` is one tree level, so they share one modulus (``d`` times their parents')."""
    maps = ((kb, _class_index(b.residues)) for kb, b in nodes.items())  # built one at a time
    pairs = ((ka, kb, index) for kb, index in maps for ka in nodes if trapped[ka] < trapped[kb])
    return {(ka, kb) for ka, kb, index in pairs if _inside(nodes[ka].residues, index)}


@dataclass
class GenGraph:
    level: int
    vertices: list[str]  # canonical keys, sorted
    edges: list[tuple[str, str]]
    trapped: dict
    nodes: dict  # key -> FDL
    related: set  # key pairs (a, b): b traps more than a and a refines b


def generational_graph(tree: PullbackTree, level: int) -> GenGraph:
    """Directed graph on one tree level; edges step trapped criticality by 1."""
    if not 0 <= level < len(tree.levels):
        raise ParamGraphError(f"tree has no level {level}")
    nodes = {f.key(): f for f in tree.levels[level]}
    keys = sorted(nodes)
    trapped = {k: _trapped(nodes[k]) for k in keys}
    related = _refinement(nodes, trapped)
    edges = sorted((a, b) for a, b in related if trapped[b] == trapped[a] + 1)
    return GenGraph(level, keys, edges, trapped, nodes, related)


def transitive_closure(vertices: list[str], edges: list[tuple[str, str]]) -> set[tuple[str, str]]:
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
    closure = set()
    for start in vertices:
        stack = list(adj[start])
        while stack:
            v = stack.pop()
            if (start, v) not in closure:
                closure.add((start, v))
                stack.extend(adj[v])
    return closure


def closure_is_refinement(graph: GenGraph) -> bool:
    """Does the edge closure recover strict trapped-monotone refinement?"""
    return transitive_closure(graph.vertices, graph.edges) == graph.related
