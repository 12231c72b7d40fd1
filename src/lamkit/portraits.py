"""Sibling portraits: enumeration, counting, and concrete placement.

A portrait shape lives on ``i*n`` cyclically placed abstract points whose
labels repeat ``0, 1, ..., n-1``.  Its blocks partition all points into
non-crossing polygons, and walking any block counterclockwise steps the
label by one each time, so every block carries each label equally often.
Blocks of size n are one-to-one; larger blocks cover with higher degree.

Shapes are enumerated by backtracking over the cyclic point sequence (the
first unused point starts a block; each extension splits off independent
segments), counted in closed form by the Fuss-Catalan formula, put in
bijection with full n-ary trees, reduced across label removal, and finally
bound to concrete circle geometry by :func:`bind_shape`, which decides
crossings on integer ranks of the points in circular order.  Child
enumeration and :func:`instantiate_portrait` share that binder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb
from typing import Iterable, NamedTuple, Optional, Sequence

from .circle import Angle, check_degree, preimages, sigma
from .core import ClassLamination, PolygonClass, RoundGap


class PortraitError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class PortraitShape:
    """Non-crossing label-respecting partition of i*n cyclic points."""

    i: int
    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(sorted(tuple(sorted(b)) for b in self.blocks))
        object.__setattr__(self, "blocks", blocks)

    def label(self, pos: int) -> int:
        return pos % self.n

    @property
    def is_injective(self) -> bool:
        return all(len(b) == self.n for b in self.blocks)

    def block_degrees(self) -> tuple[int, ...]:
        return tuple(len(b) // self.n for b in self.blocks)

    def __str__(self):
        return " ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)


def count_injective(i: int, n: int) -> int:
    """Number of one-to-one portraits: C(n*i, i) / ((n-1)*i + 1), exactly."""
    _check_in(i, n)
    num = comb(n * i, i)
    den = (n - 1) * i + 1
    assert num % den == 0
    return num // den


def count_all(i: int, n: int) -> int:
    """Number of all portraits, equal to count_injective(i, n+1)."""
    _check_in(i, n)
    return count_injective(i, n + 1)


def _check_in(i: int, n: int):
    if i < 1:
        raise PortraitError(f"ambient degree i must be >= 1, got {i}")
    if n < 2:
        raise PortraitError(f"polygon size n must be >= 2, got {n}")


@lru_cache(maxsize=None)
def _enumerate(i: int, n: int, injective: bool) -> tuple[PortraitShape, ...]:
    total = i * n

    def label(pos):
        return pos % n

    results: list[tuple[tuple[int, ...], ...]] = []

    def solve(region: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
        # region is a circularly contiguous run of free points, in order
        if not region:
            return [()]
        out = []
        first = region[0]

        def extend(block, segments, rest):
            # block may close whenever labels wrap around completely
            if len(block) % n == 0 and (not injective or len(block) == n):
                pieces = [solve(seg) for seg in segments + [rest]]
                for combo in product(*pieces):
                    merged = tuple(b for part in combo for b in part)
                    out.append((tuple(block),) + merged)
            if injective and len(block) == n:
                return
            need = (label(block[-1]) + 1) % n
            for idx, q in enumerate(rest):
                if label(q) == need:
                    extend(block + [q], segments + [region_slice(rest, idx)], rest[idx + 1 :])

        def region_slice(rest, idx):
            return tuple(rest[:idx])

        extend([first], [], tuple(region[1:]))
        return out

    for blocks in solve(tuple(range(total))):
        results.append(tuple(sorted(tuple(sorted(b)) for b in blocks)))
    shapes = sorted({PortraitShape(i, n, b) for b in results}, key=lambda s: s.blocks)
    return tuple(shapes)


def enumerate_injective_portraits(i: int, n: int) -> list[PortraitShape]:
    """All one-to-one portraits, canonically ordered."""
    _check_in(i, n)
    return list(_enumerate(i, n, injective=True))


def enumerate_all_portraits(i: int, n: int) -> list[PortraitShape]:
    """All portraits including higher-degree blocks, canonically ordered."""
    _check_in(i, n)
    return list(_enumerate(i, n, injective=False))


# --- bijection with full n-ary trees ------------------------------------------

Leaf = None  # a full n-ary tree is either None or a tuple of n subtrees


def internal_count(tree) -> int:
    if tree is Leaf:
        return 0
    return 1 + sum(internal_count(c) for c in tree)


def portrait_to_tree(shape: PortraitShape):
    """Bijection onto full n-ary trees with i internal nodes.

    The block containing the first point of a region becomes an internal
    node; its vertices split the region into n segments which yield the
    children in counterclockwise order.
    """
    if not shape.is_injective:
        raise PortraitError("tree bijection is defined for one-to-one portraits only")
    n = shape.n
    block_of = {}
    for b in shape.blocks:
        for p in b:
            block_of[p] = b

    def build(region: tuple[int, ...]):
        if not region:
            return Leaf
        b = block_of[region[0]]
        if b[0] != region[0]:
            raise PortraitError("region does not start its own block; shape is not non-crossing")
        segments = []
        for k in range(n):
            lo = b[k]
            hi = b[k + 1] if k + 1 < n else None
            seg = tuple(p for p in region if p > lo and (hi is None or p < hi) and p not in b)
            segments.append(seg)
        return tuple(build(seg) for seg in segments)

    return build(tuple(range(shape.i * shape.n)))


def tree_to_portrait(tree, n: int) -> PortraitShape:
    """Inverse of :func:`portrait_to_tree`."""
    i = internal_count(tree)
    if i < 1:
        raise PortraitError("tree must have at least one internal node")
    blocks = []

    def build(tree, start: int) -> int:
        # returns the next free position after laying out this subtree
        if tree is Leaf:
            return start
        pos = start
        verts = []
        for k, child in enumerate(tree):
            verts.append(pos)
            pos = build(child, pos + 1)
        blocks.append(tuple(verts))
        return pos

    end = build(tree, 0)
    assert end == i * n
    return PortraitShape(i, n, tuple(blocks))


# --- reduction across label removal -------------------------------------------


def reduce_portrait(shape: PortraitShape, drop_label: Optional[int] = None) -> PortraitShape:
    """Collapse an injective portrait over n+1 labels to a portrait over n.

    Blocks are grouped transitively by following the point right after each
    block's dropped-label vertex; each group merges, the dropped vertices
    disappear, and the remaining points are reindexed.  This map is a
    bijection from one-to-one (i, n+1)-portraits onto all (i, n)-portraits.
    """
    if not shape.is_injective:
        raise PortraitError("reduce_portrait needs a one-to-one portrait")
    n_plus = shape.n
    if n_plus < 3:
        raise PortraitError("need at least 3 labels to reduce")
    X = n_plus - 1 if drop_label is None else drop_label
    if not 0 <= X < n_plus:
        raise PortraitError(f"label {X} out of range")
    total = shape.i * n_plus

    block_index = {}
    for bi, b in enumerate(shape.blocks):
        for p in b:
            block_index[p] = bi

    parent = list(range(len(shape.blocks)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for bi, b in enumerate(shape.blocks):
        (x_pos,) = [p for p in b if p % n_plus == X]
        succ = block_index[(x_pos + 1) % total]
        ra, rb = find(bi), find(succ)
        if ra != rb:
            parent[ra] = rb

    kept = [p for p in range(total) if p % n_plus != X]
    new_index = {p: k for k, p in enumerate(kept)}
    groups: dict[int, list[int]] = {}
    for bi, b in enumerate(shape.blocks):
        groups.setdefault(find(bi), []).extend(p for p in b if p % n_plus != X)
    new_blocks = tuple(tuple(sorted(new_index[p] for p in g)) for g in groups.values())
    return PortraitShape(shape.i, n_plus - 1, new_blocks)


# --- concrete placement --------------------------------------------------------


@dataclass(frozen=True)
class Placement:
    """Outcome of binding a shape to geometry: new classes plus any reuse."""

    new_classes: tuple[PolygonClass, ...]
    reused: tuple[PolygonClass, ...]


def portrait_points(target: PolygonClass, d: int, region: Optional[RoundGap] = None) -> list[Angle]:
    """Preimages of the target's vertices available for a portrait.

    For the whole disk these are all d preimages per vertex; inside a round
    gap, the ones lying in its closed basis.  Points come back in circular
    order starting at the smallest point whose image is the target's first
    vertex, and their labels must repeat 0..n-1 cyclically.
    """
    check_degree(d)
    pts = []
    for v in target.vertices:
        for p in preimages(v, d):
            if region is None or region.contains_point(p):
                pts.append(p)
    pts.sort()
    if not pts:
        raise PortraitError("no preimage points available in the region")
    label = {p: target.vertices.index(sigma(p, d)) for p in pts}
    anchors = [p for p in pts if label[p] == 0]
    if not anchors:
        raise PortraitError("region holds no preimage of the target's first vertex")
    anchor = anchors[0]
    ordered = sorted(pts, key=lambda p: (p - anchor) % 1)
    n = len(target)
    if len(ordered) % n != 0:
        raise PortraitError("preimage points do not split evenly over the target's vertices")
    if any(label[p] != k % n for k, p in enumerate(ordered)):
        raise PortraitError("preimage labels do not repeat cyclically in the region")
    return ordered


class RankedContext(NamedTuple):
    """Fixed lamination data a placement must respect, in integer ranks.

    Crossing depends only on circular order, so ``rank`` numbers the
    context vertices and the portrait points in increasing order and the
    context's hull edges become rank pairs.
    """

    rank: dict[Angle, int]
    existing: set[tuple[Angle, ...]]  # vertex tuples of the context classes
    vertices: set[Angle]
    edges: tuple[tuple[int, int], ...]


def rank_context(context: ClassLamination, points: Iterable[Angle]) -> RankedContext:
    """Rank the context's vertices together with the given portrait points."""
    vertices = context.all_vertices()
    rank = {a: i for i, a in enumerate(sorted(vertices | set(points)))}
    return RankedContext(
        rank,
        {c.vertices for c in context.classes},
        vertices,
        tuple((rank[e.a], rank[e.b]) for e in context.all_edges()),
    )


def _ranks_cross(e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    # chords as increasing rank pairs; sharing an endpoint is not crossing
    a1, b1 = e1
    a2, b2 = e2
    if a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
        return False
    return (a1 < a2 < b1) != (a1 < b2 < b1)


def bind_shape(
    shape: PortraitShape, points: Sequence[Angle], context: RankedContext
) -> Optional[tuple[list, list, list]]:
    """Place a shape's blocks onto concrete points against fixed context data.

    A block that exactly reproduces a context class is reused; one that
    otherwise touches a context vertex or crosses a context edge makes the
    placement fail.  Returns ``(new vertex tuples, reused vertex tuples,
    rank edges of the new blocks)``, or None on conflict.
    """
    new, reused, new_edges = [], [], []
    for block in shape.blocks:
        vs = tuple(sorted(points[p] for p in block))
        if vs in context.existing:
            reused.append(vs)
            continue
        if any(v in context.vertices for v in vs):
            return None
        rs = [context.rank[v] for v in vs]
        edges = list(zip(rs, rs[1:]))
        if len(rs) > 2:
            edges.append((rs[0], rs[-1]))
        if any(_ranks_cross(e, ce) for e in edges for ce in context.edges):
            return None
        new.append(vs)
        new_edges.extend(edges)
    return new, reused, new_edges


def instantiate_portrait(
    shape: PortraitShape,
    target: PolygonClass,
    region: Optional[RoundGap],
    context: ClassLamination,
) -> Optional[Placement]:
    """Bind an abstract shape to the preimage points of ``target``.

    ``region=None`` means the whole disk of degree ``context.degree``.
    Returns None when a block would cross a context edge or would partially
    overlap an existing class; a block that exactly reproduces an existing
    class is reported as reused rather than new.
    """
    d = context.degree
    points = portrait_points(target, d, region)
    if len(points) != shape.i * shape.n:
        raise PortraitError(
            f"region supplies {len(points) // len(target)} preimages per vertex, "
            f"but the shape needs degree {shape.i}"
        )
    if shape.n != len(target):
        raise PortraitError(f"shape is for {shape.n}-gons, target has {len(target)} vertices")
    placed = bind_shape(shape, points, rank_context(context, points))
    if placed is None:
        return None
    new, reused, _ = placed
    return Placement(tuple(map(PolygonClass, new)), tuple(map(PolygonClass, reused)))
