"""Sibling portraits: counting and enumeration.

A portrait shape lives on ``i*n`` cyclically placed abstract points whose
labels repeat ``0, 1, ..., n-1``.  Its blocks partition all points into
non-crossing polygons, and walking any block counterclockwise steps the
label by one each time, so every block carries each label equally often.
Blocks of size n are one-to-one; larger blocks cover with higher degree.

Shapes are counted in closed form by the Fuss-Catalan formula and
enumerated through the counting theorem's bijections: the one-to-one
shapes are the images of the full n-ary trees with i internal nodes, and
all (i, n)-shapes are the images of the one-to-one (i, n+1)-shapes under
label removal.  Malformed shapes and trees raise :class:`PortraitError`.
Shapes here are abstract: child enumeration (``fdl._placements``) alone
binds them to circle geometry, in each region that holds k*n > n preimage
points of a deepest n-gon.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import comb
from typing import Optional

from .core import _components


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
        if sorted(chain(*blocks)) != list(range(self.i * self.n)):
            raise PortraitError(f"blocks {blocks} do not partition range({self.i * self.n})")
        object.__setattr__(self, "blocks", blocks)

    @property
    def is_injective(self) -> bool:
        return all(len(b) == self.n for b in self.blocks)

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


# --- bijection with full n-ary trees ------------------------------------------

Leaf = None  # a full n-ary tree is either None or a tuple of n subtrees


def internal_count(tree) -> int:
    if tree is Leaf:
        return 0
    return 1 + sum(internal_count(c) for c in tree)


@lru_cache(maxsize=None)
def _forests(i: int, n: int, k: int) -> tuple:
    """Every sequence of k full n-ary trees with i internal nodes in all; a
    tree with j >= 1 internal nodes is a sequence of n with j - 1."""
    if k == 0:
        return ((),) if i == 0 else ()
    return tuple(
        (first,) + rest
        for j in range(i + 1)
        for first in (_forests(j - 1, n, n) if j else (Leaf,))
        for rest in _forests(i - j, n, k - 1)
    )


def portrait_to_tree(shape: PortraitShape):
    """Bijection onto full n-ary trees with i internal nodes.

    The block containing the first point of a region becomes an internal
    node; its vertices cut the region into the n slices after them, the
    children in counterclockwise order.  A block that does not start its
    region, or leaves it, crosses another.
    """
    if not shape.is_injective:
        raise PortraitError("tree bijection is defined for one-to-one portraits only")
    block_of = {p: b for b in shape.blocks for p in b}

    def build(region: range):
        if not region:
            return Leaf
        b = block_of[region[0]]
        if b[0] != region[0] or b[-1] not in region:
            raise PortraitError("region does not start its own block; shape is not non-crossing")
        cuts = [p - region.start for p in b] + [len(region)]
        return tuple(build(region[i + 1 : j]) for i, j in zip(cuts, cuts[1:]))

    return build(range(shape.i * shape.n))


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
        if len(tree) != n:
            raise PortraitError(f"tree node has {len(tree)} subtrees, not n = {n}")
        verts, pos = [], start
        for child in tree:
            verts.append(pos)
            pos = build(child, pos + 1)
        blocks.append(tuple(verts))
        return pos

    build(tree, 0)
    return PortraitShape(i, n, tuple(blocks))


# --- reduction across label removal -------------------------------------------


def reduce_portrait(shape: PortraitShape, drop_label: Optional[int] = None) -> PortraitShape:
    """Collapse an injective portrait over n+1 labels to a portrait over n.

    Blocks are grouped transitively by following the point right after each
    block's dropped-label vertex; each group merges, the dropped vertices
    disappear, and a kept point p moves down past the dropped ones before it,
    to p - p // (n+1) - (p % (n+1) > X).  This map is a bijection from
    one-to-one (i, n+1)-portraits onto all (i, n)-portraits.
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

    block_of = {p: bi for bi, b in enumerate(shape.blocks) for p in b}
    pairs = []
    for bi, b in enumerate(shape.blocks):
        dropped = [p for p in b if p % n_plus == X]
        if len(dropped) != 1:
            raise PortraitError(f"block {b} holds {len(dropped)} points of label {X}, not one")
        pairs.append((bi, block_of[(dropped[0] + 1) % total]))
    root = _components(pairs)
    groups: dict[int, list[int]] = {}
    for bi, b in enumerate(shape.blocks):
        moved = (p - p // n_plus - (p % n_plus > X) for p in b if p % n_plus != X)
        groups.setdefault(root[bi], []).extend(moved)
    new_blocks = tuple(map(tuple, groups.values()))
    return PortraitShape(shape.i, n_plus - 1, new_blocks)


# --- enumeration through the bijections ----------------------------------------


@lru_cache(maxsize=None)
def _injective(i: int, n: int) -> tuple[PortraitShape, ...]:
    # shapes of one (i, n) sort by their blocks
    return tuple(sorted(tree_to_portrait(t, n) for t in _forests(i - 1, n, n)))


@lru_cache(maxsize=None)
def _all(i: int, n: int) -> tuple[PortraitShape, ...]:
    return tuple(sorted(map(reduce_portrait, _injective(i, n + 1))))


def enumerate_injective_portraits(i: int, n: int) -> list[PortraitShape]:
    """All one-to-one portraits, canonically ordered: the images under
    :func:`tree_to_portrait` of the full n-ary trees with i internal nodes."""
    _check_in(i, n)
    return list(_injective(i, n))


def enumerate_all_portraits(i: int, n: int) -> list[PortraitShape]:
    """All portraits including higher-degree blocks, canonically ordered:
    the images under :func:`reduce_portrait` of the one-to-one
    (i, n+1)-portraits."""
    _check_in(i, n)
    return list(_all(i, n))
