"""Finite dynamical laminations: axioms, children, and the pullback tree.

A finite lamination qualifies when its leaves are forward closed with no
critical leaf, every leaf is a hull edge of its class, each non-periodic
leaf has a full disjoint sibling collection (some d - 1 leaves of its image,
disjoint from it, have 2(d - 1) distinct endpoints), periodic classes
cover with positive orientation, and for one depth parameter n exactly
the leaves within n-1 steps of the periodic part have preimages.
So n belongs to the lamination: ``FDL(lamination)`` validates it and
takes n from the report, on the lamination's cached integer model
(``core._IntModel``, its own view mod M) and its depth walk.

Children of such a lamination add one more layer of preimages: a sibling
portrait, placed in the whole disk, over the preimages of each deepest
class (already in circular order, lift by lift), on the parent's classes
scaled by d into residues mod d * M, the child's modulus, where those
preimages are residues too.  Each new block lies in one complementary
region, so a placement is exactly a product of region-local shapes and
reused classes: a target's group of n points in a region is a forced
block, with no portrait, and a group of k*n points takes its
``count_all(k, n)`` portraits.  Region lemma: between two points of one
target's group in a region, another target's group holds as many preimages
of each vertex of its class (each closed pocket behind a leaf of the region
does, by axioms 2 and 3, as nothing maps onto a deepest class but its
periodic preimage; so does the whole arc).  So forced blocks cross nothing,
and only free groups of distinct targets in one region can cross: the
children are the product over regions of each region's non-crossing
choices, and the parent being valid, each is a child, kept with its key as
residue tuples.  Its new blocks are its own deepest layer, carried to the
next level.  The pullback tree validates its root in full, then collects
all its descendants level by level, on one table per level (``_Level``,
keyed by value, lent the last one's key texts), merging none: placements
give distinct children, and a child's one parent is its image.  In the
basilica, rabbit and cubic trees each level-k node has vertex set
sigma^-k(V_0) (level 10 of the basilica: 4,780 classes in 347,932 slots);
nothing rests on that.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .core import (
    COVERING,
    ClassLamination,
    LaminationError,
    PolygonClass,
    _covering,
    _events,
    _fmt,
    _hull_edges,
    _IntModel,
    _sweep,
)
from .portraits import enumerate_all_portraits


class FdlError(ValueError):
    pass


def canonical_form(lam: ClassLamination) -> str:
    """Stable text key: degree, then classes sorted by first vertex."""
    return lam._model.key()


# --- validation ------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomResult:
    passed: bool
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class FdlReport:
    valid: bool
    axioms: dict
    depth_n: Optional[int]
    periodic_classes: tuple[PolygonClass, ...] = ()

    def failures(self) -> dict:
        return {k: v for k, v in self.axioms.items() if not v.passed}

    def failure_text(self) -> str:
        """Witnesses of the failed axioms, as ``axiom k: witness; ...``."""
        return "; ".join(
            f"axiom {k}: {w}" for k, r in sorted(self.failures().items()) for w in r.witnesses
        )


def validate_fdl(lam: ClassLamination) -> FdlReport:
    """Check the seven defining axioms and report per-axiom witnesses."""
    d = lam.degree
    axioms: dict[int, AxiomResult] = {}
    try:
        lam.check()
    except LaminationError as exc:
        axioms[0] = AxiomResult(False, (str(exc),))
        return FdlReport(False, axioms, None)

    model = lam._model

    # 1: finitely many leaves, and at least one class
    axioms[1] = AxiomResult(bool(model.classes), () if model.classes else ("empty lamination",))

    edges = model.edges
    edge_class = {e: cls for cls in model.classes for e in _hull_edges(cls)}

    # 2: no critical leaf
    critical = [e for e in edges if model.sigma(e[0]) == model.sigma(e[1])]
    axioms[2] = AxiomResult(
        not critical, tuple(f"critical leaf {model.edge_str(e)}" for e in critical)
    )

    # 3: forward closed on leaves (a critical leaf's image (x, x) is no leaf)
    img_of = {e: tuple(sorted(map(model.sigma, e))) for e in edges}
    bad3 = [
        f"image of {model.edge_str(e)} is not a leaf" for e in edges if img_of[e] not in edge_class
    ]
    axioms[3] = AxiomResult(not bad3, tuple(bad3))

    depth = model.depths
    periodic = tuple(p for c, p in zip(model.classes, lam._view[2]) if depth[c] == 0)

    # 6: every leaf is a hull edge of its class (structural here; a chord
    # document's load checks it on its chord set's residues)
    axioms[6] = AxiomResult(True)

    # 7: periodic classes cover with positive orientation
    kinds = (_covering(model.D, c, d).kind for c in model.classes if depth[c] == 0)
    bad7 = [
        f"periodic class {p} has boundary map {k}" for p, k in zip(periodic, kinds) if k != COVERING
    ]
    axioms[7] = AxiomResult(not bad7, tuple(bad7))

    if any(v is None for v in depth.values()) or not axioms[3].passed:
        axioms[4] = AxiomResult(False, ("class image chain leaves the lamination",))
        axioms[5] = AxiomResult(False, ("not evaluated",))
        return FdlReport(False, axioms, None, periodic)

    n = max(depth.values()) if depth else 0

    # axiom 3 passed, so every image is a leaf
    leaf_depth = {e: depth[edge_class[e]] for e in edges}
    by_image: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for e in edges:
        by_image.setdefault(img_of[e], []).append(e)
    nonper_preimage = {img_of[e] for e in edges if leaf_depth[e] > 0}

    bad4 = []
    for e in edges:
        k = leaf_depth[e]
        if k > 0:
            should = k <= n - 1
            if (e in by_image) != should:
                bad4.append(
                    f"leaf {model.edge_str(e)} at depth {k} "
                    f"{'lacks' if should else 'has'} a preimage (n={n})"
                )
        elif (e in nonper_preimage) != (n > 0):
            bad4.append(
                f"periodic leaf {model.edge_str(e)} "
                f"{'lacks' if n > 0 else 'has'} a non-periodic preimage (n={n})"
            )
    axioms[4] = AxiomResult(not bad4, tuple(bad4))

    # 5: full disjoint sibling collections for non-periodic leaves
    bad5 = [
        f"leaf {model.edge_str(e)} has no {d} pairwise disjoint siblings"
        for e in edges
        if leaf_depth[e] and not _has_disjoint_collection(e, by_image[img_of[e]], d)
    ]
    axioms[5] = AxiomResult(not bad5, tuple(bad5))

    valid = all(r.passed for r in axioms.values())
    return FdlReport(valid, axioms, n, periodic)


def _has_disjoint_collection(leaf, same_image, d: int) -> bool:
    """Is ``leaf`` one of d pairwise endpoint-disjoint leaves of ``same_image``:
    do some d - 1 leaves disjoint from it have 2(d - 1) distinct endpoints?"""
    others = [s for s in same_image if leaf[0] not in s and leaf[1] not in s]
    return any(len(set(chain(*pick))) == 2 * (d - 1) for pick in combinations(others, d - 1))


# --- the FDL wrapper and child enumeration ---------------------------------------


class FDL:
    """A finite dynamical lamination with its depth parameter: its classes
    once, as sorted vertex residue tuples mod ``modulus`` in key order, and
    ``deepest``, those of its classes at depth ``depth_n``, sorted.
    ``FDL(lamination)`` validates the lamination (:func:`validate_fdl`),
    raises :class:`FdlError` with the failed axioms' witnesses, and takes
    ``depth_n`` from the report; tree nodes come from their parent
    (:func:`enumerate_children`) and build their ``lamination`` on first
    use.  Equal when key and depth are."""

    __slots__ = ("degree", "depth_n", "modulus", "residues", "deepest", "_key", "_lamination")

    def __init__(self, lamination: ClassLamination):
        report = validate_fdl(lamination)
        if not report.valid:
            raise FdlError(f"not a finite dynamical lamination: {report.failure_text()}")
        self.degree, self.depth_n, self._lamination = lamination.degree, report.depth_n, lamination
        self.modulus, self.residues, _ = lamination._view
        self._key, depth = lamination._model.key(), lamination._model.depths
        self.deepest = tuple(c for c in self.residues if depth[c] == self.depth_n)

    @classmethod
    def _node(
        cls, degree: int, depth_n: int, modulus: int, residues: tuple, deepest: tuple, key: str
    ) -> "FDL":
        node = object.__new__(cls)
        node.degree, node.depth_n, node._key = degree, depth_n, key
        node.modulus, node.residues, node.deepest = modulus, residues, deepest
        node._lamination = None
        return node

    @property
    def lamination(self) -> ClassLamination:
        if self._lamination is None:
            self._lamination = ClassLamination._from_residues(self.degree, self.modulus, self.residues)
        return self._lamination

    def key(self) -> str:
        return self._key

    def __eq__(self, other):
        return isinstance(other, FDL) and (self._key, self.depth_n) == (other._key, other.depth_n)

    def __hash__(self):
        return hash((self._key, self.depth_n))

    def __str__(self):
        return f"FDL(n={self.depth_n}, {self.key()})"

    __repr__ = __str__


def _blocks_cross(a: tuple, b: tuple) -> bool:
    """Do disjoint sorted residue blocks cross?  Exactly when b's vertices
    fall in more than one arc of a (indices 0 and len(a) name one arc)."""
    return len({bisect(a, v) % len(a) for v in b}) > 1


def _placements(targets, model: _IntModel, groups: dict) -> list[list]:
    """Every placement (a list of new blocks) over the deepest classes
    ``targets``, mod ``model.D // d``; ``[]`` when none binds.  ``groups`` are
    the :func:`_sweep` groups, by region and target, of the targets' d*n
    whole-disk preimages, labelled 0..n-1 repeating and tagged with their
    target, bar model vertices (at depth 0 only): each class those touch must
    lie over one target, whole, to be reused.  Groups do not interleave, so
    when each holds k*n points (the region lemma's pockets), only whole groups
    lie between two points of one, and its labels step by +1: n points are one
    block, crossing nothing (region lemma), and k*n points take any
    ``count_all(k, n)`` local shape, its blocks the points at their indices
    (no model vertex, one region: none reused, none crossing a leaf).  A
    placement is the n-point blocks and a non-crossing shape choice per region."""
    d, M = model.d, model.D // model.d
    if sum(map(len, groups.values())) < d * sum(map(len, targets)):
        for c in targets:
            pre = {x + s for s in range(0, d * M, M) for x in c}
            if any(len(o) % len(c) or not pre.issuperset(o) for o in model.classes if pre.intersection(o)):
                return []
    forced, regions = [], {}
    for (region, c), vs in groups.items():
        n = len(c)
        if len(vs) % n:
            return []
        if len(vs) == n:
            forced.append(tuple(vs))
            continue
        chosen = regions.get(region, [[]])
        local = [[tuple(vs[i] for i in b) for b in s.blocks] for s in enumerate_all_portraits(len(vs) // n, n)]
        regions[region] = [
            o + b for o in chosen for b in local if not any(_blocks_cross(u, v) for u in o for v in b)
        ]
    return [forced + list(chain.from_iterable(pick)) for pick in product(*regions.values())]


class _Memo(dict):
    """A dict that fills in a missing key ``k`` with ``fn(k)``."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        return self.setdefault(key, self.fn(key))


class _Level:
    """One tree level's shared work for degree ``d`` and node modulus ``M``, by
    value, one copy each: node classes scaled by d with their hull-edge sweep
    events, deepest classes' preimage events tagged by class, new blocks, and
    the key texts of the level below.  A scaled class keeps its text object
    from ``prev``, the last table's texts (scaling residues and modulus by d
    keeps every fraction), so only new blocks are formatted, vertex by vertex.
    A table holds just that text dict, never a chain of tables to the root."""

    def __init__(self, d: int, M: int, prev: Optional[dict] = None):
        self.d, self.M = d, M
        prev = self.prev = prev or {}
        vertex = _Memo(lambda x: _fmt(x, d * M))
        texts = self.texts = _Memo(lambda c: ",".join(map(vertex.__getitem__, c)))

        def scale(c):
            s = tuple(d * x for x in c)
            if c in prev:
                texts[s] = prev[c]
            return s, _events(_hull_edges(s))

        self.classes = _Memo(scale)
        self.points = _Memo(lambda c: _events((), [x + s for s in range(0, d * M, M) for x in c], c))
        self.blocks: dict = {}


def enumerate_children(fdl: FDL, level: Optional[_Level] = None) -> list[FDL]:
    """All laminations one pullback level deeper whose image is this one.

    Per deepest class (``fdl.deepest``), sibling portraits are placed in the
    whole disk over its vertex preimages (reusing classes they reproduce);
    every mutually non-crossing choice of one placement per deepest class
    is a child, with no further check.
    ``fdl`` is valid (``FDL`` validates, and children are valid by this
    construction): a class with a vertex over a deepest n-gon t maps onto
    t (axiom 3), so sits at depth n + 1 unless n = 0 and it is t's
    periodic preimage: only at depth 0 may a preimage be a model vertex (so
    none is filtered deeper), and every placement keeps a new block.  The
    d*n points over t are labelled 0..n-1 cyclically by their images, and a
    portrait block steps its label by +1 at each vertex.  So every new block
    maps onto t and every new edge onto a hull edge of t (depth and axioms 2
    and 3); one new block covers every edge of t (axiom 4); and the
    placement partitions the whole fiber, so over each edge of t lie d
    pairwise disjoint edges, reused periodic blocks among them (axiom 5).
    The new blocks are thus the child's deepest layer.

    A placement is the forced blocks plus one non-crossing choice per
    region (:func:`_placements`): by the region lemma (module docstring),
    only new blocks of distinct targets' free groups in one region cross,
    so the children are the product over regions, one per placement (they
    differ in new blocks), sorted by key.
    ``level`` is the tree's :class:`_Level` for this degree and modulus (a
    fresh one replaces any other); filled by value, it changes no result.
    """
    d = fdl.degree
    level = level if level and (level.d, level.M) == (d, fdl.modulus) else _Level(d, fdl.modulus)
    scaled = list(map(level.classes.__getitem__, fdl.residues))
    model = _IntModel(d, d * fdl.modulus, map(itemgetter(0), scaled))
    events = list(chain.from_iterable(map(itemgetter(1), scaled)))
    points = chain.from_iterable(map(level.points.__getitem__, fdl.deepest))
    events += points if fdl.depth_n else (ev for ev in points if ev[0] not in model.vertices)
    head, text, kids = str(d), level.texts.__getitem__, []
    for blocks in _placements(fdl.deepest, model, _sweep(events=events)[1]):
        new = sorted(map(level.blocks.setdefault, blocks, blocks))
        residues = tuple(sorted(model.classes + new))
        key = "|".join([head, *map(text, residues)])
        kids.append(FDL._node(d, fdl.depth_n + 1, model.D, residues, tuple(new), key))
    kids.sort(key=FDL.key)
    return kids


# --- pullback tree ----------------------------------------------------------------


@dataclass
class PullbackTree:
    root: FDL
    levels: list[list[FDL]] = field(default_factory=list)
    parent: dict = field(default_factory=dict)  # child key -> parent key

    @property
    def degree(self) -> int:
        return self.root.degree

    def level_counts(self) -> list[int]:
        return [len(lv) for lv in self.levels]

    def all_nodes(self) -> Iterator[FDL]:
        return chain.from_iterable(self.levels)

    def edges(self) -> Iterator[tuple[FDL, FDL]]:
        by_key = {f.key(): f for f in self.all_nodes()}
        for child_key, parent_key in self.parent.items():
            yield by_key[parent_key], by_key[child_key]


def check_root(node: FDL) -> FDL:
    """``node`` itself, if it may root a pullback tree: it must be its own image."""
    if node.depth_n != 0:
        raise FdlError(f"root must be its own image (depth parameter 0, not {node.depth_n})")
    return node


def root_fdl(degree: int, periodic: Iterable[PolygonClass]) -> FDL:
    """Validate a self-image root lamination (depth parameter 0)."""
    return check_root(FDL(ClassLamination.create(degree, set(periodic))))


def build_pullback_tree(root: FDL, depth: int) -> PullbackTree:
    """Breadth-first tree of all descendants down to ``depth``, below any valid node."""
    if depth < 0:
        raise FdlError(f"tree depth must be >= 0, got {depth}")
    # children are valid by construction, so the tree is as valid as its root
    report = validate_fdl(root.lamination)
    if not report.valid or report.depth_n != root.depth_n:
        raise FdlError(f"tree root is no finite dynamical lamination at depth {root.depth_n}")
    tree = PullbackTree(root, [[root]])
    d, table = root.degree, None
    for k in range(depth):
        # every level-k node's modulus; the last table lends its key texts
        table = _Level(d, root.modulus * d**k, table and table.texts)
        level = []
        for node in tree.levels[-1]:
            kids = enumerate_children(node, table)
            tree.parent.update(dict.fromkeys(map(FDL.key, kids), node.key()))
            level += kids
        tree.levels.append(sorted(level, key=FDL.key))
    return tree
