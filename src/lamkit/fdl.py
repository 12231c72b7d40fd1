"""Finite dynamical laminations: axioms, children, and the pullback tree.

A finite lamination qualifies when its leaves are forward closed with no
critical leaf, every leaf is a hull edge of its class, non-periodic leaves
carry full disjoint sibling collections, periodic classes cover with
positive orientation, and there is a single depth parameter n such that
exactly the leaves within n-1 steps of the periodic part have preimages.

Children of such a lamination add one more layer of preimages: a sibling
portrait, placed in the whole disk, over the preimages of each deepest
class.  Candidates are built constructively from portrait shapes and then
filtered through the full validator.  The pullback tree collects all
descendants of a self-image root, level by level, deduplicated by
canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import lcm
from typing import Iterable, Iterator, Optional

from .circle import Angle, format_angle
from .core import (
    COVERING,
    Chord,
    ClassLamination,
    LaminationError,
    PolygonClass,
    covering_degree,
)
from .portraits import (
    _ranks_cross,
    bind_shape,
    enumerate_all_portraits,
    portrait_points,
    rank_context,
)


class FdlError(ValueError):
    pass


def canonical_form(lam: ClassLamination) -> str:
    """Stable text key: degree, then classes sorted by first vertex."""
    parts = [str(lam.degree)]
    for cls in lam.sorted_classes():
        parts.append(",".join(format_angle(v) for v in cls.vertices))
    return "|".join(parts)


def classes_from_chords(degree: int, chords: Iterable[Chord]) -> list[PolygonClass]:
    """Reconstruct classes from raw chords via shared endpoints.

    Components of the endpoint-sharing graph become candidate classes; the
    component's chords must be exactly the hull edges of its vertex set
    (otherwise the hull-edge axiom fails).
    """
    chords = list(chords)
    parent: dict[Angle, Angle] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in chords:
        for p in (c.a, c.b):
            parent.setdefault(p, p)
        ra, rb = find(c.a), find(c.b)
        if ra != rb:
            parent[ra] = rb

    groups: dict[Angle, set[Angle]] = {}
    by_group: dict[Angle, list[Chord]] = {}
    for c in chords:
        root = find(c.a)
        groups.setdefault(root, set()).update((c.a, c.b))
        by_group.setdefault(root, []).append(c)

    classes = []
    for root, verts in groups.items():
        poly = PolygonClass(tuple(verts))
        if set(poly.edges()) != set(by_group[root]):
            raise FdlError(
                f"chords at {sorted(verts)} are not the hull edges of their class"
            )
        classes.append(poly)
    return classes


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


class _IntModel:
    """Integer coordinates for a finite lamination.

    Every vertex is a rational with some common denominator D, so angles
    become residues mod D, sigma becomes multiplication by d mod D, and all
    validator work runs on machine-friendly ints.
    """

    def __init__(self, lam: ClassLamination):
        self.lam = lam
        self.d = lam.degree
        D = 1
        for c in lam.classes:
            for v in c.vertices:
                D = lcm(D, v.denominator)
        self.D = D
        polys = lam.sorted_classes()
        self.classes = [
            tuple(v.numerator * (D // v.denominator) for v in c.vertices) for c in polys
        ]
        self.poly = dict(zip(self.classes, polys))

    def sigma(self, x: int) -> int:
        return (x * self.d) % self.D

    def edges_of(self, cls: tuple[int, ...]):
        if len(cls) == 2:
            return [(cls[0], cls[1])]
        out = [(cls[i], cls[i + 1]) for i in range(len(cls) - 1)]
        out.append((cls[0], cls[-1]))
        return out

    def angle(self, x: int):
        from fractions import Fraction

        return Fraction(x, self.D)

    def edge_str(self, e: tuple[int, int]) -> str:
        return f"({self.angle(e[0])},{self.angle(e[1])})"

    def depths(self) -> dict[tuple[int, ...], Optional[int]]:
        """Steps from each class along its image chain to a periodic class,
        or None when the chain leaves the lamination."""
        known = set(self.classes)
        image_class: dict[tuple, Optional[tuple]] = {}
        for c in self.classes:
            img = tuple(sorted({self.sigma(v) for v in c}))
            image_class[c] = img if img in known else None

        depth: dict[tuple, Optional[int]] = {}
        for c in self.classes:
            seen: dict[tuple, int] = {}
            cur, chain = c, []
            while cur is not None and cur not in seen:
                seen[cur] = len(chain)
                chain.append(cur)
                cur = image_class[cur]
            if cur is None:
                depth.update(dict.fromkeys(chain))
                continue
            # nodes before the cycle sit at their distance to the cycle entry
            cycle_start = seen[cur]
            for idx, node in enumerate(chain):
                depth[node] = max(0, cycle_start - idx)
        return depth


def validate_fdl(lam: ClassLamination) -> FdlReport:
    """Check the seven defining axioms and report per-axiom witnesses."""
    d = lam.degree
    axioms: dict[int, AxiomResult] = {}
    try:
        lam.check()
    except LaminationError as exc:
        axioms[0] = AxiomResult(False, (str(exc),))
        return FdlReport(False, axioms, None)

    model = _IntModel(lam)

    # 1: finitely many leaves, and at least one class
    axioms[1] = AxiomResult(bool(lam.classes), () if lam.classes else ("empty lamination",))

    edges: list[tuple[int, int]] = []
    edge_class: dict[tuple[int, int], tuple[int, ...]] = {}
    for cls in model.classes:
        for e in model.edges_of(cls):
            e = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
            edges.append(e)
            edge_class[e] = cls
    edge_set = set(edges)

    # 2: no critical leaf
    critical = [e for e in edges if model.sigma(e[0]) == model.sigma(e[1])]
    axioms[2] = AxiomResult(
        not critical, tuple(f"critical leaf {model.edge_str(e)}" for e in critical)
    )

    # 3: forward closed on leaves
    def edge_image(e):
        ia, ib = model.sigma(e[0]), model.sigma(e[1])
        if ia == ib:
            return None
        return (ia, ib) if ia < ib else (ib, ia)

    img_of = {e: edge_image(e) for e in edges}
    bad3 = [
        f"image of {model.edge_str(e)} is not a leaf"
        for e in edges
        if img_of[e] is None or img_of[e] not in edge_set
    ]
    axioms[3] = AxiomResult(not bad3, tuple(bad3))

    depth = model.depths()
    periodic = tuple(model.poly[c] for c in model.classes if depth[c] == 0)

    # 6: every leaf is a hull edge of its class (structural in this
    # representation; raw chord imports go through classes_from_chords)
    axioms[6] = AxiomResult(True)

    # 7: periodic classes cover with positive orientation
    bad7 = []
    for poly in periodic:
        kind = covering_degree(poly, d).kind
        if kind != COVERING:
            bad7.append(f"periodic class {poly} has boundary map {kind}")
    axioms[7] = AxiomResult(not bad7, tuple(bad7))

    if any(v is None for v in depth.values()) or not axioms[3].passed:
        axioms[4] = AxiomResult(False, ("class image chain leaves the lamination",))
        axioms[5] = AxiomResult(False, ("not evaluated",))
        return FdlReport(False, axioms, None, periodic)

    n = max(depth.values()) if depth else 0

    leaf_depth = {e: depth[edge_class[e]] for e in edges}
    has_preimage = {e: False for e in edges}
    nonper_preimage = {e: False for e in edges}
    for e in edges:
        img = img_of[e]
        if img in has_preimage:
            has_preimage[img] = True
            if leaf_depth[e] > 0:
                nonper_preimage[img] = True

    bad4 = []
    for e in edges:
        k = leaf_depth[e]
        if k > 0:
            should = k <= n - 1
            if has_preimage[e] != should:
                bad4.append(
                    f"leaf {model.edge_str(e)} at depth {k} "
                    f"{'lacks' if should else 'has'} a preimage (n={n})"
                )
        else:
            if nonper_preimage[e] != (n > 0):
                bad4.append(
                    f"periodic leaf {model.edge_str(e)} "
                    f"{'lacks' if n > 0 else 'has'} a non-periodic preimage (n={n})"
                )
    axioms[4] = AxiomResult(not bad4, tuple(bad4))

    # 5: full disjoint sibling collections for non-periodic leaves
    by_image: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for e in edges:
        img = img_of[e]
        if img is not None:
            by_image.setdefault(img, []).append(e)
    bad5 = []
    for e in edges:
        if leaf_depth[e] == 0:
            continue
        pool = [
            s
            for s in by_image.get(img_of[e], [])
            if s != e and not set(s) & set(e)
        ]
        if not _has_disjoint_collection(e, pool, d):
            bad5.append(
                f"leaf {model.edge_str(e)} has no {d} pairwise disjoint siblings"
            )
    axioms[5] = AxiomResult(not bad5, tuple(bad5))

    valid = all(r.passed for r in axioms.values())
    return FdlReport(valid, axioms, n, periodic)


def _has_disjoint_collection(leaf, others, d: int) -> bool:
    """Can ``leaf`` extend to d pairwise endpoint-disjoint same-image leaves?"""
    if len(others) < d - 1:
        return False

    def extend(chosen, pool):
        if len(chosen) == d:
            return True
        for idx, c in enumerate(pool):
            cs = set(c)
            if all(not (cs & set(x)) for x in chosen):
                if extend(chosen + [c], pool[idx + 1 :]):
                    return True
        return False

    return extend([leaf], others)


# --- the FDL wrapper and child enumeration ---------------------------------------


@dataclass(frozen=True)
class FDL:
    """A validated finite dynamical lamination with its depth parameter."""

    lamination: ClassLamination
    depth_n: int

    @classmethod
    def validate(cls, lam: ClassLamination) -> "FDL":
        report = validate_fdl(lam)
        if not report.valid:
            raise FdlError(f"not a finite dynamical lamination: {report.failure_text()}")
        return cls(lam, report.depth_n)

    @property
    def degree(self) -> int:
        return self.lamination.degree

    def key(self) -> str:
        return canonical_form(self.lamination)

    def image(self) -> ClassLamination:
        d = self.degree
        imgs = {c.image(d) for c in self.lamination.classes}
        return ClassLamination(d, frozenset(i for i in imgs if i is not None))

    def __str__(self):
        return f"FDL(n={self.depth_n}, {self.key()})"


def deepest_classes(fdl: FDL) -> list[PolygonClass]:
    """Classes at depth ``fdl.depth_n``: the periodic ones when it is 0."""
    model = _IntModel(fdl.lamination)
    depth = model.depths()
    return [model.poly[c] for c in model.classes if depth[c] == fdl.depth_n]


def enumerate_children(fdl: FDL) -> list[FDL]:
    """All laminations one pullback level deeper whose image is this one.

    Per deepest class, disk-wide sibling portraits are bound to its vertex
    preimages (reusing classes the portrait reproduces); all mutually
    compatible combinations are assembled and filtered through the full
    validator.  Children come back canonically ordered.
    """
    lam = fdl.lamination
    d = lam.degree
    targets = deepest_classes(fdl)
    target_points = [portrait_points(t, d, None) for t in targets]
    context = rank_context(lam, (p for pts in target_points for p in pts))

    options = []
    for t, pts in zip(targets, target_points):
        placed_list = []
        for shape in enumerate_all_portraits(d, len(t)):
            placed = bind_shape(shape, pts, context)
            if placed is not None and placed[0]:
                placed_list.append(placed)
        if not placed_list:
            return []
        options.append(placed_list)

    children: dict[str, FDL] = {}
    for combo in product(*options):
        # blocks for distinct targets use disjoint fibers, so only crossing
        # between placements needs a check
        if any(
            _ranks_cross(a, b)
            for (_, _, e1), (_, _, e2) in combinations(combo, 2)
            for a in e1
            for b in e2
        ):
            continue
        new_classes = [PolygonClass(vs) for new, _, _ in combo for vs in new]
        candidate = ClassLamination(d, lam.classes | frozenset(new_classes))
        # invariants hold by construction: the parent was valid and every
        # new block was screened against the context and its peers, so
        # validate_fdl's lam.check() returns at once
        candidate._mark_checked()
        report = validate_fdl(candidate)
        if not report.valid or report.depth_n != fdl.depth_n + 1:
            continue
        child = FDL(candidate, report.depth_n)
        children[child.key()] = child
    return [children[k] for k in sorted(children)]


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
        for lv in self.levels:
            yield from lv

    def edges(self) -> Iterator[tuple[FDL, FDL]]:
        by_key = {f.key(): f for f in self.all_nodes()}
        for child_key, parent_key in self.parent.items():
            yield by_key[parent_key], by_key[child_key]


def root_fdl(degree: int, periodic: Iterable[PolygonClass]) -> FDL:
    """Validate a self-image root lamination (depth parameter 0)."""
    lam = ClassLamination.create(degree, set(periodic))
    report = validate_fdl(lam)
    if not report.valid:
        raise FdlError(f"root rejected: {report.failure_text()}")
    if report.depth_n != 0:
        raise FdlError(f"root must be its own image; depth parameter is {report.depth_n}")
    return FDL(lam, 0)


def build_pullback_tree(root: FDL, depth: int) -> PullbackTree:
    """Breadth-first tree of all descendants down to ``depth``."""
    tree = PullbackTree(root, [[root]])
    for _ in range(depth):
        nxt: dict[str, FDL] = {}
        for node in tree.levels[-1]:
            node_key = node.key()
            for child in enumerate_children(node):
                key = child.key()
                nxt[key] = child
                tree.parent[key] = node_key
        tree.levels.append([nxt[k] for k in sorted(nxt)])
    return tree
