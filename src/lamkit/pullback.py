"""Critical-chord placement, pullback approximations, metric, and scans.

Placement chains k - 1 critical chords through every gap of degree k,
reading the gaps and their degrees from the criticality audit; an
anchor a's same-image points a + j/d are in chain order by j.  A set of d-1
pairwise compatible critical chords (no closed loop) cuts the disk into d
branches whose bases each map onto the circle: the regions of
``core._regions``, as for round gaps, which group the arcs between cut
points by the innermost chord around their start.  The chords close a loop
exactly when fewer regions than distinct chords plus one touch the circle.
Pulling a chord set back lifts its chords through every branch.  Away from
the critical values each branch's basis maps injectively onto the circle,
so a branch holds exactly one preimage of a point, and the lift is forced:
the pair of its endpoints' preimages there.  At a critical value a branch
can hold two preimages; candidates that would cross the inputs are then
discarded and the shorter surviving lift wins, which reproduces the wedges
that accumulate at forced endpoints.  A step runs on its input's residue
view (``ChordSet._view``) rescaled to M, a multiple of d times its modulus,
so x has the preimages ``x // d + j * M / d``; a bisect into the sorted cut
points numbers the branch of each, giving each endpoint one row indexed by
branch.  The result is its view mod M, so the modulus grows by d per step.
Of the input chords that cross a critical chord, an error names the least.
A step stamps its result with the critical chords and the pairs it added;
through equal critical chords a stamped input lifts only those pairs, with
no pre-check.  That is exact: its older chords' lifts are in it, as a
forced lift depends only on angles, and an ambiguous lift's winner is in
the checked input and crosses nothing there, while every candidate ranked
above it crossed a subset of the input; and a lift joins two points of one
branch's closed basis, so it crosses no critical chord.

This module also exposes the exact lamination metric (Hausdorff over
leaves plus all degenerate leaves, by a pruned nearest-leaf scan on
integer residues), properness and cleanliness scans (on residues, with
orbit periods from the tail walk ``circle._orbits``), and the finite-depth
nested-critical-gap construction, which tracks the audit's round gaps of
degree >= 2; each has at most one successor of its degree in a child.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Iterable, Optional

from .circle import (
    Angle,
    _orbits,
    check_degree,
    in_open_arc,  # unused here; perfbench's tracer test asserts this binding
    mod1,
)
from .core import (
    DEGREE_KNOWN,
    GAP_POLYGON,
    GAP_ROUND,
    Chord,
    ChordSet,
    ClassLamination,
    LaminationError,
    RoundGap,
    _class_residues,
    _regions,
    _set_view,
    _sweep,
    chords_cross,
    criticality_audit,
)
from .fdl import FDL, enumerate_children


class PullbackError(ValueError):
    pass


# --- critical chord sets and their branches ------------------------------------


@dataclass(frozen=True)
class CriticalChordSet:
    """d-1 critical chords cutting the disk into d branches.

    Chords may chain through shared endpoints but never close a loop; each
    branch's basis maps injectively onto the circle minus finitely many
    points.
    """

    degree: int
    chords: tuple[Chord, ...]

    def __post_init__(self):
        check_degree(self.degree)
        object.__setattr__(self, "chords", tuple(sorted(self.chords)))

    @classmethod
    def create(cls, degree: int, chords: Iterable[Chord]) -> "CriticalChordSet":
        cs = cls(degree, tuple(chords))
        cs.check()
        return cs

    def check(self):
        d = self.degree
        if len(self.chords) != d - 1:
            raise PullbackError(
                f"need exactly {d - 1} critical chords for degree {d}, got {len(self.chords)}"
            )
        for c in self.chords:
            if not c.is_critical(d):
                raise PullbackError(f"chord {c} is not critical in degree {d}")
        # each cut point starts one arc of a branch: count the regions of the cut points
        hit, groups = _sweep(((c.a, c.b) for c in self.chords), self.cut_points())
        if hit is not None:
            c1, c2 = Chord(*hit[0]), Chord(*hit[1])
            raise PullbackError(f"critical chords {c1} and {c2} cross")
        if len(groups) < len(set(self.chords)) + 1:
            raise PullbackError("critical chords close a loop")
        for c, prev in zip(self.chords[1:], self.chords):
            if c == prev:
                raise PullbackError(f"chord {c} does not split any region")
        # no basis-length check: now d regions touch the circle, and each
        # basis is a positive multiple of 1/d (its arcs are joined by critical
        # chords, whose ends differ by multiples of 1/d), so each is 1/d

    def cut_points(self) -> list[Angle]:
        return sorted({p for c in self.chords for p in (c.a, c.b)})

    def branches(self) -> list[tuple[tuple[Angle, Angle], ...]]:
        """The complementary regions that touch the circle (see
        :func:`~lamkit.core._regions`), each as a tuple of closed basis arcs
        between consecutive cut points, in order of first arc."""
        cuts = self.cut_points()
        if not cuts:
            return [((Fraction(0), Fraction(0)),)]  # whole circle (degree 1 never occurs)
        return _regions(((c.a, c.b) for c in self.chords), cuts)


# --- placement of critical chords ------------------------------------------------


def place_critical_chords(lam: ClassLamination, enumerate_all: bool = False) -> list[CriticalChordSet]:
    """Chain d_i - 1 critical chords through every critical gap.

    The gaps and their degrees are the entries of
    :func:`~lamkit.core.criticality_audit`.  Every gap (round or polygon)
    of degree k contributes a chain of k - 1 critical chords joining
    consecutive same-image points of its basis; the canonical placement
    anchors each chain at the gap's smallest basis angle, and the
    enumeration mode anchors at every basis arc endpoint (every vertex, for
    polygons).  Gaps without a degree are a precondition failure.
    """
    d = lam.degree
    gap_anchor_options: list[list[list[Chord]]] = []
    for entry in criticality_audit(lam).entries:
        gap, status = entry.gap, entry.status
        if status.kind != DEGREE_KNOWN:
            name = f"polygon {gap}" if entry.kind == GAP_POLYGON else str(gap)
            raise PullbackError(f"{name} has no degree; cannot place chords")
        if status.degree < 2:
            continue
        if entry.kind == GAP_POLYGON:
            anchors = list(gap.vertices) if enumerate_all else [gap.vertices[0]]
            contains = gap.vertices.__contains__
        else:
            # the full circle is the one arc (0, 0), so both modes anchor at 0
            ends = sorted({p for arc in gap.arcs for p in arc})
            anchors = ends if enumerate_all else [gap.smallest_angle()]
            contains = gap.contains_point
        gap_anchor_options.append(_chains(anchors, status.degree, d, contains))

    if not gap_anchor_options:
        raise PullbackError("no critical gaps; nothing to place")

    # dedupe while keeping deterministic order
    out: dict = {}
    for combo in product(*gap_anchor_options):
        cs = CriticalChordSet.create(d, [c for chain in combo for c in chain])
        out.setdefault(cs.chords, cs)
    return list(out.values())


def _chains(anchors, k: int, d: int, contains) -> list[list[Chord]]:
    """One chain of k-1 critical chords per anchor a, joining in turn the
    gap's points among a's same-image points a + j/d, j = 0..d-1.  These lie
    j/d counterclockwise from a, so listing them by j is the chain order."""
    chains = []
    for anchor in anchors:
        sibs = [p for p in (mod1(anchor + Fraction(j, d)) for j in range(d)) if contains(p)]
        if anchor not in sibs or len(sibs) != k:
            raise PullbackError(
                f"anchor {anchor} has {len(sibs)} same-image points in its gap, expected {k}"
            )
        chains.append([Chord(p, q) for p, q in zip(sibs, sibs[1:])])
    return chains


# --- pullback steps ---------------------------------------------------------------


def _lift(x: int, y: int, branch, M: int, obstacles, ends) -> tuple[int, int]:
    """The branch's preimage of the chord ``(x, y)``, all as residues mod M.

    ``ends`` holds x's and y's entries of :func:`_preimage_rows` for the
    branch, never both a lone preimage: the caller forms that forced lift.
    At a critical value both preimages of an endpoint can lie on the branch
    boundary; then candidates crossing the fixed inputs are discarded and
    the shortest arc wins, ties going to the smaller pair (``Chord`` order).
    That prefers a connected arc-lift, an arc that d maps onto an arc of the
    chord: with l the arc from x to y in turns, a candidate's arcs are
    (l + m)/d and (1 - l + d - 1 - m)/d for some m in 0..d-1; d times them
    is l or 1 - l only when m = 0 or m = d - 1, whose lift l/d or (1 - l)/d
    is the shorter arc, below 1/d, and for any other m both arcs exceed 1/d.
    """

    def fail(what):
        arcs = " u ".join(f"[{Fraction(s, M)},{Fraction(e, M)}]" for s, e in branch)  # as RoundGap prints them
        raise PullbackError(what.format(Chord(Fraction(x, M), Fraction(y, M)), arcs))

    us, vs = ((e,) if e.__class__ is int else e for e in ends)
    if not us or not vs:
        fail("branch {1} misses a preimage of {0}")
    ranked = [
        (min(v - u, M - v + u), (u, v))
        for u, v in ((min(u, v), max(u, v)) for u in us for v in vs)
        if not any(c != u != e and c != v != e and (u < c < v) != (u < e < v) for c, e in obstacles)
    ]
    if not ranked:
        fail("every lift of {0} in branch {1} crosses the inputs")
    return min(ranked)[1]


def _preimage_rows(zs, d: int, M: int, points: list[int], branches) -> dict[int, tuple]:
    """Each z's preimages ``z // d + j * M / d`` by branch number, each
    placed by a bisect into the sorted cut points: the branch's one
    preimage, else a tuple of its 0 or 2+ preimages there, in order."""
    number = [i for _, i in sorted((s, i) for i, b in enumerate(branches) for s, _ in b)]  # each cut point's branch
    rows = {}
    for z in zs:
        row = [()] * len(branches)
        for p in range(z // d, M, M // d):
            k = bisect_right(points, p) - 1  # -1: the arc from the last cut point past 0
            for i in {number[k], number[k - 1]} if points[k] == p else (number[k],):
                row[i] += (p,)  # p joins the branch of its arc, and of the arc it ends
        rows[z] = tuple(ps[0] if len(ps) == 1 else ps for ps in row)
    return rows


def pullback_step(chord_set: ChordSet, crit: CriticalChordSet) -> ChordSet:
    """One level of preimages of the input's chords, through every branch.

    Runs on the input's residue view (``ChordSet._view``) rescaled to M,
    the lcm of d times its modulus and the critical chords' denominators.
    A lift is forced, the pair of its endpoints' preimages, when the branch
    holds one of each (see :func:`_preimage_rows`); :func:`_lift` ranks the
    rest.  The result is its view mod M, contains its input and is verified.
    An input that this function returned for equal critical chords has only
    the chords that step added lifted, and is not pre-checked against the
    critical chords (exact, as the module docstring shows); any other input
    has every chord lifted and pre-checked.
    """
    d = chord_set.degree
    if d != crit.degree:
        raise PullbackError("degree mismatch between chord set and critical chords")
    M_in, inputs, chords = chord_set._view
    used, fresh = getattr(chord_set, "_stamp", (None, None))
    if used != crit.chords:  # not a step's output through these critical chords: lift and pre-check all
        fresh = inputs
        for s in chords:  # in Chord order, so the first crossing input chord is named
            for c in crit.chords:
                if chords_cross(s, c):
                    raise PullbackError(f"chord {s} crosses critical chord {c}")

    M, cuts = _class_residues([(c.a, c.b) for c in crit.chords], d * M_in)
    inputs, fresh = ([(x * (M // M_in), y * (M // M_in)) for x, y in ps] for ps in (inputs, fresh))  # still sorted
    obstacles = inputs + cuts  # the inputs, then the critical chords
    points = sorted({p for c in cuts for p in c})
    branches = _regions(cuts, points)
    rows = _preimage_rows({z for pair in fresh for z in pair}, d, M, points, branches)
    added = {
        ((u, v) if u < v else (v, u)) if u.__class__ is v.__class__ is int else _lift(x, y, b, M, obstacles, (u, v))
        for x, y in fresh for b, u, v in zip(branches, rows[x], rows[y])
    }
    made = {(u, v): Chord._from_sorted(Fraction(u, M), Fraction(v, M)) for u, v in added.difference(inputs)}
    items = sorted([*zip(inputs, chords), *made.items()])  # residue pairs sort like chords
    out = _set_view(object.__new__(ChordSet), d, M, items)
    out.check()
    object.__setattr__(out, "_stamp", (crit.chords, sorted(made)))
    return out


@dataclass
class ApproxSequence:
    """Nested finite approximations produced by iterated pullback."""

    degree: int
    chords_used: Optional[CriticalChordSet]
    start: ClassLamination
    levels: list[ChordSet]

    def counts(self) -> list[int]:
        return [len(s) for s in self.levels]


def pullback_lamination(
    start: ClassLamination, crit: CriticalChordSet, depth: int
) -> ApproxSequence:
    """Iterate :func:`pullback_step` from the lamination's edge set.

    Step 1 lifts and pre-checks every edge; each later step lifts only the
    chords the step before it added."""
    if start.degree != crit.degree:
        raise PullbackError("degree mismatch")
    if depth < 0:
        raise PullbackError(f"pullback depth must be >= 0, got {depth}")
    # each level contains the one before it: pullback_step returns its input plus the lifts
    levels = [start.as_chordset()]
    for step in range(1, depth + 1):
        try:
            levels.append(pullback_step(levels[-1], crit))
        except LaminationError as exc:
            raise PullbackError(f"pullback step {step}: the lifts make crossing chords: {exc}") from exc
    return ApproxSequence(start.degree, crit, start, levels)


# --- the lamination metric --------------------------------------------------------


def _nearest_leaf_max(src: list[tuple[int, int]], dst: list[tuple[int, int]], D: int) -> int:
    """Max over ``src`` leaves of the distance to the nearest ``dst`` or
    degenerate leaf, all leaves as residue pairs mod D."""
    leaves = sorted(dst + [(y, x) for x, y in dst])  # both orientations, by first end
    xs = [x for x, _ in leaves]
    n = len(leaves)
    worst = 0
    for a, b in src:
        best = min((a - b) % D, (b - a) % D)  # the nearest degenerate leaf
        right = bisect_left(xs, a)
        left = right - 1
        for _ in range(n):
            up, down = (xs[right % n] - a) % D, (a - xs[left % n]) % D
            if up <= down:
                k, gap, right = right % n, up, right + 1
            else:
                k, gap, left = left % n, down, left - 1
            if gap >= best:
                break
            y = leaves[k][1]
            best = min(best, gap + (b - y) % D, gap + (y - b) % D)
        worst = max(worst, best)
    return worst


def lamination_distance(a: ChordSet, b: ChordSet) -> Fraction:
    """Hausdorff distance between leaf sets extended by all degenerate leaves.

    Runs on the two residue views rescaled to the lcm D of their moduli.
    For each leaf (u, v), the other set's leaves are scanned by their first
    end x outward from u, nearer side first, so the distance from u to x
    only grows; the scan stops once that distance alone is no better than
    the best leaf found.
    """
    if a.degree != b.degree:
        raise PullbackError("degree mismatch")
    D = lcm(a._view[0], b._view[0])
    la, lb = ([(x * (D // M), y * (D // M)) for x, y in pairs] for M, pairs, _ in (a._view, b._view))
    return Fraction(max(_nearest_leaf_max(la, lb, D), _nearest_leaf_max(lb, la, D)), D)


# --- properness / cleanliness scans ------------------------------------------------


@dataclass
class PropernessReport:
    critical_leaves_with_periodic_endpoint: list[Chord]
    critical_wedges_with_periodic_vertex: list[tuple[Angle, Chord, Chord]]
    unclean_points: list[tuple[Angle, int]]
    period_mismatch_leaves: list[Chord]

    @property
    def proper_so_far(self) -> bool:
        return not (
            self.critical_leaves_with_periodic_endpoint
            or self.critical_wedges_with_periodic_vertex
        )


def properness_report(chord_set: ChordSet) -> PropernessReport:
    """Scan a finite chord set for obstructions to properness.

    Reports critical leaves with a periodic endpoint, critical wedges
    (same-image leaf pairs at a shared vertex) with periodic vertex, points
    where three or more leaves meet, and leaves with a periodic endpoint
    whose endpoints differ in ``OrbitInfo``, i.e. are not periodic of one period.
    """
    d = chord_set.degree
    L, pairs, chords = chord_set._view
    info = _orbits(lambda x: d * x % L, (x for pair in pairs for x in pair))

    def image(x, y):  # None when the leaf is critical
        return None if d * x % L == d * y % L else sorted((d * x % L, d * y % L))

    critical_leaves, mismatched = [], []
    for (x, y), c in zip(pairs, chords):  # each residue pair keeps its Chord for the report
        if info[x].preperiod == 0 or info[y].preperiod == 0:
            if image(x, y) is None:
                critical_leaves.append(c)
            if info[x] != info[y]:
                mismatched.append(c)

    at_point: dict[int, list[tuple[tuple[int, int], Chord]]] = {}
    for pair in zip(pairs, chords):
        at_point.setdefault(pair[0][0], []).append(pair)
        at_point.setdefault(pair[0][1], []).append(pair)

    wedges = []
    for v, incident in sorted(at_point.items()):
        if info[v].preperiod != 0:
            continue
        for (e1, c1), (e2, c2) in combinations(incident, 2):
            i1 = image(*e1)
            if i1 is not None and i1 == image(*e2):
                wedges.append((Fraction(v, L), c1, c2))

    unclean = [(Fraction(v, L), len(cs)) for v, cs in sorted(at_point.items()) if len(cs) >= 3]

    return PropernessReport(critical_leaves, wedges, unclean, mismatched)


# --- nested critical gaps at finite depth ------------------------------------------


@dataclass
class NestingStep:
    fdl: FDL
    tracked: list[RoundGap]


@dataclass
class NestingReport:
    steps: list[NestingStep]
    strict_shrinks: list[bool]
    arc_counts: list[list[int]]


def _critical_round_gaps(lam: ClassLamination) -> list[tuple[int, RoundGap]]:
    out = []
    for entry in criticality_audit(lam).entries:
        gap, status = entry.gap, entry.status
        if entry.kind != GAP_ROUND:
            continue
        if status.kind != DEGREE_KNOWN:
            raise PullbackError(f"{gap} has no degree")
        if status.degree >= 2:
            out.append((status.degree, gap))
    return out


def _gap_inside(inner: RoundGap, outer: RoundGap) -> bool:
    # Precondition: inner is a gap of a lamination that refines outer's.  Then
    # inner lies in the one gap of outer's lamination that holds the midpoint
    # of inner's first arc, and no vertex of either lamination lies there.
    s, e = inner.arcs[0]
    return outer.contains_point(s + (e - s) % 1 / 2)


def hyperbolic_approx(start: FDL, depth: int) -> NestingReport:
    """Drive each critical round gap onto a nested same-degree successor.

    Starting from a lamination whose round gaps all have degrees and which
    has at least one critical round gap, repeatedly pick the child that
    keeps, inside every tracked gap, a critical round gap of equal degree;
    ties resolve to the smallest angles of these successors, then to the
    child with the smallest canonical key.  A successor is chosen only
    among gaps inside its tracked gap, so the steps nest by construction,
    and is unique: a degree-k gap carries criticality k - 1, shared by the
    child's gaps and polygons inside it, so two degree-k gaps need 2(k - 1).
    """
    if depth < 0:
        raise PullbackError(f"nesting depth must be >= 0, got {depth}")
    tracked = _critical_round_gaps(start.lamination)
    if not tracked:
        raise PullbackError("need at least one critical round gap")
    degrees = [deg for deg, _ in tracked]  # a successor keeps its gap's degree
    steps = [NestingStep(start, [g for _, g in tracked])]
    for _ in range(depth):
        found = []
        for child in enumerate_children(steps[-1].fdl):
            child_gaps = _critical_round_gaps(child.lamination)
            successors = [
                next((g for cdeg, g in child_gaps if cdeg == deg and _gap_inside(g, gap)), None)
                for deg, gap in zip(degrees, steps[-1].tracked)
            ]
            if None not in successors:
                found.append((child, successors))
        if not found:
            raise PullbackError("no child preserves the nested critical gaps")
        child, successors = min(found, key=lambda f: ([g.smallest_angle() for g in f[1]], f[0].key()))
        steps.append(NestingStep(child, successors))

    strict = [
        any(g_next != g_prev for g_prev, g_next in zip(prev.tracked, nxt.tracked))
        for prev, nxt in zip(steps, steps[1:])
    ]
    arc_counts = [[len(g.arcs) for g in s.tracked] for s in steps]
    return NestingReport(steps, strict, arc_counts)
