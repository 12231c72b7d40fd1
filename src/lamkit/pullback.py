"""Critical-chord placement, pullback approximations, metric, and scans.

A set of d-1 pairwise compatible critical chords (no closed loop) cuts the
disk into d branches whose bases each map onto the circle.  Pulling a
chord set back means lifting every chord through every branch: a chord's
subtended arc of length L lifts to d arcs of length L/d, one per preimage
of its start point, and the lift whose arc fits inside the branch supplies
that branch's preimage chord.  When a chord endpoint equals a critical
value both of its lifts can fit; candidates that would cross the inputs
are discarded and the shorter surviving lift wins, which reproduces the
wedges that accumulate at forced endpoints.

This module also exposes the exact lamination metric (Hausdorff over
leaves plus all degenerate leaves), properness and cleanliness scans, and
the finite-depth nested-critical-gap construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .circle import (
    Angle,
    arc_len,
    check_degree,
    circle_dist,
    in_closed_arc,
    in_open_arc,
    orbit_info,
    preimages,
    sigma,
)
from .core import (
    DEGREE_KNOWN,
    Chord,
    ChordSet,
    ClassLamination,
    RoundGap,
    chords_cross,
    covering_degree,
    gap_decomposition,
    gap_degree,
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
        for i, c1 in enumerate(self.chords):
            for c2 in self.chords[i + 1 :]:
                if chords_cross(c1, c2):
                    raise PullbackError(f"critical chords {c1} and {c2} cross")
        if self._has_loop():
            raise PullbackError("critical chords close a loop")
        for branch in self.branches():
            total = sum((arc_len(s, e) for s, e in branch), Fraction(0))
            if total != Fraction(1, d):
                raise PullbackError(
                    f"branch {branch} has basis length {total}, expected 1/{d}"
                )

    def _has_loop(self) -> bool:
        adj: dict[Angle, set[Angle]] = {}
        for c in self.chords:
            adj.setdefault(c.a, set()).add(c.b)
            adj.setdefault(c.b, set()).add(c.a)
        seen: set[Angle] = set()
        for start in adj:
            if start in seen:
                continue
            stack = [(start, None)]
            while stack:
                v, par = stack.pop()
                if v in seen:
                    return True
                seen.add(v)
                for w in adj[v]:
                    if w != par:
                        stack.append((w, v))
        return False

    def cut_points(self) -> list[Angle]:
        return sorted({p for c in self.chords for p in (c.a, c.b)})

    def critical_values(self) -> set[Angle]:
        return {sigma(c.a, self.degree) for c in self.chords}

    def branches(self) -> list[tuple[tuple[Angle, Angle], ...]]:
        """The d complementary regions, each as a tuple of closed basis arcs."""
        cuts = self.cut_points()
        if not cuts:
            return [((Fraction(0), Fraction(0)),)]  # whole circle (degree 1 never occurs)
        arcs = [
            (cuts[i], cuts[(i + 1) % len(cuts)]) for i in range(len(cuts))
        ]
        regions: list[list[tuple[Angle, Angle]]] = [arcs]
        for chord in self.chords:
            a, b = chord.a, chord.b
            for idx, region in enumerate(regions):
                inside = [arc for arc in region if _arc_within(arc, a, b)]
                outside = [arc for arc in region if arc not in inside]
                if inside and outside:
                    regions[idx] = inside
                    regions.append(outside)
                    break
            else:
                raise PullbackError(f"chord {chord} does not split any region")
        return [tuple(sorted(r)) for r in sorted(regions)]


def _arc_within(arc: tuple[Angle, Angle], a: Angle, b: Angle) -> bool:
    """Is the closed arc contained in the closed counterclockwise arc [a, b]?"""
    s, e = arc
    rel_s = (s - a) % 1
    rel_e = (e - a) % 1
    span = (b - a) % 1
    return rel_s <= rel_e <= span


# --- placement of critical chords ------------------------------------------------


def place_critical_chords(lam: ClassLamination, enumerate_all: bool = False) -> list[CriticalChordSet]:
    """Chain d_i - 1 critical chords through every critical gap.

    Every gap (round or polygon) of degree k contributes a chain of k - 1
    critical chords joining consecutive same-image points of its basis; the
    canonical placement anchors each chain at the gap's smallest basis
    angle, and the enumeration mode anchors at every basis arc endpoint
    (every vertex, for polygons).  Gaps without a degree are a
    precondition failure.
    """
    d = lam.degree
    decomp = gap_decomposition(lam)
    gap_anchor_options: list[list[list[Chord]]] = []
    for poly in decomp.polygon_gaps:
        cov = covering_degree(poly, d)
        if not cov.has_degree:
            raise PullbackError(f"polygon {poly} has no degree; cannot place chords")
        if cov.degree < 2:
            continue
        anchors = [poly.vertices[0]] if not enumerate_all else list(poly.vertices)
        gap_anchor_options.append(
            _chains(anchors, cov.degree, d, lambda p, poly=poly: p in set(poly.vertices))
        )
    for gap in decomp.round_gaps:
        status = gap_degree(gap, d)
        if status.kind != DEGREE_KNOWN:
            raise PullbackError(f"{gap} has no degree; cannot place chords")
        if status.degree < 2:
            continue
        if not enumerate_all:
            anchors = [gap.smallest_angle()]
        else:
            anchors = sorted({p for s, e in gap.arcs for p in (s, e)})
            if gap.is_full_circle:
                anchors = [Fraction(0)]
        gap_anchor_options.append(
            _chains(anchors, status.degree, d, gap.contains_point)
        )

    if not gap_anchor_options:
        raise PullbackError("no critical gaps; nothing to place")

    results = []
    from itertools import product

    for combo in product(*gap_anchor_options):
        chords = [c for chain in combo for c in chain]
        results.append(CriticalChordSet.create(d, chords))
    # dedupe while keeping deterministic order
    seen = set()
    out = []
    for cs in results:
        if cs.chords not in seen:
            seen.add(cs.chords)
            out.append(cs)
    return out


def _chains(anchors, k: int, d: int, contains) -> list[list[Chord]]:
    """One chain of k-1 critical chords per anchor point."""
    chains = []
    for anchor in anchors:
        value = sigma(anchor, d)
        sibs = [p for p in preimages(value, d) if contains(p)]
        if anchor not in sibs or len(sibs) != k:
            raise PullbackError(
                f"anchor {anchor} has {len(sibs)} same-image points in its gap, expected {k}"
            )
        ordered = sorted(sibs, key=lambda p: (p - anchor) % 1)
        chains.append([Chord(ordered[j], ordered[j + 1]) for j in range(k - 1)])
    return chains


# --- pullback steps ---------------------------------------------------------------


def _arc_lift_length(alpha: Angle, beta: Angle, chord: Chord, branch, cuts, d: int):
    """Length of the connected lift arc alpha->beta or beta->alpha, if any.

    A connected lift must run inside the branch closure (no cut point
    strictly inside) and have exactly a 1/d share of the corresponding
    subtended arc of the original chord.
    """
    for start, end in ((chord.a, chord.b), (chord.b, chord.a)):
        lift_len = Fraction((end - start) % 1, d)
        for lo, hi in ((alpha, beta), (beta, alpha)):
            if (hi - lo) % 1 == lift_len and not any(
                in_open_arc(p, lo, hi) for p in cuts
            ):
                if sigma(lo, d) == start and sigma(hi, d) == end:
                    return lift_len
    return None


def _branch_lift(chord: Chord, branch, cuts, d: int, obstacles) -> Chord:
    """The branch's preimage chord of ``chord``.

    Generically each endpoint has one preimage in the branch closure and
    the chord is forced.  When an endpoint equals a critical value, both
    of its preimages can lie on the branch boundary; then candidates
    crossing the fixed inputs are discarded outright, candidates with a
    connected arc-lift are preferred, and the shortest lift wins.
    """

    def in_branch(p):
        return any(in_closed_arc(p, s, e) for s, e in branch)

    p_a = [p for p in preimages(chord.a, d) if in_branch(p)]
    p_b = [p for p in preimages(chord.b, d) if in_branch(p)]
    if not p_a or not p_b:
        raise PullbackError(f"branch {branch} misses a preimage of {chord}")
    pairs = [(alpha, beta) for alpha in p_a for beta in p_b]
    if len(pairs) == 1:
        return Chord(*pairs[0])

    ranked = []
    for alpha, beta in pairs:
        cand = Chord(alpha, beta)
        if any(chords_cross(cand, o) for o in obstacles):
            continue
        lift = _arc_lift_length(alpha, beta, chord, branch, cuts, d)
        ranked.append((lift is None, lift if lift is not None else cand.length(), cand))
    if not ranked:
        raise PullbackError(f"every lift of {chord} in branch {branch} crosses the inputs")
    ranked.sort()
    return ranked[0][2]


def pullback_step(chord_set: ChordSet, crit: CriticalChordSet) -> ChordSet:
    """One level of preimages of every chord, through every branch.

    The result contains its input and is verified non-crossing.
    """
    d = chord_set.degree
    if d != crit.degree:
        raise PullbackError("degree mismatch between chord set and critical chords")
    fixed = list(chord_set.chords)
    for s in fixed:
        for c in crit.chords:
            if chords_cross(s, c):
                raise PullbackError(f"chord {s} crosses critical chord {c}")

    obstacles = fixed + list(crit.chords)
    branches = crit.branches()
    cuts = set(crit.cut_points())
    added: list[Chord] = []
    for chord in sorted(chord_set.chords):
        for branch in branches:
            added.append(_branch_lift(chord, branch, cuts, d, obstacles))

    result = ChordSet.create(d, set(chord_set.chords) | set(added))
    return result


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
    """Iterate :func:`pullback_step` from the lamination's edge set."""
    if start.degree != crit.degree:
        raise PullbackError("degree mismatch")
    levels = [start.as_chordset()]
    for _ in range(depth):
        levels.append(pullback_step(levels[-1], crit))
    for prev, nxt in zip(levels, levels[1:]):
        if not prev.chords <= nxt.chords:
            raise PullbackError("pullback levels failed to nest")
    return ApproxSequence(start.degree, crit, start, levels)


# --- the lamination metric --------------------------------------------------------


def leaf_distance(c1: Chord, c2: Chord) -> Fraction:
    """Min over endpoint pairings of the summed circle distances."""
    return min(
        circle_dist(c1.a, c2.a) + circle_dist(c1.b, c2.b),
        circle_dist(c1.a, c2.b) + circle_dist(c1.b, c2.a),
    )


def _leaf_to_set(c: Chord, others: Iterable[Chord]) -> Fraction:
    # nearest degenerate leaf sits on the short arc between the endpoints
    best = circle_dist(c.a, c.b)
    for o in others:
        cand = leaf_distance(c, o)
        if cand < best:
            best = cand
    return best


def lamination_distance(a: ChordSet, b: ChordSet) -> Fraction:
    """Hausdorff distance between leaf sets extended by all degenerate leaves."""
    if a.degree != b.degree:
        raise PullbackError("degree mismatch")
    d_ab = max((_leaf_to_set(c, b.chords) for c in a.chords), default=Fraction(0))
    d_ba = max((_leaf_to_set(c, a.chords) for c in b.chords), default=Fraction(0))
    return max(d_ab, d_ba)


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
    where three or more leaves meet, and leaves whose two endpoints are not
    periodic of one period when either endpoint is periodic.
    """
    d = chord_set.degree
    chords = chord_set.sorted_chords()
    periodic_cache: dict[Angle, tuple[int, int]] = {}

    def info(p: Angle):
        if p not in periodic_cache:
            periodic_cache[p] = orbit_info(p, d)
        return periodic_cache[p]

    critical_leaves = []
    for c in chords:
        if c.is_critical(d) and (info(c.a).preperiod == 0 or info(c.b).preperiod == 0):
            critical_leaves.append(c)

    at_point: dict[Angle, list[Chord]] = {}
    for c in chords:
        at_point.setdefault(c.a, []).append(c)
        at_point.setdefault(c.b, []).append(c)

    wedges = []
    for v, incident in sorted(at_point.items()):
        if len(incident) < 2 or info(v).preperiod != 0:
            continue
        for i, c1 in enumerate(incident):
            for c2 in incident[i + 1 :]:
                i1, i2 = c1.image(d), c2.image(d)
                if i1 is not None and i1 == i2:
                    wedges.append((v, c1, c2))

    unclean = [(v, len(cs)) for v, cs in sorted(at_point.items()) if len(cs) >= 3]

    mismatched = []
    for c in chords:
        ia, ib = info(c.a), info(c.b)
        if ia.preperiod == 0 or ib.preperiod == 0:
            if ia.preperiod != 0 or ib.preperiod != 0 or ia.period != ib.period:
                mismatched.append(c)

    return PropernessReport(critical_leaves, wedges, unclean, mismatched)


# --- nested critical gaps at finite depth ------------------------------------------


@dataclass
class NestingStep:
    fdl: FDL
    tracked: list[RoundGap]


@dataclass
class NestingReport:
    steps: list[NestingStep]
    nested: bool
    strict_shrinks: list[bool]
    arc_counts: list[list[int]]

    def levels(self) -> list[FDL]:
        return [s.fdl for s in self.steps]


def _critical_round_gaps(lam: ClassLamination) -> list[RoundGap]:
    out = []
    for gap in gap_decomposition(lam).round_gaps:
        status = gap_degree(gap, lam.degree)
        if status.kind != DEGREE_KNOWN:
            raise PullbackError(f"{gap} has no degree")
        if status.degree >= 2:
            out.append((status.degree, gap))
    return out


def _gap_inside(inner: RoundGap, outer: RoundGap) -> bool:
    if outer.is_full_circle:
        return True
    if inner.is_full_circle:
        return False
    return all(
        any(_arc_within(arc, s, e) for s, e in outer.arcs) for arc in inner.arcs
    )


def hyperbolic_approx(start: FDL, depth: int) -> NestingReport:
    """Drive each critical round gap onto a nested same-degree successor.

    Starting from a lamination whose round gaps all have degrees and which
    has at least one critical round gap, repeatedly pick the child that
    keeps, inside every tracked gap, a critical round gap of equal degree;
    ties resolve to the gap whose basis holds the smallest angle, then to
    the child with the smallest canonical key.
    """
    tracked = _critical_round_gaps(start.lamination)
    if not tracked:
        raise PullbackError("need at least one critical round gap")
    steps = [NestingStep(start, [g for _, g in tracked])]

    current = start
    current_tracked = tracked
    for _ in range(depth):
        best = None
        for child in enumerate_children(current):
            child_gaps = _critical_round_gaps(child.lamination)
            successors = []
            ok = True
            for deg, gap in current_tracked:
                nested = [
                    (g.smallest_angle(), cdeg, g)
                    for cdeg, g in child_gaps
                    if cdeg == deg and _gap_inside(g, gap)
                ]
                if not nested:
                    ok = False
                    break
                successors.append(min(nested))
            if not ok:
                continue
            sort_key = (tuple(s[0] for s in successors), child.key())
            if best is None or sort_key < best[0]:
                best = (sort_key, child, [(s[1], s[2]) for s in successors])
        if best is None:
            raise PullbackError("no child preserves the nested critical gaps")
        _, current, current_tracked = best
        steps.append(NestingStep(current, [g for _, g in current_tracked]))

    nested = True
    strict = []
    arc_counts = []
    for prev, nxt in zip(steps, steps[1:]):
        for g_prev, g_next in zip(prev.tracked, nxt.tracked):
            if not _gap_inside(g_next, g_prev):
                nested = False
        strict.append(
            any(g_next != g_prev for g_prev, g_next in zip(prev.tracked, nxt.tracked))
        )
    for s in steps:
        arc_counts.append([len(g.arcs) for g in s.tracked])
    return NestingReport(steps, nested, strict, arc_counts)
