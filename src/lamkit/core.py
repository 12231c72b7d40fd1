"""Chords, polygon classes, finite laminations, and their gap structure.

A finite lamination is stored either as disjoint polygon classes
(:class:`ClassLamination`) or as a raw non-crossing chord collection
(:class:`ChordSet`, which tolerates shared endpoints and therefore wedges
and unclean points).  The complement of a class lamination decomposes into
polygon gaps (the hulls themselves) and round gaps (components carrying
circle arcs); round gaps are found by an exact boundary walk, and each gap
gets a covering degree by preimage counting at generic rational samples.
The criticality audit checks the excess-degree identity
``sum_i (d_i - 1) = d - 1`` over all gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

from .circle import (
    Angle,
    arc_len,
    check_degree,
    circle_dist,
    in_closed_arc,
    in_open_arc,
    mod1,
    sigma,
)


class LaminationError(ValueError):
    """Raised when a lamination or chord-set invariant is violated."""


@dataclass(frozen=True, order=True)
class Chord:
    """Unordered pair of distinct circle points, stored with a < b."""

    a: Angle
    b: Angle

    def __post_init__(self):
        a, b = mod1(self.a), mod1(self.b)
        if a == b:
            raise LaminationError(f"degenerate chord at {a}")
        if a > b:
            a, b = b, a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def endpoints(self) -> tuple[Angle, Angle]:
        return (self.a, self.b)

    def is_critical(self, d: int) -> bool:
        return sigma(self.a, d) == sigma(self.b, d)

    def image(self, d: int) -> Optional["Chord"]:
        """Image chord under sigma, or None when it collapses to a point."""
        ia, ib = sigma(self.a, d), sigma(self.b, d)
        if ia == ib:
            return None
        return Chord(ia, ib)

    def length(self) -> Fraction:
        return circle_dist(self.a, self.b)

    def shares_endpoint(self, other: "Chord") -> bool:
        return bool({self.a, self.b} & {other.a, other.b})

    def __str__(self):
        return f"({self.a},{self.b})"


def chords_cross(c1: Chord, c2: Chord) -> bool:
    """True iff the two chords cross in the open disk.

    Sharing an endpoint is not crossing.  Exact test: the chords cross iff
    exactly one endpoint of c2 lies strictly inside one open arc cut by c1.
    """
    if c1.shares_endpoint(c2):
        return False
    return in_open_arc(c2.a, c1.a, c1.b) != in_open_arc(c2.b, c1.a, c1.b)


@dataclass(frozen=True, order=True)
class PolygonClass:
    """Convex hull of a finite set of >= 2 circle points.

    Vertices are stored in increasing circular order starting from the
    smallest angle; hull edges join circularly adjacent vertices (a 2-gon
    has a single edge).
    """

    vertices: tuple[Angle, ...]

    def __post_init__(self):
        verts = tuple(sorted(mod1(v) for v in self.vertices))
        if len(verts) < 2:
            raise LaminationError(f"polygon class needs >= 2 vertices, got {verts}")
        if len(set(verts)) != len(verts):
            raise LaminationError(f"duplicate vertices in {verts}")
        object.__setattr__(self, "vertices", verts)

    def __len__(self):
        return len(self.vertices)

    def edges(self) -> tuple[Chord, ...]:
        v = self.vertices
        if len(v) == 2:
            return (Chord(v[0], v[1]),)
        return tuple(Chord(v[i], v[(i + 1) % len(v)]) for i in range(len(v)))

    def image_vertices(self, d: int) -> tuple[Angle, ...]:
        return tuple(sorted({sigma(v, d) for v in self.vertices}))

    def image(self, d: int) -> Optional["PolygonClass"]:
        """Image class under sigma, or None when all vertices collapse."""
        img = self.image_vertices(d)
        if len(img) < 2:
            return None
        return PolygonClass(img)

    def __str__(self):
        return "{" + ",".join(str(v) for v in self.vertices) + "}"


def polygons_conflict(p1: PolygonClass, p2: PolygonClass) -> bool:
    """True if the classes share a vertex or their hull edges cross."""
    if set(p1.vertices) & set(p2.vertices):
        return True
    return any(chords_cross(e1, e2) for e1 in p1.edges() for e2 in p2.edges())


@dataclass(frozen=True)
class ClassLamination:
    """A finite lamination presented as pairwise disjoint polygon classes."""

    degree: int
    classes: frozenset[PolygonClass]

    def __post_init__(self):
        check_degree(self.degree)
        object.__setattr__(self, "classes", frozenset(self.classes))

    @classmethod
    def create(cls, degree: int, classes: Iterable[PolygonClass]) -> "ClassLamination":
        """Build and validate the disjointness / non-crossing invariants."""
        lam = cls(degree, frozenset(classes))
        lam.check()
        return lam

    def check(self):
        # immutable, so one successful check is enough for a lifetime
        if getattr(self, "_checked", False):
            return
        for p1, p2 in combinations(self.sorted_classes(), 2):
            if set(p1.vertices) & set(p2.vertices):
                raise LaminationError(f"classes {p1} and {p2} share a vertex")
            if polygons_conflict(p1, p2):
                raise LaminationError(f"classes {p1} and {p2} cross")
        self._mark_checked()

    def _mark_checked(self):
        object.__setattr__(self, "_checked", True)

    def sorted_classes(self) -> list[PolygonClass]:
        return sorted(self.classes, key=lambda c: c.vertices)

    def all_edges(self) -> set[Chord]:
        out: set[Chord] = set()
        for c in self.classes:
            out.update(c.edges())
        return out

    def all_vertices(self) -> set[Angle]:
        out: set[Angle] = set()
        for c in self.classes:
            out.update(c.vertices)
        return out

    def as_chordset(self) -> "ChordSet":
        return ChordSet(self.degree, frozenset(self.all_edges()))

    def __str__(self):
        return f"ClassLamination(d={self.degree}, {len(self.classes)} classes)"


@dataclass(frozen=True)
class ChordSet:
    """A finite non-crossing chord collection; shared endpoints allowed."""

    degree: int
    chords: frozenset[Chord]

    def __post_init__(self):
        check_degree(self.degree)
        object.__setattr__(self, "chords", frozenset(self.chords))

    @classmethod
    def create(cls, degree: int, chords: Iterable[Chord]) -> "ChordSet":
        cs = cls(degree, frozenset(chords))
        cs.check()
        return cs

    def check(self):
        for c1, c2 in combinations(sorted(self.chords), 2):
            if chords_cross(c1, c2):
                raise LaminationError(f"chords {c1} and {c2} cross")

    def sorted_chords(self) -> list[Chord]:
        return sorted(self.chords)

    def __len__(self):
        return len(self.chords)


# --- covering structure of a polygon -----------------------------------------

COVERING = "covering"
COLLAPSES_TO_POINT = "collapses_to_point"
COLLAPSES_TO_LEAF = "collapses_to_leaf"
NOT_COVERING = "not_covering"


@dataclass(frozen=True)
class CoveringResult:
    """How sigma acts on a polygon's boundary.

    ``covering``: the vertex images, read counterclockwise, run through the
    image polygon's vertex cycle exactly ``degree`` times with positive
    orientation.  ``collapses_to_point`` / ``collapses_to_leaf`` carry the
    degree convention for degenerate images; orientation-reversing maps and
    irregular images are ``not_covering`` and carry no degree.
    """

    kind: str
    degree: Optional[int] = None

    @property
    def is_covering(self) -> bool:
        return self.kind == COVERING

    @property
    def has_degree(self) -> bool:
        return self.degree is not None


def covering_degree(poly: PolygonClass, d: int) -> CoveringResult:
    """Classify the boundary map of a polygon under sigma."""
    check_degree(d)
    imgs = [sigma(v, d) for v in poly.vertices]
    distinct = sorted(set(imgs))
    if len(distinct) == 1:
        return CoveringResult(COLLAPSES_TO_POINT, degree=len(poly))
    if len(distinct) == 2:
        if len(poly) == 2:
            return CoveringResult(COVERING, degree=1)
        # degree k needs 2k vertices alternating between the two fibers
        if len(poly) % 2 == 0 and all(imgs[i] != imgs[i + 1] for i in range(len(imgs) - 1)):
            return CoveringResult(COLLAPSES_TO_LEAF, degree=len(poly) // 2)
        return CoveringResult(NOT_COVERING)
    if len(imgs) % len(distinct) != 0:
        return CoveringResult(NOT_COVERING)
    k = len(imgs) // len(distinct)
    cycle = sorted(distinct, key=lambda p: (p - imgs[0]) % 1)
    if imgs == cycle * k:
        return CoveringResult(COVERING, degree=k)
    return CoveringResult(NOT_COVERING)


# --- gap decomposition --------------------------------------------------------

GAP_POLYGON = "polygon"
GAP_ROUND = "round"

DEGREE_KNOWN = "degree"
PARTLY_CRITICAL = "partly_critical"
DEGREE_UNDEFINED = "undefined"


@dataclass(frozen=True)
class DegreeStatus:
    kind: str
    degree: Optional[int] = None

    def __str__(self):
        return f"Degree({self.degree})" if self.kind == DEGREE_KNOWN else self.kind


@dataclass(frozen=True)
class RoundGap:
    """Closure of a complementary component touching the circle.

    ``arcs`` lists the closed basis arcs (start, end) in walk order,
    canonicalized to begin at the smallest start angle; the full circle is
    encoded as the single arc (0, 0).  ``chords`` are the bounding hull
    edges, one per hole.
    """

    arcs: tuple[tuple[Angle, Angle], ...]
    chords: tuple[Chord, ...]

    @property
    def is_full_circle(self) -> bool:
        return len(self.arcs) == 1 and self.arcs[0][0] == self.arcs[0][1]

    def basis_length(self) -> Fraction:
        if self.is_full_circle:
            return Fraction(1)
        return sum((arc_len(s, e) for s, e in self.arcs), Fraction(0))

    def contains_point(self, x: Angle) -> bool:
        if self.is_full_circle:
            return True
        return any(in_closed_arc(x, s, e) for s, e in self.arcs)

    def smallest_angle(self) -> Angle:
        if self.is_full_circle:
            return Fraction(0)
        return min(s for s, _ in self.arcs)

    def __str__(self):
        if self.is_full_circle:
            return "RoundGap(full circle)"
        return "RoundGap(" + " u ".join(f"[{s},{e}]" for s, e in self.arcs) + ")"


@dataclass(frozen=True)
class GapDecomposition:
    degree: int
    polygon_gaps: tuple[PolygonClass, ...]
    round_gaps: tuple[RoundGap, ...]

    def total_arc_length(self) -> Fraction:
        return sum((g.basis_length() for g in self.round_gaps), Fraction(0))


def gap_decomposition(lam: ClassLamination) -> GapDecomposition:
    """Split the disk along the lamination's hulls.

    Round gaps are traced by the boundary walk: follow the circle
    counterclockwise to the next class vertex, then jump along the hull
    edge hanging on the clockwise side of that vertex (for vertex w of
    class K this is the edge to K's circular predecessor of w), and repeat
    until the starting arc closes up.
    """
    lam.check()
    polys = lam.sorted_classes()
    if not polys:
        full = RoundGap(arcs=((Fraction(0), Fraction(0)),), chords=())
        return GapDecomposition(lam.degree, (), (full,))

    owner: dict[Angle, PolygonClass] = {}
    for p in polys:
        for v in p.vertices:
            owner[v] = p

    def class_prev(w: Angle) -> Angle:
        verts = owner[w].vertices
        i = verts.index(w)
        return verts[i - 1]

    all_verts = sorted(owner)
    succ = {all_verts[i]: all_verts[(i + 1) % len(all_verts)] for i in range(len(all_verts))}

    unused_arcs = {v: True for v in all_verts}  # arc starting at v
    round_gaps = []
    for start in all_verts:
        if not unused_arcs[start]:
            continue
        arcs = []
        chords = []
        p = start
        while True:
            w = succ[p]
            arcs.append((p, w))
            unused_arcs[p] = False
            q = class_prev(w)
            chords.append(Chord(w, q))
            p = q
            if p == start and not unused_arcs.get(start, True):
                break
            if unused_arcs[p] is False and p != start:
                raise LaminationError("gap walk revisited an arc; invalid lamination")
        # canonicalize: rotate the arc list to begin at the smallest start
        k = min(range(len(arcs)), key=lambda i: arcs[i][0])
        arcs = arcs[k:] + arcs[:k]
        chords = chords[k:] + chords[:k]
        round_gaps.append(RoundGap(tuple(arcs), tuple(chords)))

    round_gaps.sort(key=lambda g: g.arcs[0][0])
    decomp = GapDecomposition(lam.degree, tuple(polys), tuple(round_gaps))
    if decomp.total_arc_length() != 1:
        raise LaminationError(
            f"round gap arcs sum to {decomp.total_arc_length()}, expected 1"
        )
    return decomp


def _merge_cyclic_arcs(arcs: list[tuple[Angle, Angle]]) -> Optional[list[tuple[Angle, Angle]]]:
    """Union of closed arcs on the circle; None means the union is everything."""
    events = []
    for s, e in arcs:
        ln = arc_len(s, e)
        if ln >= 1:
            return None
        events.append((mod1(s), ln))
    events.sort()
    merged: list[list[Fraction]] = []
    for s, ln in events:
        if merged and (s - merged[-1][0]) % 1 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], ((s - merged[-1][0]) % 1) + ln)
        else:
            merged.append([s, ln])
    if len(merged) > 1:
        # wrap: last component may absorb the first
        s0, l0 = merged[0]
        sl, ll = merged[-1]
        if ((s0 - sl) % 1) <= ll:
            ll = max(ll, ((s0 - sl) % 1) + l0)
            merged[-1][1] = ll
            merged.pop(0)
    if any(ln >= 1 for _, ln in merged):
        return None
    return [(s, mod1(s + ln)) for s, ln in merged]


def gap_degree(gap: RoundGap, d: int) -> DegreeStatus:
    """Degree of sigma on a round gap, by exact preimage counting.

    Samples are the midpoints of the image-arc components plus one extra
    independent sample, nudged off any image of a basis endpoint.  A gap
    has degree k when every sample has exactly k preimages in the basis and
    every basis arc maps injectively (length <= 1/d); a gap whose basis
    image wraps the whole circle without meeting that bar is partly
    critical; anything else has no degree.
    """
    check_degree(d)
    if gap.is_full_circle:
        return DegreeStatus(DEGREE_KNOWN, d)

    arcs = list(gap.arcs)
    arcs_inject = all(arc_len(s, e) <= Fraction(1, d) for s, e in arcs)
    image_arcs = []
    covers = False
    for s, e in arcs:
        if arc_len(s, e) >= Fraction(1, d):
            covers = True
        else:
            image_arcs.append((sigma(s, d), sigma(e, d)))
    if not covers:
        components = _merge_cyclic_arcs(image_arcs)
        if components is None:
            covers = True
            components = []
    else:
        components = []

    endpoint_images = {sigma(p, d) for s, e in arcs for p in (s, e)}

    def pick_sample(s: Angle, ln: Fraction, skip: set) -> Angle:
        # midpoint first, then ever finer rational offsets; endpoint_images
        # is finite, so this terminates
        den = 2
        while True:
            cand = mod1(s + ln / den)
            if cand not in endpoint_images and cand not in skip:
                return cand
            den += 1

    def generic_samples() -> list[Angle]:
        if covers or not components:
            base = [(Fraction(0), Fraction(1))]
        else:
            base = [(s, arc_len(s, e)) for s, e in components]
        samples = [pick_sample(s, ln, set()) for s, ln in base]
        # one extra independent sample off the first component
        s, ln = base[0]
        samples.append(pick_sample(s + ln / 7, ln, set(samples)))
        return samples

    def count_basis_preimages(theta: Angle) -> int:
        return sum(1 for k in range(d) if gap.contains_point((theta + k) / d))

    counts = {count_basis_preimages(t) for t in generic_samples()}
    uniform = len(counts) == 1
    if uniform and arcs_inject:
        return DegreeStatus(DEGREE_KNOWN, counts.pop())
    if covers:
        return DegreeStatus(PARTLY_CRITICAL)
    return DegreeStatus(DEGREE_UNDEFINED)


# --- criticality audit --------------------------------------------------------


@dataclass(frozen=True)
class GapAudit:
    gap: object  # PolygonClass or RoundGap
    kind: str
    status: DegreeStatus


@dataclass(frozen=True)
class CriticalityAudit:
    degree: int
    entries: tuple[GapAudit, ...]
    applicable: bool
    passed: bool
    excess: Optional[int]
    offenders: tuple[GapAudit, ...]


def criticality_audit(lam: ClassLamination) -> CriticalityAudit:
    """Audit the excess-degree identity sum_i (d_i - 1) = d - 1 over all gaps.

    Polygon gaps get their degree from :func:`covering_degree` (with the
    degenerate-image conventions), round gaps from :func:`gap_degree`.  Any
    gap without a degree makes the audit inapplicable and is listed as an
    offender.
    """
    d = lam.degree
    decomp = gap_decomposition(lam)
    entries = []
    for poly in decomp.polygon_gaps:
        cov = covering_degree(poly, d)
        if cov.has_degree:
            status = DegreeStatus(DEGREE_KNOWN, cov.degree)
        else:
            status = DegreeStatus(DEGREE_UNDEFINED)
        entries.append(GapAudit(poly, GAP_POLYGON, status))
    for gap in decomp.round_gaps:
        entries.append(GapAudit(gap, GAP_ROUND, gap_degree(gap, d)))

    offenders = tuple(e for e in entries if e.status.kind != DEGREE_KNOWN)
    if offenders:
        return CriticalityAudit(d, tuple(entries), False, False, None, offenders)
    excess = sum(e.status.degree - 1 for e in entries)
    return CriticalityAudit(d, tuple(entries), True, excess == d - 1, excess, ())
