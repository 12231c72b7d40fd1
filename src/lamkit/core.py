"""Chords, polygon classes, finite laminations, and their gap structure.

A finite lamination is stored either as disjoint polygon classes
(:class:`ClassLamination`) or as a raw non-crossing chord collection
(:class:`ChordSet`, which tolerates shared endpoints and therefore wedges
and unclean points).  The complement of a class lamination decomposes into
polygon gaps (the hulls themselves) and round gaps (components carrying
circle arcs).  One bracket sweep over the sorted endpoints (``_sweep``)
decides non-crossing (the class and chord-set checks sweep integer
residues) and groups tagged points by tag and innermost enclosing edge,
which names their region: preimages by target for portrait placement, arcs
by their start (``_regions``) for round gaps and critical-chord branches.
A lamination or chord set is its sorted residue view, which one helper
(``_set_view``) sets for every constructor; its public ``classes`` or
``chords`` frozenset is built on first use.  ``_IntModel`` holds classes
as residues mod D.  The gaps, validation and keys read a lamination's own
view mod M (``ClassLamination._model``); only placement scales classes by
d, mod d * M, where vertex preimages are residues too.  Class depths come
from one tail walk ``circle._orbits``, cached too.  The criticality audit
walks a lamination's model once and gives every gap its degree there: a
polygon from its vertex images (``_covering``), a round gap, one region of
the hull edges, by one coverage sweep over the images of its basis
endpoints (``_gap_degree``).  Its entries serve the excess-degree identity ``sum_i (d_i - 1) = d - 1``,
the gap decomposition and critical-chord placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Collection, Iterable, Optional, Sequence

from .circle import (
    Angle,
    _orbits,
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

    @classmethod
    def _from_sorted(cls, a: Angle, b: Angle) -> "Chord":
        # a < b, both in [0, 1): skip the checks
        chord = object.__new__(cls)
        object.__setattr__(chord, "a", a)
        object.__setattr__(chord, "b", b)
        return chord

    def is_critical(self, d: int) -> bool:
        return sigma(self.a, d) == sigma(self.b, d)

    def length(self) -> Fraction:
        return circle_dist(self.a, self.b)

    def shares_endpoint(self, other: "Chord") -> bool:
        a, b = other.a, other.b
        return self.a == a or self.a == b or self.b == a or self.b == b

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
        if len(verts) < 2:  # messages print the vertices as __str__ does
            raise LaminationError(f"polygon class needs >= 2 vertices, got {self._from_sorted(verts)}")
        if any(a == b for a, b in zip(verts, verts[1:])):  # io._sorted_classes words it alike
            raise LaminationError(f"duplicate vertices in {self._from_sorted(verts)}")
        object.__setattr__(self, "vertices", verts)

    @classmethod
    def _from_sorted(cls, vertices: tuple[Angle, ...]) -> "PolygonClass":
        # vertices already distinct, in [0, 1) and increasing: skip the checks
        poly = object.__new__(cls)
        object.__setattr__(poly, "vertices", vertices)
        return poly

    def __len__(self):
        return len(self.vertices)

    def edges(self) -> tuple[Chord, ...]:
        return tuple(Chord._from_sorted(a, b) for a, b in _hull_edges(self.vertices))

    def __str__(self):
        return "{" + ",".join(str(v) for v in self.vertices) + "}"


def _events(edges: Iterable[tuple], points: Iterable = (), tag=None) -> list[tuple]:
    """Sweep events of ``(a, b)`` edge tuples and of points tagged ``tag`` (see :func:`_sweep`)."""
    events = [ev for e in edges for ev in ((e[1], 0, -e[0], e), (e[0], 1, -e[1], e))]
    return events + [(p, 2, 0, tag) for p in points]


def _sweep(edges: Iterable = (), points: Iterable = (), events: Optional[list] = None) -> tuple:
    """One bracket sweep: the first crossing pair among ``(a, b)`` edges
    with ``a < b`` (or None), and ``{(label, tag): points}``, each group in
    increasing order, in order of first point.  ``points`` carry the tag
    None; ``events``, if given, replaces both by prebuilt :func:`_events`.

    Any ordered coordinates work (angles or integer ranks).  At each
    coordinate, edges close innermost first, then open outermost first,
    then points are read, so sharing an endpoint is not crossing.
    Non-crossing edges nest like brackets, so an edge that closes below
    the top of the stack crosses the top edge; the sweep stops there, with
    the pair ordered by first endpoint.  A point's label is its innermost
    enclosing edge (None outside every edge), shared by its whole region.
    """
    stack: list = [None]  # the label outside every edge
    groups: dict = {}
    for x, kind, _, e in sorted(_events(edges, points) if events is None else events):
        if kind == 1:
            stack.append(e)
        elif kind:
            groups.setdefault((stack[-1], e), []).append(x)
        elif stack[-1] != e:
            return (e, stack[-1]), groups
        else:
            stack.pop()
    return None, groups


def _regions(edges: Iterable[tuple], points: list) -> list[tuple[tuple, ...]]:
    """The arcs between consecutive sorted points, grouped by the label
    (see :func:`_sweep`) at their start, in order of first arc: the
    complementary regions of the edges that touch the circle."""
    end = dict(zip(points, points[1:] + points[:1]))
    return [tuple(zip(g, map(end.__getitem__, g))) for g in _sweep(edges, points)[1].values()]


def _hull_edges(vs: tuple) -> list[tuple]:
    """Hull edges of a sorted vertex tuple: consecutive pairs, then (first, last)."""
    if len(vs) == 2:
        return [vs]
    return list(zip(vs, vs[1:])) + [(vs[0], vs[-1])]


def _components(pairs: Iterable[tuple]) -> dict:
    """Union-find with path halving: every item of ``pairs``, in order of
    first appearance, mapped to the root of its connected component."""
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return {x: find(x) for x in parent}


def _class_residues(seqs: Collection[Sequence[Angle]], M: int = 1) -> tuple[int, list[tuple[int, ...]]]:
    """Residues of each angle sequence, in order, mod the lcm of M and their denominators."""
    M = lcm(M, *(v.denominator for c in seqs for v in c))
    return M, [tuple(v.numerator * (M // v.denominator) for v in c) for c in seqs]


def _fmt(x: int, D: int) -> str:
    """Residue ``x`` mod ``D`` as a reduced fraction."""
    g = gcd(x, D)
    return f"{x // g}/{D // g}" if x else "0"


class _IntModel:
    """Sorted vertex residue tuples mod ``D``, as given, under sigma_d: sigma
    is multiplication by d mod D, and circular order is integer order.  A
    lamination's model is its view mod M, as coverings, gap degrees, depths,
    witnesses and key texts are unchanged by scaling; placement alone, where
    vertex preimages must be residues, scales classes by d, mod ``d * M``.
    ``vertices`` (all of theirs), ``known`` (the same as a set), ``edges``
    and ``depths`` are built on first use."""

    def __init__(self, d: int, D: int, classes: Iterable[tuple[int, ...]]):
        self.d, self.D, self.classes = d, D, list(classes)

    vertices = cached_property(lambda self: set().union(*self.classes))
    known = cached_property(lambda self: set(self.classes))
    edges = cached_property(lambda self: [e for c in self.classes for e in _hull_edges(c)])

    def key(self) -> str:
        """Canonical text key: degree, then each class as reduced fractions."""
        return "|".join([str(self.d)] + [self.text(c) for c in self.classes])

    def text(self, c: tuple[int, ...]) -> str:
        """A residue tuple as comma-separated reduced fractions."""
        return ",".join([_fmt(x, self.D) for x in c])

    def angle(self, x: int) -> Angle:
        return Fraction(x, self.D)

    def sigma(self, x: int) -> int:
        return (x * self.d) % self.D

    def edge_str(self, e: tuple[int, int]) -> str:
        return f"({self.angle(e[0])},{self.angle(e[1])})"

    @cached_property
    def depths(self) -> dict[tuple[int, ...], Optional[int]]:
        """Steps from each class along its image chain to a periodic class,
        or None when the chain leaves the lamination."""
        image = {}
        for c in self.classes:
            img = tuple(sorted({self.sigma(v) for v in c}))
            image[c] = img if img in self.known else None
        walks = _orbits(image.get, self.classes)
        return {c: None if w is None else w.preperiod for c, w in walks.items()}


def _set_view(obj, degree: int, M: int, items: list):
    """``obj``, unchecked, with ``degree`` and ``_view = (M, keys, members)`` from items sorted by key."""
    object.__setattr__(obj, "degree", degree)
    object.__setattr__(obj, "_view", (M, tuple(k for k, _ in items), tuple(x for _, x in items)))
    return obj


@dataclass(frozen=True, init=False)
class ClassLamination:
    """A finite lamination presented as pairwise disjoint polygon classes,
    held as its view mod the lcm of its denominators (see :func:`_set_view`)."""

    degree: int
    _view: tuple

    def __init__(self, degree: int, classes: Iterable[PolygonClass]):
        classes = list(classes)
        M, res = _class_residues([c.vertices for c in classes])
        _set_view(self, check_degree(degree), M, sorted(dict(zip(res, classes)).items()))  # a class given twice once

    classes = cached_property(lambda self: frozenset(self._view[2]))

    @classmethod
    def create(cls, degree: int, classes: Iterable[PolygonClass]) -> "ClassLamination":
        """Build and validate the disjointness / non-crossing invariants."""
        lam = cls(degree, classes)
        lam.check()
        return lam

    @classmethod
    def _from_residues(cls, degree: int, M: int, residues: Sequence[tuple]) -> "ClassLamination":
        """A checked lamination from its valid, sorted vertex residue tuples mod ``M``."""
        g = gcd(M, *(x for r in residues for x in r))  # the view is mod the lcm
        M, residues = M // g, [tuple(x // g for x in r) for r in residues]
        items = [(r, PolygonClass._from_sorted(tuple(Fraction(x, M) for x in r))) for r in residues]
        lam = _set_view(object.__new__(cls), degree, M, items)
        object.__setattr__(lam, "_checked", True)
        return lam

    _model = cached_property(lambda self: _IntModel(self.degree, *self._view[:2]))  # the view's own frame

    def check(self):
        # immutable, so one successful check is enough for a lifetime
        if getattr(self, "_checked", False):
            return
        _, res, classes = self._view
        owner: dict[int, PolygonClass] = {}
        for r, p in zip(res, classes):
            for v in r:
                if v in owner:
                    raise LaminationError(f"classes {owner[v]} and {p} share a vertex")
                owner[v] = p
        hit = _sweep(e for r in res for e in _hull_edges(r))[0]
        if hit is not None:
            p1, p2 = sorted(owner[a] for a, _ in hit)
            raise LaminationError(f"classes {p1} and {p2} cross")
        object.__setattr__(self, "_checked", True)

    def sorted_classes(self) -> list[PolygonClass]:
        return list(self._view[2])

    def as_chordset(self) -> "ChordSet":
        """The hull edges as an unchecked chord set on the residues of :attr:`_view`."""
        M, res, polys = self._view
        edges = dict(zip([e for r in res for e in _hull_edges(r)], [e for p in polys for e in p.edges()]))
        return _set_view(object.__new__(ChordSet), self.degree, M, sorted(edges.items()))  # a shared edge once

    def __str__(self):
        return f"ClassLamination(d={self.degree}, {len(self._view[1])} classes)"


@dataclass(frozen=True, init=False)
class ChordSet:
    """A finite non-crossing chord collection; shared endpoints allowed.  A pullback
    level's view is mod a multiple of the lcm, so equality compares sorted chords."""

    degree: int
    _view: tuple

    def __init__(self, degree: int, chords: Iterable[Chord]):
        chords = list(chords)
        M, res = _class_residues([(c.a, c.b) for c in chords])
        _set_view(self, check_degree(degree), M, sorted(dict(zip(res, chords)).items()))

    chords = cached_property(lambda self: frozenset(self._view[2]))

    @classmethod
    def create(cls, degree: int, chords: Iterable[Chord]) -> "ChordSet":
        cs = cls(degree, chords)
        cs.check()
        return cs

    def check(self):
        # residues keep the order of the angles, so the sweep names the same pair
        M, pairs, _ = self._view
        hit = _sweep(pairs)[0]
        if hit is not None:
            c1, c2 = (Chord(Fraction(u, M), Fraction(v, M)) for u, v in hit)
            raise LaminationError(f"chords {c1} and {c2} cross")

    def sorted_chords(self) -> list[Chord]:
        return list(self._view[2])

    def __len__(self):
        return len(self._view[1])

    def __eq__(self, other):
        return isinstance(other, ChordSet) and (self.degree, self._view[2]) == (other.degree, other._view[2])

    def __hash__(self):
        return hash((self.degree, self._view[2]))


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
    def has_degree(self) -> bool:
        return self.degree is not None


def covering_degree(poly: PolygonClass, d: int) -> CoveringResult:
    """Classify the boundary map of a polygon under sigma, on the vertex
    residues mod the lcm of their denominators."""
    check_degree(d)
    M, (res,) = _class_residues([poly.vertices])
    return _covering(M, res, d)


def _covering(q: int, res: Sequence[int], d: int) -> CoveringResult:
    """:func:`covering_degree` of sorted vertex residues ``res`` mod ``q``."""
    imgs = [d * x % q for x in res]
    distinct = set(imgs)
    if len(distinct) == 1:
        return CoveringResult(COLLAPSES_TO_POINT, degree=len(res))
    if len(distinct) == 2:
        if len(res) == 2:
            return CoveringResult(COVERING, degree=1)
        # degree k needs 2k vertices alternating between the two fibers
        if len(res) % 2 == 0 and all(imgs[i] != imgs[i + 1] for i in range(len(imgs) - 1)):
            return CoveringResult(COLLAPSES_TO_LEAF, degree=len(res) // 2)
        return CoveringResult(NOT_COVERING)
    if len(imgs) % len(distinct) != 0:
        return CoveringResult(NOT_COVERING)
    k = len(imgs) // len(distinct)
    cycle = sorted(distinct, key=lambda p: (p - imgs[0]) % q)
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

    ``arcs`` lists the closed basis arcs (start, end) in boundary-walk
    order, beginning at the smallest start angle; the full circle is
    encoded as the single arc (0, 0).  The bounding hull edge after each
    arc joins its end to the start of the next arc.
    """

    arcs: tuple[tuple[Angle, Angle], ...]

    @property
    def is_full_circle(self) -> bool:
        return len(self.arcs) == 1 and self.arcs[0][0] == self.arcs[0][1]

    def contains_point(self, x: Angle) -> bool:
        return any(in_closed_arc(x, s, e) for s, e in self.arcs)

    def smallest_angle(self) -> Angle:
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


def gap_decomposition(lam: ClassLamination) -> GapDecomposition:
    """Split the disk along the lamination's hulls: the polygon and round
    gaps that :func:`criticality_audit` lists, in its order."""
    entries = criticality_audit(lam).entries
    polys = tuple(e.gap for e in entries if e.kind == GAP_POLYGON)
    rounds = tuple(e.gap for e in entries if e.kind == GAP_ROUND)
    return GapDecomposition(lam.degree, polys, rounds)


def gap_degree(gap: RoundGap, d: int) -> DegreeStatus:
    """Degree of sigma on a round gap, by exact preimage counting.

    A point's number of preimages in the closed basis is constant on each
    open interval between consecutive images of basis endpoints, and one
    coverage sweep over these images gives every count.  A gap has degree k
    when every nonzero count is k and every basis arc maps injectively
    (length <= 1/d); a gap whose basis image is the whole circle (no count
    is 0) without meeting that bar is partly critical; anything else has
    no degree.  Counting runs on the endpoint residues (:func:`_gap_degree`).
    """
    check_degree(d)
    if gap.is_full_circle:
        return DegreeStatus(DEGREE_KNOWN, d)
    return _gap_degree(*_class_residues(gap.arcs), d)


def _gap_degree(L: int, arcs: Sequence[tuple[int, int]], d: int) -> DegreeStatus:
    """:func:`gap_degree` of basis arcs ``(start, end)`` given as residues
    mod ``L``.  The image of an arc of length l covers the circle
    ``d * l // L`` times, and once more on the arc from the image of its
    start to the image of its end (``a > b`` when that arc wraps past 0).
    So the count is a constant plus one step up and one step down per arc,
    and one sweep over the sorted images gives every count."""
    count, step = 0, {}
    for s, e in arcs:
        a, b = d * s % L, d * e % L
        count += d * ((e - s) % L) // L + (a > b)
        step[a] = step.get(a, 0) + 1
        step[b] = step.get(b, 0) - 1
    counts = {count}
    for x in sorted(step):
        count += step[x]
        counts.add(count)
    nonzero = counts - {0}
    if len(nonzero) == 1 and all(d * ((e - s) % L) <= L for s, e in arcs):
        return DegreeStatus(DEGREE_KNOWN, nonzero.pop())
    if 0 not in counts:
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

    Every degree is decided on the lamination's cached ``_IntModel``, its
    view mod its own M.  Polygon gaps, in vertex order, get their degree from
    :func:`_covering` (with the degenerate-image conventions).  Round gaps
    are the regions (:func:`_regions`) of the hull edges, with the vertices
    as points, and get their degree from :func:`_gap_degree`.  Every arc
    between consecutive vertices lands in exactly one region, so the arcs
    of all round gaps sum to 1.  A region's boundary meets its arcs in
    circular order, so each region's arcs, read from its smallest start,
    are already in boundary-walk order.  Any gap without a degree makes the
    audit inapplicable and is listed as an offender.
    """
    lam.check()
    d = lam.degree
    if not lam._view[1]:
        full = RoundGap(arcs=((Fraction(0), Fraction(0)),))
        entries = [GapAudit(full, GAP_ROUND, DegreeStatus(DEGREE_KNOWN, d))]
    else:
        model = lam._model
        entries, angle = [], {}  # vertex residue -> its angle, as the classes hold it
        for c, poly in zip(model.classes, lam._view[2]):
            angle.update(zip(c, poly.vertices))
            cov = _covering(model.D, c, d)
            status = DegreeStatus(DEGREE_KNOWN if cov.has_degree else DEGREE_UNDEFINED, cov.degree)
            entries.append(GapAudit(poly, GAP_POLYGON, status))
        for arcs in _regions(model.edges, sorted(angle)):
            gap = RoundGap(tuple((angle[s], angle[e]) for s, e in arcs))
            entries.append(GapAudit(gap, GAP_ROUND, _gap_degree(model.D, arcs, d)))

    offenders = tuple(e for e in entries if e.status.kind != DEGREE_KNOWN)
    if offenders:
        return CriticalityAudit(d, tuple(entries), False, False, None, offenders)
    excess = sum(e.status.degree - 1 for e in entries)
    return CriticalityAudit(d, tuple(entries), True, excess == d - 1, excess, ())
