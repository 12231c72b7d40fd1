"""Fraction views of library data and reference rules that only the tests use."""

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

from lamkit.circle import Angle, AngleError, _orbits, check_degree, circle_dist, parse_angle, preimages, sigma
from lamkit.core import (
    Chord,
    ClassLamination,
    LaminationError,
    PolygonClass,
    RoundGap,
    _class_residues,
    _components,
    _IntModel,
    _sweep,
)
from lamkit.fdl import FdlError, enumerate_children
from lamkit.io import DocumentError, _object_degree, _parse, load_chordset
from lamkit.portraits import PortraitError, PortraitShape
from lamkit.pullback import (
    NestingReport,
    NestingStep,
    PropernessReport,
    PullbackError,
    _critical_round_gaps,
    _gap_inside,
)


def deepest_classes(fdl) -> list[PolygonClass]:
    """Classes at depth ``fdl.depth_n``: the periodic ones when it is 0."""
    deepest = set(fdl.deepest)  # sorted like fdl.residues, which the classes follow
    return [p for r, p in zip(fdl.residues, fdl.lamination.sorted_classes()) if r in deepest]


def classes_from_chords(degree: int, chords: Iterable[Chord]) -> list[PolygonClass]:
    """Reconstruct classes from raw chords via shared endpoints.

    Components of the endpoint-sharing graph become candidate classes; the
    component's chords must be exactly the hull edges of its vertex set
    (otherwise the hull-edge axiom fails).
    """
    chords = list(chords)
    root = _components((c.a, c.b) for c in chords)
    groups: dict[Angle, list[Chord]] = {}
    for c in chords:
        groups.setdefault(root[c.a], []).append(c)

    classes = []
    for group in groups.values():
        verts = {p for c in group for p in (c.a, c.b)}
        poly = PolygonClass(tuple(verts))
        if set(poly.edges()) != set(group):
            raise FdlError(f"chords at {poly} are not the hull edges of their class")
        classes.append(poly)
    return classes


def fraction_load_lamination(doc) -> ClassLamination:
    """``io.load_lamination`` on ``Fraction`` classes: each literal parsed,
    each class built as a :class:`PolygonClass` in turn (a chord document's
    by :func:`classes_from_chords` over its sorted chords), then
    ``ClassLamination.create`` and the check for a class listed twice."""
    doc = _parse(doc)
    d = _object_degree(doc)
    if "chords" in doc:
        try:
            classes = classes_from_chords(d, load_chordset(doc).sorted_chords())
        except FdlError as exc:
            raise DocumentError(str(exc)) from exc
    elif not isinstance(doc.get("classes"), list):
        raise DocumentError("document lacks a 'classes' list")
    else:
        classes = []
        for ci, cls in enumerate(doc["classes"]):
            if not isinstance(cls, list) or len(cls) < 2:
                raise DocumentError(f"classes[{ci}] must list >= 2 angle literals")
            verts = []
            for vi, lit in enumerate(cls):
                try:
                    verts.append(parse_angle(lit, d))
                except AngleError as exc:
                    raise DocumentError(f"classes[{ci}][{vi}]: {exc}") from exc
            try:
                classes.append(PolygonClass(tuple(verts)))
            except LaminationError as exc:
                raise DocumentError(f"classes[{ci}]: {exc}") from exc
    try:
        lam = ClassLamination.create(d, classes)
    except LaminationError as exc:
        raise DocumentError(str(exc)) from exc
    if len(lam.classes) != len(classes):  # the class set merged a class listed twice
        i, j = next((i, j) for j, c in enumerate(classes) for i in range(j) if classes[i] == c)
        raise DocumentError(f"classes[{i}] and classes[{j}] list the same class {classes[i]}")
    return lam


def placement_model(d: int, M: int, classes) -> _IntModel:
    """The d-fold frame of sorted residue tuples mod ``M``, where placement
    runs: each class scaled by d, sorted, mod ``d * M``."""
    return _IntModel(d, d * M, sorted(tuple(d * x for x in c) for c in classes))


def portrait_points(target: PolygonClass, d: int, region: Optional[RoundGap] = None) -> list[Angle]:
    """Preimages of the target's vertices available for a portrait.

    For the whole disk these are all d preimages per vertex; inside a round
    gap, the ones lying in its closed basis.  Points come back in circular
    order starting at the smallest point whose image is the target's first
    vertex, and their labels must repeat 0..n-1 cyclically.
    """
    check_degree(d)
    model = placement_model(d, *_class_residues([target.vertices]))
    return [model.angle(p) for p in portrait_residues(model.classes[0], model, region)]


def region_labels(model: _IntModel, points) -> dict:
    """Region label of each point that is no model vertex, read off the
    ``_sweep`` groups: two such points share a complementary region of the
    model's hull edges exactly when they share the label."""
    groups = _sweep(model.edges, (p for p in points if p not in model.vertices))[1]
    return {p: label for (label, _), ps in groups.items() for p in ps}


def portrait_residues(target: tuple[int, ...], model: _IntModel, region: Optional[RoundGap]) -> list[int]:
    """Residues mod ``model.D`` of the preimages of ``target`` (scaled like
    the model's classes) for a portrait: all d per vertex in the whole disk,
    or those in the closed basis of ``region``, in circular order from the
    smallest over the first vertex; their labels must repeat 0..n-1."""
    d, step = model.d, model.D // model.d
    pts = sorted(v // d + k * step for v in target for k in range(d))
    if region is not None:
        pts = [p for p in pts if region.contains_point(model.angle(p))]
    if not pts:
        raise PortraitError("no preimage points available in the region")
    labels = [target.index(model.sigma(p)) for p in pts]
    if 0 not in labels:
        raise PortraitError("region holds no preimage of the target's first vertex")
    i = labels.index(0)
    pts, labels = pts[i:] + pts[:i], labels[i:] + labels[:i]
    n = len(target)
    if len(pts) % n != 0:
        raise PortraitError("preimage points do not split evenly over the target's vertices")
    if any(label != k % n for k, label in enumerate(labels)):
        raise PortraitError("preimage labels do not repeat cyclically in the region")
    return pts


def bind_shape(shape: PortraitShape, points, model: _IntModel, labels: dict) -> Optional[tuple[list, list]]:
    """The disk-wide binder: a shape's blocks placed onto residue points
    against the model's classes.  A block that exactly reproduces a model
    class is reused; one that otherwise touches a model vertex or spans two
    regions (``labels`` from :func:`region_labels`) makes the placement
    fail.  Returns ``(new residue tuples, reused residue tuples)``, or None."""
    new, reused = [], []
    for block in shape.blocks:
        vs = tuple(sorted(points[p] for p in block))
        if vs in model.known:
            reused.append(vs)
            continue
        if any(v in model.vertices for v in vs) or len({labels[v] for v in vs}) != 1:
            return None
        new.append(vs)
    return new, reused


def instantiate_portrait(shape: PortraitShape, target: PolygonClass, region: Optional[RoundGap], context):
    """Bind a shape to the preimage points of ``target`` (the whole disk when
    ``region`` is None) in the placement frame of ``context``: ``(new
    classes, reused classes)``, or None when a block would cross a context
    edge or partly overlap a context class."""
    M, (vertices, *classes) = _class_residues([p.vertices for p in [target] + context.sorted_classes()])
    model = placement_model(context.degree, M, classes)
    points = portrait_residues(tuple(model.d * x for x in vertices), model, region)
    if len(points) != shape.i * shape.n:
        raise PortraitError(
            f"region supplies {len(points) // len(target)} preimages per vertex, "
            f"but the shape needs degree {shape.i}"
        )
    if shape.n != len(target):
        raise PortraitError(f"shape is for {shape.n}-gons, target has {len(target)} vertices")
    placed = bind_shape(shape, points, model, region_labels(model, points))
    if placed is None:
        return None
    return tuple(tuple(PolygonClass(tuple(map(model.angle, c))) for c in cs) for cs in placed)


def image(x, d: int):
    """Image of a chord or polygon class under sigma, or None when it
    collapses to a point."""
    pts = {sigma(v, d) for v in ((x.a, x.b) if isinstance(x, Chord) else x.vertices)}
    if len(pts) < 2:
        return None
    return Chord(*pts) if isinstance(x, Chord) else PolygonClass(tuple(pts))


def all_edges(lam: ClassLamination) -> set[Chord]:
    return {e for c in lam.sorted_classes() for e in c.edges()}


def all_vertices(lam: ClassLamination) -> set[Angle]:
    return {v for c in lam.sorted_classes() for v in c.vertices}


def arc_len(start: Angle, end: Angle) -> Fraction:
    """Length of the counterclockwise arc from start to end, in (0, 1];
    start == end yields 1 (the full circle), never 0."""
    diff = (Fraction(end) - Fraction(start)) % 1
    return diff if diff != 0 else Fraction(1)


def leaf_distance(c1: Chord, c2: Chord) -> Fraction:
    """Min over endpoint pairings of the summed circle distances."""
    return min(
        circle_dist(c1.a, c2.a) + circle_dist(c1.b, c2.b),
        circle_dist(c1.a, c2.b) + circle_dist(c1.b, c2.a),
    )


def arith_in_open_arc(x, start, end) -> bool:
    """Arc membership by ``Fraction`` arithmetic: the offset of x from
    start, mod 1, lies strictly between 0 and the arc's length."""
    rel = (Fraction(x) - Fraction(start)) % 1
    return 0 < rel < arc_len(start, end)


def arith_in_closed_arc(x, start, end) -> bool:
    rel = (Fraction(x) - Fraction(start)) % 1
    return rel == 0 or rel <= arc_len(start, end)


def set_shares_endpoint(c1: Chord, c2: Chord) -> bool:
    return bool({c1.a, c1.b} & {c2.a, c2.b})


def arith_chords_cross(c1: Chord, c2: Chord) -> bool:
    """Chords cross iff they share no endpoint and exactly one endpoint of
    c2 lies in the open arc cut by c1, decided by the oracles above."""
    if set_shares_endpoint(c1, c2):
        return False
    return arith_in_open_arc(c2.a, c1.a, c1.b) != arith_in_open_arc(c2.b, c1.a, c1.b)


# --- the parent rules of lamkit.pullback, kept as oracles -----------------------


def sorted_chains(anchors, k: int, d: int, contains) -> list[list[Chord]]:
    """``pullback._chains`` by search: the preimages of each anchor's image
    that ``contains`` accepts, sorted by their offset from the anchor."""
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


def scan_branch_preimages(z: int, branch, M: int, d: int) -> list[int]:
    """The preimages of z in the branch's closed arcs, all residues mod M,
    in increasing order: each of the d preimages tested against every arc,
    the lookup that ``pullback_step`` makes by a bisect into the cut points."""
    return [p for p in range(z // d, M, M // d) if any((p - s) % M <= (e - s) % M for s, e in branch)]


def connected_first_lift(x: int, y: int, branch, M: int, d: int, obstacles):
    """``pullback._lift`` ranked connected arc-lifts first, then by lift or
    shorter arc, then by pair, with each endpoint's preimages found by
    :func:`scan_branch_preimages`.  Returns the chosen residue pair and the
    ranked ``(not connected, length, pair)`` candidates, empty when the
    pair is forced."""

    def fail(what):
        arcs = " u ".join(f"[{Fraction(s, M)},{Fraction(e, M)}]" for s, e in branch)
        raise PullbackError(what.format(Chord(Fraction(x, M), Fraction(y, M)), arcs))

    ends = [scan_branch_preimages(z, branch, M, d) for z in (x, y)]
    if not ends[0] or not ends[1]:
        fail("branch {1} misses a preimage of {0}")
    pairs = [(min(u, v), max(u, v)) for u in ends[0] for v in ends[1]]
    if len(pairs) == 1:
        return pairs[0], []

    ranked = []
    for u, v in pairs:
        if any(c != u != e and c != v != e and (u < c < v) != (u < e < v) for c, e in obstacles):
            continue
        arcs = (v - u, M - v + u)
        lift = next((b // d for b in (y - x, M - y + x) if b in (d * arcs[0], d * arcs[1])), None)
        ranked.append((lift is None, lift if lift is not None else min(arcs), (u, v)))
    if not ranked:
        fail("every lift of {0} in branch {1} crosses the inputs")
    return min(ranked)[2], ranked


def smallest_angle_successor(child_gaps, deg: int, gap: RoundGap) -> Optional[RoundGap]:
    """The successor pick of ``hyperbolic_approx`` as a minimum: the child
    gap of degree ``deg`` inside ``gap`` with the smallest angle."""
    return min(
        (g for cdeg, g in child_gaps if cdeg == deg and _gap_inside(g, gap)),
        key=RoundGap.smallest_angle,
        default=None,
    )


def reference_hyperbolic_approx(start, depth: int) -> NestingReport:
    """``pullback.hyperbolic_approx`` with ``smallest_angle_successor``."""
    if depth < 0:
        raise PullbackError(f"nesting depth must be >= 0, got {depth}")
    tracked = _critical_round_gaps(start.lamination)
    if not tracked:
        raise PullbackError("need at least one critical round gap")
    degrees = [deg for deg, _ in tracked]
    steps = [NestingStep(start, [g for _, g in tracked])]
    for _ in range(depth):
        found = []
        for child in enumerate_children(steps[-1].fdl):
            child_gaps = _critical_round_gaps(child.lamination)
            successors = [
                smallest_angle_successor(child_gaps, deg, gap) for deg, gap in zip(degrees, steps[-1].tracked)
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


def three_loop_properness(chord_set) -> PropernessReport:
    """``pullback.properness_report`` with one loop over the leaves per
    list and the period mismatch decided field by field."""
    d = chord_set.degree
    L, res = _class_residues([(c.a, c.b) for c in chord_set.chords])
    chords = sorted(zip(res, chord_set.chords))
    info = _orbits(lambda x: d * x % L, (x for pair in res for x in pair))

    def image(x, y):
        return None if d * x % L == d * y % L else sorted((d * x % L, d * y % L))

    critical_leaves = []
    for (x, y), c in chords:
        if image(x, y) is None and (info[x].preperiod == 0 or info[y].preperiod == 0):
            critical_leaves.append(c)

    at_point = {}
    for pair in chords:
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

    mismatched = []
    for (x, y), c in chords:
        ia, ib = info[x], info[y]
        if ia.preperiod == 0 or ib.preperiod == 0:
            if ia.preperiod != 0 or ib.preperiod != 0 or ia.period != ib.period:
                mismatched.append(c)

    return PropernessReport(critical_leaves, wedges, unclean, mismatched)
