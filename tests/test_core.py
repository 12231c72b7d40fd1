import random
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from itertools import combinations
from math import lcm

import pytest

from lamkit import build_pullback_tree
from lamkit.circle import mod1, preimages, sigma
from lamkit.core import (
    COLLAPSES_TO_LEAF,
    COLLAPSES_TO_POINT,
    COVERING,
    DEGREE_KNOWN,
    DEGREE_UNDEFINED,
    GAP_POLYGON,
    GAP_ROUND,
    NOT_COVERING,
    PARTLY_CRITICAL,
    Chord,
    ChordSet,
    ClassLamination,
    CoveringResult,
    DegreeStatus,
    GapAudit,
    GapDecomposition,
    LaminationError,
    PolygonClass,
    RoundGap,
    _class_residues,
    _covering,
    _events,
    _gap_degree,
    _hull_edges,
    _IntModel,
    _sweep,
    chords_cross,
    covering_degree,
    criticality_audit,
    gap_decomposition,
    gap_degree,
)
from lamkit.io import load_lamination, save_lamination
from helpers import all_edges, arc_len, arith_chords_cross, image, set_shares_endpoint

RABBIT = PolygonClass((F(1, 7), F(2, 7), F(4, 7)))
SIBLING = PolygonClass((F(1, 14), F(9, 14), F(11, 14)))


def test_chord_normalization():
    c = Chord(F(3, 4), F(1, 4))
    assert (c.a, c.b) == (F(1, 4), F(3, 4))
    with pytest.raises(LaminationError):
        Chord(F(1, 3), F(1, 3))


def test_polygon_class_finds_duplicates_without_hashing(monkeypatch):
    # sorted neighbours are compared, so no Fraction is hashed
    hashed = []
    monkeypatch.setattr(F, "__hash__", lambda self: hashed.append(self) or 0)
    assert PolygonClass((F(2, 3), F(1, 3), F(1, 7))).vertices == (F(1, 7), F(1, 3), F(2, 3))
    for verts in ((F(2, 3), F(1, 3), F(4, 3)), (F(1, 3), F(1, 2), F(1, 3))):
        with pytest.raises(LaminationError) as err:
            PolygonClass(verts)
        assert str(err.value) == "duplicate vertices in {" + ",".join(map(str, sorted(map(mod1, verts)))) + "}"
    assert hashed == []
    # printed as __str__ prints a class, not as Fraction reprs
    with pytest.raises(LaminationError, match=r"^duplicate vertices in \{1/3,1/3,2/3\}$"):
        PolygonClass((F(4, 3), F(1, 3), F(2, 3)))
    with pytest.raises(LaminationError, match=r"^polygon class needs >= 2 vertices, got \{1/3\}$"):
        PolygonClass((F(4, 3),))


def test_chords_cross_examples():
    assert chords_cross(Chord(F(0), F(1, 2)), Chord(F(1, 4), F(3, 4)))
    assert not chords_cross(Chord(F(0), F(1, 2)), Chord(F(0), F(1, 4)))
    assert not chords_cross(Chord(F(1, 7), F(2, 7)), Chord(F(4, 7), F(9, 14)))


def test_chords_cross_symmetry():
    rng = random.Random(7)
    pts = [F(rng.randrange(0, 60), 60) for _ in range(200)]
    for i in range(0, 200, 4):
        a, b, c, d = pts[i : i + 4]
        if a == b or c == d:
            continue
        c1, c2 = Chord(a, b), Chord(c, d)
        assert chords_cross(c1, c2) == chords_cross(c2, c1)


def test_chord_predicates_match_the_set_and_arithmetic_oracles():
    # four points p0 < p1 < p2 < p3 of a small grid give one chord pair per
    # kind; a shared endpoint is one of three chosen points
    rng = random.Random(29)
    for _ in range(4000):
        q = rng.randrange(4, 13)
        p = sorted(F(n, q) for n in rng.sample(range(q), 4))
        i, j, k = sorted(rng.sample(p, 3))
        pairs = {
            "crossing": ((p[0], p[2]), (p[1], p[3])),
            "nested": ((p[0], p[3]), (p[1], p[2])),
            "disjoint": ((p[0], p[1]), (p[2], p[3])),
            "shared": rng.choice((((i, j), (j, k)), ((i, j), (i, k)), ((i, k), (j, k)))),
            "same": ((i, k), (k, i)),
        }
        for kind, (u, v) in pairs.items():
            c1, c2 = Chord(*rng.sample(u, 2)), Chord(*rng.sample(v, 2))
            for x, y in ((c1, c2), (c2, c1)):
                assert chords_cross(x, y) == arith_chords_cross(x, y) == (kind == "crossing"), (kind, x, y)
                shared = kind in ("shared", "same")
                assert x.shares_endpoint(y) == set_shares_endpoint(x, y) == shared, (kind, x, y)


def test_covering_degree_cases():
    assert covering_degree(RABBIT, 2).kind == COVERING
    assert covering_degree(RABBIT, 2).degree == 1
    hexa = PolygonClass(tuple(F(k, 28) for k in (1, 9, 11, 15, 23, 25)))
    cov = covering_degree(hexa, 2)
    assert (cov.kind, cov.degree) == (COVERING, 2)
    crit_leaf = PolygonClass((F(0), F(1, 2)))
    assert covering_degree(crit_leaf, 2).kind == COLLAPSES_TO_POINT
    assert covering_degree(crit_leaf, 2).degree == 2
    # 2-gon onto a 2-gon is an honest degree-1 covering
    basilica = PolygonClass((F(1, 3), F(2, 3)))
    assert covering_degree(basilica, 2).kind == COVERING
    # alternating square onto a leaf
    square = PolygonClass((F(5, 24), F(7, 24), F(17, 24), F(19, 24)))
    cov = covering_degree(square, 2)
    assert (cov.kind, cov.degree) == (COLLAPSES_TO_LEAF, 2)
    # orientation-reversing triangle
    rev = PolygonClass((F(1, 28), F(11, 28), F(23, 28)))
    assert covering_degree(rev, 2).kind == NOT_COVERING


def _fraction_covering_degree(poly, d):
    """Reference covering classification on ``Fraction`` vertex images."""
    imgs = [sigma(v, d) for v in poly.vertices]
    distinct = sorted(set(imgs))
    if len(distinct) == 1:
        return CoveringResult(COLLAPSES_TO_POINT, degree=len(poly))
    if len(distinct) == 2:
        if len(poly) == 2:
            return CoveringResult(COVERING, degree=1)
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


def _random_polygons(seed, count):
    """Polygons in degrees 2-5: random vertex sets, and vertex sets drawn
    from the fibres of one to three points, so the collapse kinds and
    higher-degree coverings occur."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.randint(2, 5)
        if rng.random() < 0.4:
            den = rng.randrange(2, 40)
            pool = {F(k, den) for k in range(den)}
        else:
            dens = [rng.randrange(1, 13) for _ in range(rng.randint(1, 3))]
            pool = {p for q in dens for p in preimages(F(rng.randrange(q), q), d)}
        size = rng.randint(2, min(len(pool), 8))
        out.append((d, PolygonClass(tuple(rng.sample(sorted(pool), size)))))
    return out


def test_covering_degree_matches_fraction_oracle(basilica_tree, rabbit_tree, cubic_tree):
    nodes = [n for t in (basilica_tree, rabbit_tree, cubic_tree) for n in t.all_nodes()]
    cases = [(n.degree, c) for n in nodes for c in n.lamination.classes]
    cases += _random_polygons(13, 6000)
    kinds = set()
    for d, poly in cases:
        cov = covering_degree(poly, d)
        assert cov == _fraction_covering_degree(poly, d), (d, str(poly))
        kinds.add(cov.kind)
    assert kinds == {COVERING, COLLAPSES_TO_POINT, COLLAPSES_TO_LEAF, NOT_COVERING}
    # the kernel on a node's residues, mod the node's modulus rather than
    # the class's own lcm
    for n in nodes:
        for c in n.residues:
            poly = PolygonClass(tuple(F(x, n.modulus) for x in c))
            assert _covering(n.modulus, c, n.degree) == _fraction_covering_degree(poly, n.degree)


def _arc_total(decomp):
    return sum(arc_len(s, e) for g in decomp.round_gaps for s, e in g.arcs)


def test_gap_decomposition_empty():
    decomp = gap_decomposition(ClassLamination.create(2, []))
    assert len(decomp.round_gaps) == 1 and not decomp.polygon_gaps
    assert decomp.round_gaps[0].is_full_circle


def test_gap_decomposition_rabbit_root():
    decomp = gap_decomposition(ClassLamination.create(2, [RABBIT]))
    bases = [g.arcs for g in decomp.round_gaps]
    assert bases == [
        ((F(1, 7), F(2, 7)),),
        ((F(2, 7), F(4, 7)),),
        ((F(4, 7), F(1, 7)),),
    ]
    assert _arc_total(decomp) == 1


def test_gap_decomposition_rabbit_level1():
    decomp = gap_decomposition(ClassLamination.create(2, [RABBIT, SIBLING]))
    assert len(decomp.polygon_gaps) == 2 and len(decomp.round_gaps) == 5
    two_arc = [g for g in decomp.round_gaps if len(g.arcs) == 2]
    assert len(two_arc) == 1
    assert two_arc[0].arcs == ((F(1, 14), F(1, 7)), (F(4, 7), F(9, 14)))
    assert _arc_total(decomp) == 1


def test_gap_degrees_rabbit():
    root = gap_decomposition(ClassLamination.create(2, [RABBIT]))
    statuses = {g.arcs[0]: gap_degree(g, 2) for g in root.round_gaps}
    assert statuses[(F(4, 7), F(1, 7))].kind == PARTLY_CRITICAL
    assert statuses[(F(1, 7), F(2, 7))].degree == 1

    lvl1 = gap_decomposition(ClassLamination.create(2, [RABBIT, SIBLING]))
    for g in lvl1.round_gaps:
        status = gap_degree(g, 2)
        assert status.kind == DEGREE_KNOWN
        assert status.degree == (2 if len(g.arcs) == 2 else 1)


def test_gap_degree_full_circle():
    decomp = gap_decomposition(ClassLamination.create(3, []))
    assert gap_degree(decomp.round_gaps[0], 3).degree == 3


def test_gap_degree_long_arc_is_partly_critical():
    # single triangle in degree 3: the long-arc gap wraps the circle without
    # covering evenly
    tri = PolygonClass((F(1, 26), F(3, 26), F(9, 26)))
    decomp = gap_decomposition(ClassLamination.create(3, [tri]))
    by_start = {g.arcs[0][0]: gap_degree(g, 3) for g in decomp.round_gaps}
    assert by_start[F(9, 26)].kind == PARTLY_CRITICAL
    assert by_start[F(1, 26)].degree == 1
    assert by_start[F(3, 26)].degree == 1


def _dense_gap_degree(gap, d):
    """Reference gap degree: preimage counts at every point (2j+1)/(2Q).

    Q is the lcm of the denominators of the basis endpoint images, so every
    interval between consecutive images holds at least one of these points
    and none of them is an image.  Basis endpoints and the preimages of
    these points are multiples of 1/m with m = 2Qd, so counting runs on
    integers.
    """
    if gap.is_full_circle:
        return DegreeStatus(DEGREE_KNOWN, d)
    q = lcm(*(sigma(p, d).denominator for arc in gap.arcs for p in arc))
    m = 2 * q * d
    arcs = [(int(s * m), (e - s) % 1 * m or m) for s, e in gap.arcs]
    counts = {
        sum(
            1
            for k in range(d)
            if any((2 * j + 1 + 2 * q * k - s) % m <= length for s, length in arcs)
        )
        for j in range(q)
    }
    nonzero = counts - {0}
    if len(nonzero) == 1 and all((e - s) % 1 <= F(1, d) for s, e in gap.arcs):
        return DegreeStatus(DEGREE_KNOWN, nonzero.pop())
    if 0 not in counts:
        return DegreeStatus(PARTLY_CRITICAL)
    return DegreeStatus(DEGREE_UNDEFINED)


def _random_classes(rng, max_classes):
    den = rng.randrange(4, 30)
    return [
        PolygonClass(tuple({F(rng.randrange(den), den) for _ in range(rng.randrange(2, 5))}))
        for _ in range(rng.randrange(1, max_classes + 1))
    ]


def _random_laminations(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        try:
            lam = ClassLamination.create(rng.choice([2, 3, 4]), _random_classes(rng, 3))
        except LaminationError:
            continue  # a single-vertex draw, a shared vertex or a crossing
        out.append(lam)
    return out


def test_gap_degree_matches_dense_oracle(rabbit_tree, basilica_tree, cubic_root):
    lams = [n.lamination for n in rabbit_tree.all_nodes()]
    lams += [n.lamination for level in basilica_tree.levels[:7] for n in level]
    lams += [cubic_root.lamination] + _random_laminations(11, 600)
    kinds = set()
    for lam in lams:
        for gap in gap_decomposition(lam).round_gaps:
            status = gap_degree(gap, lam.degree)
            assert status == _dense_gap_degree(gap, lam.degree), (lam.classes, str(gap))
            kinds.add(status.kind)
        # the audit counts on the lamination's residues, not on each gap's own
        for entry in criticality_audit(lam).entries:
            if entry.kind == GAP_ROUND:
                want = _dense_gap_degree(entry.gap, lam.degree)
                assert entry.status == want, (lam.classes, str(entry.gap))
    assert kinds == {DEGREE_KNOWN, PARTLY_CRITICAL, DEGREE_UNDEFINED}


def test_gap_degree_where_sampling_was_wrong():
    def status(classes, arcs):
        lam = ClassLamination.create(3, [PolygonClass(tuple(map(F, c))) for c in classes])
        arcs = tuple((F(s), F(e)) for s, e in arcs)
        (gap,) = [g for g in gap_decomposition(lam).round_gaps if g.arcs == arcs]
        return gap_degree(gap, 3)

    # the cubic root: the two arcs' images overlap and together cover the
    # circle, so counts are 1 and 2 and never 0
    assert status(
        [["1/26", "3/26", "9/26"], ["7/13", "8/13", "11/13"]],
        [("9/26", "7/13"), ("11/13", "1/26")],
    ) == DegreeStatus(PARTLY_CRITICAL)
    # counts are 0, 1 and 2
    assert status(
        [["3/14", "9/14", "6/7"], ["2/7", "4/7"]],
        [("3/14", "2/7"), ("4/7", "9/14")],
    ) == DegreeStatus(DEGREE_UNDEFINED)


def _preimage_scan_gap_degree(L, arcs, d):
    """Reference round-gap degree on residue arcs mod L: preimage counts at
    the midpoint of every interval between endpoint images.  Scaled to
    ``M = 2 * d * L``, the images, the midpoints and their d preimages are
    all integers."""
    M = 2 * d * L
    spans = [(2 * d * s, 2 * d * ((e - s) % L)) for s, e in arcs]
    images = sorted({2 * d * d * x % M for arc in arcs for x in arc})
    counts = set()
    for x, y in zip(images, images[1:] + images[:1]):
        mid = (x + ((y - x) % M or M) // 2) % M // d
        preimages = (mid + k * M // d for k in range(d))
        counts.add(sum(any((q - s) % M <= span for s, span in spans) for q in preimages))
    nonzero = counts - {0}
    if len(nonzero) == 1 and all(d * span <= M for _, span in spans):
        return DegreeStatus(DEGREE_KNOWN, nonzero.pop())
    if 0 not in counts:
        return DegreeStatus(PARTLY_CRITICAL)
    return DegreeStatus(DEGREE_UNDEFINED)


def test_gap_degree_sweep_matches_preimage_scan():
    # disjoint arcs between distinct residues; the pairing starts at a random
    # point, so the last arc may wrap past 0
    rng = random.Random(19)
    kinds, wraps, long_arcs = set(), 0, 0
    for _ in range(20000):
        d, n = rng.randint(2, 5), rng.randint(1, 4)
        L = rng.randint(2 * n, 60)
        ends = sorted(rng.sample(range(L), 2 * n))
        k = rng.randrange(2 * n)
        ends = ends[k:] + ends[:k]
        arcs = list(zip(ends[::2], ends[1::2]))
        status = _gap_degree(L, arcs, d)
        assert status == _preimage_scan_gap_degree(L, arcs, d), (L, arcs, d)
        kinds.add(status.kind)
        wraps += any(s > e for s, e in arcs)
        long_arcs += any(d * ((e - s) % L) > L for s, e in arcs)
    assert kinds == {DEGREE_KNOWN, PARTLY_CRITICAL, DEGREE_UNDEFINED}
    assert wraps > 1000 and long_arcs > 1000


def test_audit_round_gaps_match_preimage_scan(basilica_tree, rabbit_tree, cubic_tree):
    kinds = set()

    def check(lam):
        for entry in criticality_audit(lam).entries:
            if entry.kind != GAP_ROUND:
                continue
            L, arcs = _class_residues(entry.gap.arcs)
            want = _preimage_scan_gap_degree(L, arcs, lam.degree)
            assert _gap_degree(L, arcs, lam.degree) == entry.status == want, (lam.classes, str(entry.gap))
            kinds.add(want.kind)

    # every fixture node, basilica-8 included
    for tree in (basilica_tree, rabbit_tree, cubic_tree):
        for node in tree.all_nodes():
            check(node.lamination)
    # no fixture gap lacks a degree outright; the random laminations have such gaps
    assert kinds == {DEGREE_KNOWN, PARTLY_CRITICAL}
    for lam in _random_laminations(11, 600):
        check(lam)
    assert kinds == {DEGREE_KNOWN, PARTLY_CRITICAL, DEGREE_UNDEFINED}


def test_trusted_constructors_match_checking_ones(basilica_tree, rabbit_tree, cubic_tree):
    lams = [n.lamination for t in (basilica_tree, rabbit_tree, cubic_tree) for n in t.all_nodes()]
    lams += _random_laminations(11, 600)
    for lam in lams:
        assert lam.sorted_classes() == sorted(lam.classes, key=lambda c: c.vertices)
        for c in lam.classes:
            want = tuple(Chord(a, b) for a, b in _hull_edges(c.vertices))
            got = c.edges()
            assert got == want
            assert [hash(e) for e in got] == [hash(e) for e in want]
            assert [str(e) for e in got] == [str(e) for e in want]
            for v in c.vertices:
                assert mod1(v) is v
    for x in (0, 3, -2, 1, -1, F(0), F(1, 7), F(6, 7), F(1), F(9, 7), F(-1, 7), F(-15, 4), 0.375, -2.75):
        assert mod1(x) == F(x) % 1 and type(mod1(x)) is F, x


def _fraction_gap_decomposition(lam):
    """Reference gap walk on ``Fraction`` angles, with dicts keyed by vertex."""
    lam.check()
    polys = lam.sorted_classes()
    if not polys:
        full = RoundGap(arcs=((F(0), F(0)),))
        return GapDecomposition(lam.degree, (), (full,))

    owner = {v: p for p in polys for v in p.vertices}

    def class_prev(w):
        verts = owner[w].vertices
        return verts[verts.index(w) - 1]

    all_verts = sorted(owner)
    succ = {v: all_verts[(i + 1) % len(all_verts)] for i, v in enumerate(all_verts)}
    unused_arcs = {v: True for v in all_verts}  # arc starting at v
    round_gaps = []
    for start in all_verts:
        if not unused_arcs[start]:
            continue
        arcs, chords, p = [], [], start
        while True:
            w = succ[p]
            arcs.append((p, w))
            unused_arcs[p] = False
            q = class_prev(w)
            chords.append(Chord(w, q))
            p = q
            if p == start:
                break
            assert unused_arcs[p], "gap walk revisited an arc"
        # the bounding chord after each arc joins its end to the next arc's start
        for k, chord in enumerate(chords):
            assert chord == Chord(arcs[k][1], arcs[(k + 1) % len(arcs)][0])
        # rotate the arc list to begin at the smallest start
        k = min(range(len(arcs)), key=lambda i: arcs[i][0])
        round_gaps.append(RoundGap(tuple(arcs[k:] + arcs[:k])))
    round_gaps.sort(key=lambda g: g.arcs[0][0])
    decomp = GapDecomposition(lam.degree, tuple(polys), tuple(round_gaps))
    assert _arc_total(decomp) == 1
    return decomp


def test_gap_decomposition_matches_fraction_walk(rabbit_root, rabbit_tree, basilica_tree, cubic_tree):
    lams = [n.lamination for t in (basilica_tree, rabbit_tree, cubic_tree) for n in t.all_nodes()]
    lams += [n.lamination for n in build_pullback_tree(rabbit_root, 7).all_nodes()]
    lams += [ClassLamination.create(2, [])] + _random_laminations(11, 600)
    multi_arc = 0
    for lam in lams:
        decomp = gap_decomposition(lam)
        assert decomp == _fraction_gap_decomposition(lam), sorted(lam.classes)
        multi_arc += any(len(g.arcs) > 1 for g in decomp.round_gaps)
    assert multi_arc > 100


def test_criticality_audit_matches_fraction_composition(basilica_tree, rabbit_tree, cubic_tree):
    # the reference gap walk, with each gap's degree from the Fraction and
    # dense oracles; basilica stops at level 6, as in the dense test above
    # (the dense oracle alone takes about a minute on level 8 on a 2-core machine)
    lams = [n.lamination for t in (rabbit_tree, cubic_tree) for n in t.all_nodes()]
    lams += [n.lamination for level in basilica_tree.levels[:7] for n in level]
    lams += _random_laminations(11, 600)
    kinds = set()
    for lam in lams:
        d = lam.degree
        decomp = _fraction_gap_decomposition(lam)
        want = []
        for poly in decomp.polygon_gaps:
            cov = _fraction_covering_degree(poly, d)
            kind = DEGREE_KNOWN if cov.has_degree else DEGREE_UNDEFINED
            want.append(GapAudit(poly, GAP_POLYGON, DegreeStatus(kind, cov.degree)))
        want += [GapAudit(g, GAP_ROUND, _dense_gap_degree(g, d)) for g in decomp.round_gaps]
        audit = criticality_audit(lam)
        assert audit.entries == tuple(want), sorted(lam.classes)
        assert audit.offenders == tuple(e for e in want if e.status.kind != DEGREE_KNOWN)
        kinds |= {(e.kind, e.status.kind) for e in want}
    assert len(kinds) == 5  # polygons with and without a degree, and every round status


def test_criticality_audit():
    empty = criticality_audit(ClassLamination.create(2, []))
    assert empty.passed and empty.excess == 1

    root = criticality_audit(ClassLamination.create(2, [RABBIT]))
    assert not root.applicable
    assert [o.gap.arcs for o in root.offenders] == [((F(4, 7), F(1, 7)),)]

    lvl1 = criticality_audit(ClassLamination.create(2, [RABBIT, SIBLING]))
    assert lvl1.applicable and lvl1.passed and lvl1.excess == 1
    degrees = sorted(e.status.degree for e in lvl1.entries)
    assert degrees == [1, 1, 1, 1, 1, 1, 2]

    crit_leaf = criticality_audit(
        ClassLamination.create(2, [PolygonClass((F(0), F(1, 2)))])
    )
    assert crit_leaf.passed and crit_leaf.excess == 1


def test_lamination_invariants():
    with pytest.raises(LaminationError):
        ClassLamination.create(
            2, [RABBIT, PolygonClass((F(1, 7), F(9, 14), F(11, 14)))]
        )  # shared vertex
    with pytest.raises(LaminationError):
        ClassLamination.create(
            2,
            [
                PolygonClass((F(0), F(1, 2))),
                PolygonClass((F(1, 4), F(3, 4))),
            ],
        )  # crossing
    # wedges are fine in chord sets but crossings are not
    ChordSet.create(2, [Chord(F(0), F(1, 4)), Chord(F(0), F(3, 4))])
    with pytest.raises(LaminationError):
        ChordSet.create(2, [Chord(F(0), F(1, 2)), Chord(F(1, 4), F(3, 4))])


def _named(pattern, message):
    return [tuple(map(F, m.split(","))) for m in re.findall(pattern, message)]


def test_chordset_check_matches_pairwise_oracle():
    rng = random.Random(31)
    outcomes = set()
    for _ in range(3000):
        # few points, so shared endpoints and wedges are common
        den = rng.randrange(4, 16)
        chords = set()
        for _ in range(rng.randrange(1, 7)):
            a, b = rng.sample(range(den), 2)
            chords.add(Chord(F(a, den), F(b, den)))
        crossing = any(chords_cross(c1, c2) for c1, c2 in combinations(chords, 2))
        outcomes.add(crossing)
        if not crossing:
            ChordSet.create(2, chords)
            continue
        with pytest.raises(LaminationError, match="cross") as err:
            ChordSet.create(2, chords)
        c1, c2 = (Chord(*p) for p in _named(r"\(([^()]+)\)", str(err.value)))
        assert c1 in chords and c2 in chords and chords_cross(c1, c2)
    assert outcomes == {False, True}


def test_chordset_check_names_the_fraction_sweep_pair():
    # the families of the pairwise test above, same seed and draws
    rng = random.Random(31)
    named = 0
    for _ in range(3000):
        den = rng.randrange(4, 16)
        chords = set()
        for _ in range(rng.randrange(1, 7)):
            a, b = rng.sample(range(den), 2)
            chords.add(Chord(F(a, den), F(b, den)))
        hit = _sweep((c.a, c.b) for c in chords)[0]
        if hit is None:
            ChordSet(2, chords).check()
            continue
        with pytest.raises(LaminationError) as err:
            ChordSet(2, chords).check()
        assert str(err.value) == f"chords {Chord(*hit[0])} and {Chord(*hit[1])} cross"
        named += 1
    assert named > 500


def test_as_chordset_carries_the_lamination_view(basilica_tree, rabbit_tree, cubic_tree):
    # tree nodes, the same classes through ClassLamination.create, their
    # loaded documents, and unchecked classes that share an edge: the view is
    # the one a fresh chord set derives, and it holds the chords in Chord
    # order, the order in which pullback_step names a crossing input chord
    nodes = [n.lamination for t in (basilica_tree, rabbit_tree, cubic_tree) for n in t.all_nodes()]
    lams = nodes + [ClassLamination.create(lam.degree, lam.classes) for lam in nodes]
    lams += [load_lamination(save_lamination(lam)) for lam in nodes]
    lams.append(ClassLamination(2, [PolygonClass((F(0), F(1, 3), F(2, 3))), PolygonClass((F(1, 3), F(2, 3)))]))
    for lam in lams:
        cs = lam.as_chordset()
        assert cs._view == ChordSet(lam.degree, frozenset(all_edges(lam)))._view
        assert cs.sorted_chords() == sorted(all_edges(lam))


def test_laminations_are_equal_exactly_when_their_classes_are(basilica_tree, rabbit_tree, cubic_tree):
    # tree nodes, their ClassLamination.create twins and their loaded
    # documents are equal and hash alike; distinct nodes, another degree
    # and the chord set of the same edges are not equal
    nodes = [n.lamination for t in (basilica_tree, rabbit_tree, cubic_tree) for n in t.all_nodes()]
    for lam in nodes:
        twin = ClassLamination.create(lam.degree, lam.classes)
        loaded = load_lamination(save_lamination(lam))
        assert lam == twin == loaded and hash(lam) == hash(twin) == hash(loaded)
        assert lam.classes == twin.classes == loaded.classes
        assert lam != ClassLamination(lam.degree + 1, lam.classes) and lam != lam.as_chordset()
    for a, b in combinations(nodes[:80], 2):
        assert (a == b) == ((a.degree, a.classes) == (b.degree, b.classes)) == (a is b)
    assert ClassLamination(2, [RABBIT, SIBLING, RABBIT]) == ClassLamination(2, [SIBLING, RABBIT])


def test_laminations_and_chord_sets_are_immutable():
    lam = ClassLamination.create(2, [RABBIT, SIBLING])
    for obj, names in ((lam, ("degree", "classes", "_view")), (lam.as_chordset(), ("degree", "chords", "_view"))):
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
    assert lam.degree == 2 and lam.sorted_classes() == [SIBLING, RABBIT]


def test_sweep_labels_match_brute_force():
    # seeded non-crossing integer families, repeats allowed; a point's label
    # is the innermost edge with a <= p < b: the largest a, then the smallest
    # b.  Points carry random tags (their own generator, so the families stay
    # those of seed 43), and each group holds exactly the points of its label
    # and tag, in increasing order
    rng, tags = random.Random(43), random.Random(44)
    at_ends = 0
    for _ in range(3000):
        n = rng.randrange(2, 20)
        edges = []
        for _ in range(rng.randrange(8)):
            a, b = sorted(rng.sample(range(n), 2))
            if not any(c < a < e < b or a < c < b < e for c, e in edges):
                edges.append((a, b))
        if edges and rng.random() < 0.3:
            edges.append(rng.choice(edges))
        tag = [tags.randrange(3) for _ in range(n)]
        hit, groups = _sweep(events=_events(edges) + [ev for p in range(n) for ev in _events((), [p], tag[p])])
        assert hit is None
        want = {}
        for p in range(n):
            around = [(a, b) for a, b in edges if a <= p < b]
            label = max(around, key=lambda e: (e[0], -e[1])) if around else None
            want.setdefault((label, tag[p]), []).append(p)
            at_ends += any(p in e for e in edges)
        assert groups == want and list(groups) == list(want)
    assert at_ends > 1000


def _fraction_class_check(lam):
    """Reference class check on ``Fraction`` vertices: an owner map over
    the sorted classes, then one sweep over every hull edge."""
    owner = {}
    for p in lam.sorted_classes():
        for v in p.vertices:
            if v in owner:
                raise LaminationError(f"classes {owner[v]} and {p} share a vertex")
            owner[v] = p
    hit = _sweep(e for c in lam.classes for e in _hull_edges(c.vertices))[0]
    if hit is not None:
        p1, p2 = sorted(owner[a] for a, _ in hit)
        raise LaminationError(f"classes {p1} and {p2} cross")


def test_class_lamination_check_names_the_fraction_sweep_pair():
    # the families of the pairwise test below, same seed and draws
    rng = random.Random(37)
    texts = []
    tried = 0
    while tried < 3000:
        try:
            classes = set(_random_classes(rng, 4))
        except LaminationError:
            continue
        tried += 1
        try:
            _fraction_class_check(ClassLamination(2, classes))
        except LaminationError as exc:
            want = str(exc)
        else:
            ClassLamination(2, classes).check()
            continue
        with pytest.raises(LaminationError) as err:
            ClassLamination(2, classes).check()
        assert str(err.value) == want
        texts.append(want)
    assert any(t.endswith("share a vertex") for t in texts)
    assert any(t.endswith("cross") for t in texts)


def test_class_lamination_check_matches_pairwise_oracle():
    def conflict(p1, p2):
        return set(p1.vertices) & set(p2.vertices) or any(
            chords_cross(e1, e2) for e1 in p1.edges() for e2 in p2.edges()
        )

    rng = random.Random(37)
    outcomes = set()
    tried = 0
    while tried < 3000:
        try:
            classes = set(_random_classes(rng, 4))
        except LaminationError:
            continue  # a single-vertex draw
        tried += 1
        bad = any(conflict(p1, p2) for p1, p2 in combinations(classes, 2))
        outcomes.add(bad)
        if not bad:
            ClassLamination.create(2, classes)
            continue
        with pytest.raises(LaminationError) as err:
            ClassLamination.create(2, classes)
        p1, p2 = (PolygonClass(v) for v in _named(r"\{([^{}]+)\}", str(err.value)))
        assert p1 in classes and p2 in classes
        if str(err.value).endswith("share a vertex"):
            assert set(p1.vertices) & set(p2.vertices)
        else:
            assert str(err.value).endswith("cross")
            assert any(chords_cross(e1, e2) for e1 in p1.edges() for e2 in p2.edges())
    assert outcomes == {False, True}


def test_sibling_count_balance_quick():
    # preimages of the two endpoints of a leaf balance across any chord whose
    # image is disjoint from the leaf's image
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        d = rng.choice([2, 3, 4])
        den = rng.randrange(5, 40)
        a, b, x, y = (F(rng.randrange(0, den), den) for _ in range(4))
        if len({a, b, x, y}) < 4:
            continue
        leaf, other = Chord(a, b), Chord(x, y)
        if chords_cross(leaf, other):
            continue
        img_l, img_o = image(leaf, d), image(other, d)
        if img_l is None or img_o is None:
            continue
        if img_l.shares_endpoint(img_o) or chords_cross(img_l, img_o):
            continue
        sibs_a = preimages(sigma(a, d), d)
        sibs_b = preimages(sigma(b, d), d)
        from lamkit.circle import in_open_arc

        side1_a = sum(1 for s in sibs_a if in_open_arc(s, x, y))
        side1_b = sum(1 for s in sibs_b if in_open_arc(s, x, y))
        assert side1_a == side1_b, (d, leaf, other)
        side2_a = sum(1 for s in sibs_a if in_open_arc(s, y, x))
        side2_b = sum(1 for s in sibs_b if in_open_arc(s, y, x))
        assert side2_a == side2_b
        checked += 1


def _brute_depths(model):
    """Reference depths: follow each class's image until a class repeats,
    at most ``len(classes)`` steps; the depth is the index of the first
    visit to the repeated class, and None once an image is no class."""
    image = {c: tuple(sorted({model.sigma(v) for v in c})) for c in model.classes}
    depths = {}
    for c in model.classes:
        path = [c]
        while path[-1] is not None and path[-1] not in path[:-1]:
            path.append(image[path[-1]] if image[path[-1]] in image else None)
        depths[c] = None if path[-1] is None else path.index(path[-1])
    return depths


def test_depths_match_brute_force(basilica_tree, rabbit_tree, cubic_tree):
    hexagon = PolygonClass((F(1, 14), F(1, 7), F(2, 7), F(4, 7), F(9, 14), F(11, 14)))
    # u maps onto the absent sibling; w and v map onto u
    u = PolygonClass((F(9, 28), F(11, 28), F(15, 28)))
    w = PolygonClass((F(9, 56), F(11, 56), F(15, 56)))
    v = PolygonClass((F(37, 56), F(39, 56), F(43, 56)))
    lams = [(n.degree, n.lamination.classes) for t in (basilica_tree, rabbit_tree, cubic_tree) for n in t.all_nodes()]
    lams += [(2, ClassLamination.create(2, cs).classes) for cs in ([hexagon], [RABBIT, u], [RABBIT, u, w, v])]
    values = set()
    for d, classes in lams:
        model = _IntModel(d, *_class_residues([c.vertices for c in classes]))
        depths = model.depths
        assert depths == _brute_depths(model)
        values |= set(depths.values())
    assert None in values and max(v for v in values if v is not None) >= 8
