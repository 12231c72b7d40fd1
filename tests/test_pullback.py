import hashlib
import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product
from math import lcm

import pytest

from lamkit import pullback
from lamkit.circle import (
    OrbitInfo,
    _orbits,
    circle_dist,
    in_closed_arc,
    in_open_arc,
    orbit_info,
    preimages,
    sigma,
)
from lamkit.core import (
    DEGREE_KNOWN,
    GAP_POLYGON,
    GAP_ROUND,
    Chord,
    ChordSet,
    ClassLamination,
    LaminationError,
    PolygonClass,
    _sweep,
    chords_cross,
    covering_degree,
    criticality_audit,
    gap_decomposition,
    gap_degree,
)
from lamkit.fdl import build_pullback_tree, enumerate_children, root_fdl, validate_fdl
from lamkit.io import load_lamination, save_lamination
from lamkit.paramgraph import ParamGraphError, refines
from lamkit.pullback import (
    CriticalChordSet,
    PropernessReport,
    PullbackError,
    _chains,
    _critical_round_gaps,
    _gap_inside,
    hyperbolic_approx,
    lamination_distance,
    place_critical_chords,
    properness_report,
    pullback_lamination,
    pullback_step,
)
from helpers import (
    arc_len,
    connected_first_lift,
    image,
    leaf_distance,
    reference_hyperbolic_approx,
    scan_branch_preimages,
    smallest_angle_successor,
    sorted_chains,
    three_loop_properness,
    unstamped,
)

RABBIT = PolygonClass((F(1, 7), F(2, 7), F(4, 7)))
SIBLING = PolygonClass((F(1, 14), F(9, 14), F(11, 14)))
LEVEL1 = ClassLamination.create(2, [RABBIT, SIBLING])


@pytest.fixture(scope="module")
def eighths_tree():
    # the tree below the cubic root {1/8, 3/8}
    return build_pullback_tree(root_fdl(3, [PolygonClass((F(1, 8), F(3, 8)))]), 3)


def _chords(pairs):
    return {Chord(F(*a), F(*b)) for a, b in pairs}


def test_critical_chord_set_invariants():
    CriticalChordSet.create(2, [Chord(F(0), F(1, 2))])
    CriticalChordSet.create(3, [Chord(F(0), F(1, 3)), Chord(F(1, 3), F(2, 3))])
    with pytest.raises(PullbackError):
        CriticalChordSet.create(2, [Chord(F(0), F(1, 3))])  # not critical
    with pytest.raises(PullbackError):
        CriticalChordSet.create(2, [])  # wrong count
    with pytest.raises(PullbackError):  # closed loop of critical chords
        CriticalChordSet.create(
            4,
            [
                Chord(F(0), F(1, 4)),
                Chord(F(1, 4), F(1, 2)),
                Chord(F(1, 2), F(0)),
            ],
        )
    with pytest.raises(PullbackError, match=r"^chord \(0,1/3\) does not split any region$"):
        CriticalChordSet.create(3, [Chord(F(0), F(1, 3)), Chord(F(0), F(1, 3))])


def test_branches():
    cs = CriticalChordSet.create(3, [Chord(F(0), F(1, 3)), Chord(F(1, 3), F(2, 3))])
    assert cs.branches() == [
        ((F(0), F(1, 3)),),
        ((F(1, 3), F(2, 3)),),
        ((F(2, 3), F(0)),),
    ]


def _has_loop(chords):
    """Reference loop test: a depth-first search of the chord graph."""
    adj = {}
    for c in chords:
        adj.setdefault(c.a, set()).add(c.b)
        adj.setdefault(c.b, set()).add(c.a)
    seen = set()
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


def _arc_within(arc, a, b):
    """Is the closed arc contained in the closed counterclockwise arc [a, b]?"""
    s, e = arc
    rel_s = (s - a) % 1
    rel_e = (e - a) % 1
    span = (b - a) % 1
    return rel_s <= rel_e <= span


def _split_branches(chords):
    """Reference branches: each chord in turn splits the region whose arcs
    lie on both of its sides."""
    cuts = sorted({p for c in chords for p in (c.a, c.b)})
    regions = [[(cuts[i], cuts[(i + 1) % len(cuts)]) for i in range(len(cuts))]]
    for chord in chords:
        for idx, region in enumerate(regions):
            inside = [arc for arc in region if _arc_within(arc, chord.a, chord.b)]
            outside = [arc for arc in region if arc not in inside]
            if inside and outside:
                regions[idx] = inside
                regions.append(outside)
                break
        else:
            raise PullbackError(f"chord {chord} does not split any region")
    return [tuple(sorted(r)) for r in sorted(regions)]


def _reference_create(d, chords):
    """Branches of a critical-chord set by the reference loop test and
    splitting, or the text of the first error."""
    chords = sorted(chords)
    if len(chords) != d - 1:
        return f"need exactly {d - 1} critical chords for degree {d}, got {len(chords)}"
    for c in chords:
        if not c.is_critical(d):
            return f"chord {c} is not critical in degree {d}"
    hit = _sweep((c.a, c.b) for c in chords)[0]
    if hit is not None:
        return f"critical chords {Chord(*hit[0])} and {Chord(*hit[1])} cross"
    if _has_loop(chords):
        return "critical chords close a loop"
    try:
        branches = _split_branches(chords)
    except PullbackError as exc:
        return str(exc)
    for branch in branches:
        total = sum((arc_len(s, e) for s, e in branch), F(0))
        if total != F(1, d):
            return f"branch {branch} has basis length {total}, expected 1/{d}"
    return branches


def _random_chord_lists(seed, count):
    """Chords through a few fibres of sigma_d, so chains, loops and valid
    sets are common, with non-critical, repeated and miscounted sets mixed in."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.randint(2, 5)
        fibres = [preimages(F(rng.randrange(q), q), d) for q in rng.sample(range(1, 13), rng.randint(1, 2))]
        n = d - 1 if rng.random() < 0.85 else rng.randrange(d + 2)
        chords = []
        while len(chords) < n:
            roll = rng.random()
            if chords and roll < 0.08:
                chords.append(rng.choice(chords))
                continue
            pool = sorted({p for f in fibres for p in f}) if roll < 0.16 else rng.choice(fibres)
            chords.append(Chord(*rng.sample(pool, 2)))
        out.append((d, chords))
    return out


# no "basis length" error: without loops or repeats the d regions each
# have a basis that is a positive multiple of 1/d, so each is exactly 1/d
_OUTCOMES = ("need exactly", "not critical", "cross", "loop", "does not split")


def test_branches_match_split_and_loop_oracle():
    seen = set()
    for d, chords in _random_chord_lists(12, 4000):
        expected = _reference_create(d, chords)
        try:
            got = CriticalChordSet.create(d, chords).branches()
        except PullbackError as exc:
            got = str(exc)
        assert got == expected, (d, [str(c) for c in chords])
        seen |= {k for k in _OUTCOMES if k in expected} if isinstance(expected, str) else {"ok"}
    assert seen == {"ok", *_OUTCOMES}


def test_place_critical_chords():
    canonical = place_critical_chords(LEVEL1)[0]
    assert canonical.chords == (Chord(F(1, 14), F(4, 7)),)
    all_placements = place_critical_chords(LEVEL1, enumerate_all=True)
    assert {cs.chords for cs in all_placements} == {
        (Chord(F(1, 14), F(4, 7)),),
        (Chord(F(1, 7), F(9, 14)),),
    }
    assert place_critical_chords(ClassLamination.create(2, []))[0].chords == (
        Chord(F(0), F(1, 2)),
    )
    assert place_critical_chords(ClassLamination.create(3, []))[0].chords == (
        Chord(F(0), F(1, 3)),
        Chord(F(1, 3), F(2, 3)),
    )
    with pytest.raises(PullbackError):
        place_critical_chords(ClassLamination.create(2, [RABBIT]))


def _reference_place_critical_chords(lam, enumerate_all=False):
    """Reference placement: its own gap walk, polygon covering degrees and
    round-gap degrees, in one loop per gap kind."""
    d = lam.degree
    decomp = gap_decomposition(lam)
    gap_anchor_options = []
    for poly in decomp.polygon_gaps:
        cov = covering_degree(poly, d)
        if not cov.has_degree:
            raise PullbackError(f"polygon {poly} has no degree; cannot place chords")
        if cov.degree < 2:
            continue
        anchors = [poly.vertices[0]] if not enumerate_all else list(poly.vertices)
        gap_anchor_options.append(
            sorted_chains(anchors, cov.degree, d, lambda p, poly=poly: p in set(poly.vertices))
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
                anchors = [F(0)]
        gap_anchor_options.append(sorted_chains(anchors, status.degree, d, gap.contains_point))

    if not gap_anchor_options:
        raise PullbackError("no critical gaps; nothing to place")

    results = []
    for combo in product(*gap_anchor_options):
        chords = [c for chain in combo for c in chain]
        results.append(CriticalChordSet.create(d, chords))
    seen = set()
    out = []
    for cs in results:
        if cs.chords not in seen:
            seen.add(cs.chords)
            out.append(cs)
    return out


def _placements_or_error(place, lam, enumerate_all):
    try:
        return [cs.chords for cs in place(lam, enumerate_all)]
    except ValueError as exc:
        return type(exc), str(exc)


def test_place_critical_chords_matches_two_loop_oracle(rabbit_tree, cubic_tree, basilica_tree):
    lams = [n.lamination for t in (rabbit_tree, cubic_tree) for n in t.all_nodes()]
    lams += [n.lamination for level in basilica_tree.levels[:7] for n in level]
    reversing = PolygonClass((F(0), F(1, 8), F(3, 8)))
    lams += [ClassLamination.create(3, [reversing])]
    lams += [ClassLamination.create(d, []) for d in (2, 3)]
    outcomes = set()
    for lam in lams:
        for enumerate_all in (False, True):
            got = _placements_or_error(place_critical_chords, lam, enumerate_all)
            assert got == _placements_or_error(_reference_place_critical_chords, lam, enumerate_all), (
                sorted(lam.classes),
                enumerate_all,
            )
            outcomes.add(min(len(got), 2) if isinstance(got, list) else got[1].split("(")[0])
    # one and several placements, and gaps without a degree of both kinds
    assert outcomes == {1, 2, "RoundGap", "polygon {0,1/8,3/8} has no degree; cannot place chords"}


def _chains_or_error(chains, anchors, k, d, contains):
    try:
        return chains(anchors, k, d, contains)
    except PullbackError as exc:
        return str(exc)


def test_chains_match_the_sorted_oracle(rabbit_tree, cubic_tree, basilica_tree):
    # seeded anchors: a random part of the anchor's siblings, a random other
    # point, and a chain length that is right, one short or one long
    rng = random.Random(30)
    outcomes, long_chains = Counter(), 0
    for _ in range(3000):
        d = rng.randint(2, 5)
        q = rng.randint(1, 30)
        anchor = F(rng.randrange(q), q)
        sibs = [(anchor + F(j, d)) % 1 for j in range(d)]
        inside = {p for p in sibs if rng.random() < 0.6} | {F(rng.randrange(2 * q), 2 * q)}
        if rng.random() < 0.8:
            inside.add(anchor)
        k = len(inside.intersection(sibs)) + rng.choice([0, 0, 0, -1, 1])
        anchors = [anchor] + rng.sample(sibs, rng.randint(0, 2))
        got = _chains_or_error(_chains, anchors, k, d, inside.__contains__)
        assert got == _chains_or_error(sorted_chains, anchors, k, d, inside.__contains__), (anchors, k, d, inside)
        key = (d, "error" if isinstance(got, str) else "ok")
        outcomes[key] += 1
        long_chains += key[1] == "ok" and any(len(chain) > 1 for chain in got)
    assert len(outcomes) == 8 and min(outcomes.values()) >= 100 and long_chains >= 300, outcomes
    # the critical gaps of the fixture nodes, every basis end or vertex as anchor
    lams = [n.lamination for t in (rabbit_tree, cubic_tree) for n in t.all_nodes()]
    lams += [n.lamination for level in basilica_tree.levels[:7] for n in level]
    chains = errors = 0
    for lam in lams:
        for entry in criticality_audit(lam).entries:
            if entry.status.kind != DEGREE_KNOWN or entry.status.degree < 2:
                continue
            gap = entry.gap
            if entry.kind == GAP_POLYGON:
                anchors, contains = gap.vertices, gap.vertices.__contains__
            else:
                anchors, contains = sorted({p for arc in gap.arcs for p in arc}), gap.contains_point
            for anchor in anchors:
                for k in (entry.status.degree, entry.status.degree + 1):
                    got = _chains_or_error(_chains, [anchor], k, lam.degree, contains)
                    assert got == _chains_or_error(sorted_chains, [anchor], k, lam.degree, contains)
                    chains += isinstance(got, list)
                    errors += isinstance(got, str)
    # each gap's chain, and a one-too-long chain that fails: 506 each when written
    assert chains == errors >= 500


def test_place_critical_chords_inside_critical_polygon():
    # the level-4 node that traps its criticality in a hexagon still admits
    # a chain, now made of the hexagon's same-fiber diagonals
    hexa = PolygonClass(tuple(F(k, 112) for k in (9, 11, 15, 65, 67, 71)))
    u2 = PolygonClass(tuple(F(k, 112) for k in (74, 78, 86)))
    u2b = PolygonClass(tuple(F(k, 112) for k in (18, 22, 30)))
    v1 = PolygonClass(tuple(F(k, 112) for k in (2, 102, 106)))
    v1b = PolygonClass(tuple(F(k, 112) for k in (46, 50, 58)))
    lam = ClassLamination.create(
        2,
        [
            PolygonClass((F(1, 7), F(2, 7), F(4, 7))),
            PolygonClass((F(1, 14), F(9, 14), F(11, 14))),
            PolygonClass(tuple(F(k, 56) for k in (9, 11, 15))),
            PolygonClass(tuple(F(k, 56) for k in (37, 39, 43))),
            PolygonClass(tuple(F(k, 56) for k in (1, 51, 53))),
            PolygonClass(tuple(F(k, 56) for k in (23, 25, 29))),
            hexa,
            u2,
            u2b,
            v1,
            v1b,
        ],
    )
    placement = place_critical_chords(lam)[0]
    (chord,) = placement.chords
    assert {chord.a, chord.b} <= set(hexa.vertices)
    assert chord.is_critical(2)


def test_pullback_step_seven_chord_oracle():
    crit = CriticalChordSet.create(2, [Chord(F(1, 7), F(9, 14))])
    start = ClassLamination.create(2, [RABBIT]).as_chordset()
    out = pullback_step(start, crit)
    expected = _chords(
        [
            ((1, 14), (1, 7)),
            ((1, 7), (2, 7)),
            ((2, 7), (4, 7)),
            ((4, 7), (9, 14)),
            ((9, 14), (11, 14)),
            ((11, 14), (1, 14)),
            ((4, 7), (1, 7)),
        ]
    )
    assert set(out.chords) == expected


def test_pullback_step_rejects_crossing():
    crit = CriticalChordSet.create(2, [Chord(F(1, 8), F(5, 8))])
    bad = ChordSet.create(2, [Chord(F(0), F(1, 2))])
    with pytest.raises(PullbackError) as err:
        pullback_step(bad, crit)
    assert str(err.value) == _fraction_step_error(bad, crit)


def test_crossing_precheck_names_the_first_sorted_chord():
    # seeded non-crossing chord sets against a critical chord set of degree
    # 2 or 3; the error names the least input chord, in Chord order, that
    # crosses a critical chord, and the least critical chord it crosses,
    # both found by a scan of every pair
    rng = random.Random(34)
    several = 0
    for _ in range(2000):
        d, den = rng.choice((2, 3)), rng.choice((10, 12, 18, 24, 30))
        chords = []
        for _ in range(rng.randrange(1, 9)):
            c = Chord(*(F(x, den) for x in rng.sample(range(den), 2)))
            if not any(chords_cross(c, o) for o in chords):
                chords.append(c)
        x = F(rng.randrange(4 * den), 4 * den)
        crit = CriticalChordSet.create(d, [Chord(x + F(j, d), x + F(j + 1, d)) for j in range(d - 1)])
        crossing = [s for s in chords if any(chords_cross(s, c) for c in crit.chords)]
        if not crossing:
            continue
        several += len(crossing) > 1
        first = min(crossing)
        named = min(c for c in crit.chords if chords_cross(first, c))
        rng.shuffle(chords)
        with pytest.raises(PullbackError) as err:
            pullback_step(ChordSet.create(d, chords), crit)
        assert str(err.value) == f"chord {first} crosses critical chord {named}"
    assert several > 500


def test_chord_sets_are_equal_exactly_when_their_chords_are():
    # pullback levels carry a modulus that need not be the lcm of their
    # denominators; they equal, and hash like, fresh chord sets of their chords
    p = F(15, 112)
    forced = CriticalChordSet.create(2, [Chord(p, p + F(1, 2))])
    seq = pullback_lamination(ClassLamination.create(2, [RABBIT]), forced, 5)
    moduli = 0
    for level in seq.levels:
        fresh = ChordSet(2, level.chords)
        assert level == fresh and hash(level) == hash(fresh)
        moduli += level._view[0] != fresh._view[0]
    assert moduli == 5
    assert all(a != b for a, b in combinations(seq.levels, 2))
    assert seq.levels[0] != ChordSet(3, seq.levels[0].chords)


def test_library_paths_build_no_frozensets(basilica_tree):
    # the public classes and chords frozensets are built on first use only
    docs = [save_lamination(n.lamination) for n in basilica_tree.levels[5]]
    made = []
    for doc in docs:
        lam = load_lamination(doc)
        assert validate_fdl(lam).valid and criticality_audit(lam).passed
        cs = lam.as_chordset()
        properness_report(cs)
        assert save_lamination(lam) == doc
        made += [lam, cs]
    lamination_distance(made[1], made[3])
    p = F(15, 112)
    forced = CriticalChordSet.create(2, [Chord(p, p + F(1, 2))])
    seq = pullback_lamination(load_lamination({"degree": 2, "classes": [["1/7", "2/7", "4/7"]]}), forced, 3)
    made += [seq.start, *seq.levels]
    assert not [x for x in made if "classes" in vars(x) or "chords" in vars(x)]


def test_pullback_empty_start():
    crit = CriticalChordSet.create(2, [Chord(F(0), F(1, 2))])
    out = pullback_step(ChordSet.create(2, []), crit)
    assert not out.chords


def test_pullback_of_the_critical_chord_itself():
    # the critical chord may sit in the set being pulled back; its lifts
    # share endpoints with the cut points but never cross anything
    crit = CriticalChordSet.create(2, [Chord(F(0), F(1, 2))])
    out = pullback_step(ChordSet.create(2, [Chord(F(0), F(1, 2))]), crit)
    ChordSet.create(2, out.chords)
    assert Chord(F(0), F(1, 2)) in out.chords
    for c in out.chords:
        img = image(c, 2)
        assert img is None or img == Chord(F(0), F(1, 2))


def test_pullback_levels_nest_and_map_down():
    crit = CriticalChordSet.create(2, [Chord(F(1, 7), F(9, 14))])
    start = ClassLamination.create(2, [RABBIT])
    seq = pullback_lamination(start, crit, 4)
    assert seq.counts() == [3, 7, 15, 31, 63]
    for prev, nxt in zip(seq.levels, seq.levels[1:]):
        assert prev.chords <= nxt.chords
        ChordSet.create(2, nxt.chords)  # non-crossing
        for c in nxt.chords - prev.chords:
            img = image(c, 2)
            assert img is None or img in prev.chords


def _fraction_arc_lift_length(alpha, beta, chord, cuts, d):
    # the length of a connected lift arc alpha->beta or beta->alpha, if any
    for start, end in ((chord.a, chord.b), (chord.b, chord.a)):
        lift_len = F((end - start) % 1, d)
        for lo, hi in ((alpha, beta), (beta, alpha)):
            if (hi - lo) % 1 == lift_len and not any(in_open_arc(p, lo, hi) for p in cuts):
                if sigma(lo, d) == start and sigma(hi, d) == end:
                    return lift_len
    return None


def _fraction_branch_lift(chord, branch, cuts, d, obstacles):
    # every candidate preimage pair in the closed branch, ranked on Fraction
    def in_branch(p):
        return any(in_closed_arc(p, s, e) for s, e in branch)

    arcs = " u ".join(f"[{s},{e}]" for s, e in branch)

    p_a = [p for p in preimages(chord.a, d) if in_branch(p)]
    p_b = [p for p in preimages(chord.b, d) if in_branch(p)]
    if not p_a or not p_b:
        raise PullbackError(f"branch {arcs} misses a preimage of {chord}")
    pairs = [(alpha, beta) for alpha in p_a for beta in p_b]
    if len(pairs) == 1:
        return Chord(*pairs[0])
    ranked = []
    for alpha, beta in pairs:
        cand = Chord(alpha, beta)
        if any(chords_cross(cand, o) for o in obstacles):
            continue
        lift = _fraction_arc_lift_length(alpha, beta, chord, cuts, d)
        ranked.append((lift is None, lift if lift is not None else cand.length(), cand))
    if not ranked:
        raise PullbackError(f"every lift of {chord} in branch {arcs} crosses the inputs")
    ranked.sort()
    return ranked[0][2]


def _fraction_pullback_step(chord_set, crit):
    """Reference pullback step on ``Fraction``: every chord lifted through
    every branch by ``circle`` predicates and ``chords_cross``."""
    d = chord_set.degree
    fixed = list(chord_set.chords)
    for s in fixed:
        for c in crit.chords:
            if chords_cross(s, c):
                raise PullbackError(f"chord {s} crosses critical chord {c}")
    obstacles = fixed + list(crit.chords)
    cuts = set(crit.cut_points())
    added = [
        _fraction_branch_lift(chord, branch, cuts, d, obstacles)
        for chord in sorted(chord_set.chords)
        for branch in crit.branches()
    ]
    return ChordSet.create(d, set(chord_set.chords) | set(added))


def _assert_view_matches_chords(level):
    # the residue view a level carries against its chords and a fresh view
    M, pairs, chords = level._view
    assert all(p < q for p, q in zip(pairs, pairs[1:])) and len(pairs) == len(chords)
    assert [(F(x, M), F(y, M)) for x, y in pairs] == [(c.a, c.b) for c in chords]
    assert set(chords) == level.chords
    assert M % lcm(*(p.denominator for c in chords for p in (c.a, c.b))) == 0
    assert properness_report(level) == properness_report(ChordSet(level.degree, level.chords))


def _assert_pullback_matches_oracle(start, crit, depth):
    seq = pullback_lamination(start, crit, depth)
    level = start.as_chordset()
    for got in seq.levels[1:]:
        level = _fraction_pullback_step(level, crit)
        assert got.chords == level.chords, (start, crit.chords)
    for got in seq.levels:
        _assert_view_matches_chords(got)
    # the modulus grows by d per step once the critical chords' lcm divides it
    moduli = [got._view[0] for got in seq.levels[1:]]
    assert all(m == crit.degree * prev for prev, m in zip(moduli, moduli[1:]))


def test_pullback_matches_fraction_oracle(rabbit_tree, cubic_tree):
    p = F(15, 112)
    forced = CriticalChordSet.create(2, [Chord(p, p + F(1, 2))])
    _assert_pullback_matches_oracle(ClassLamination.create(2, [RABBIT]), forced, 8)
    lvl1 = cubic_tree.levels[1][0].lamination
    _assert_pullback_matches_oracle(lvl1, place_critical_chords(lvl1)[0], 4)
    rabbit_crit = CriticalChordSet.create(2, [Chord(F(1, 7), F(9, 14))])
    _assert_pullback_matches_oracle(ClassLamination.create(2, [RABBIT]), rabbit_crit, 6)
    # the critical chord pulled back through itself: lifts tie on length,
    # so the pair order decides
    diameter = Chord(F(0), F(1, 2))
    _assert_pullback_matches_oracle(
        ClassLamination.create(2, [PolygonClass((F(0), F(1, 2)))]), CriticalChordSet.create(2, [diameter]), 4
    )
    placements = 0
    for level in rabbit_tree.levels:
        for node in level:
            try:
                crits = place_critical_chords(node.lamination, True)
            except PullbackError:
                continue  # no critical gap, or a gap without a degree
            for crit in crits:
                _assert_pullback_matches_oracle(node.lamination, crit, 3)
                placements += 1
    assert placements > 10


def _level_digests(seq):
    return [hashlib.sha256(" ".join(map(str, level.sorted_chords())).encode()).hexdigest() for level in seq.levels]


@pytest.fixture(scope="module")
def pinned_sequences(cubic_tree):
    # the forced rabbit chord to depth 12 and the cubic level-1 placement to
    # depth 6, each with the other critical chord sets placed on a node of its degree
    p = F(15, 112)
    forced = CriticalChordSet.create(2, [Chord(p, p + F(1, 2))])
    lvl1 = cubic_tree.levels[1][0].lamination
    crit = place_critical_chords(lvl1)[0]
    return [
        (pullback_lamination(ClassLamination.create(2, [RABBIT]), forced, 12), place_critical_chords(LEVEL1, True)),
        (pullback_lamination(lvl1, crit, 6), [c for c in place_critical_chords(lvl1, True) if c != crit]),
    ]


def test_pullback_level_digests_are_pinned(pinned_sequences):
    # the sha256 of each level's sorted chords, pinned before the forced-lift path
    (forced, _), (cubic, _) = pinned_sequences
    assert _level_digests(forced) == [
        "6e831af825de623d28e838c7281e7fb98be55f9a0e3d2433869c547db1bd3ef3",
        "8cac441e17730088326db96f894199532862566e891fff6caa63873662f12e13",
        "cdc99d6e8be1853bb11b6f186c18e21e9c75ec8db50ea1043560e43d1f451cc9",
        "4f47977389780c5b9944b2520d8aeb54b4f39bc76cff86d988c0c607a1cc096a",
        "5784fe7ad161a5ce5ae1b53b669316bde5b2788ae60208d6c5664344d0c280a4",
        "88d2c01fd7a970ec60eef0bbce54f9f13c299c1b7d614fd203c172b7f7844a92",
        "d0174ed4cf7450e9a655c0433b6bd10b4c26106c104e93f58dc86140643dcdea",
        "41756fe4986ae80257db3141ae1fcf420473eb0ae6318cbed5abee9bfb66905b",
        "c67d5bd68904115558579ff691d60b6f085bb648774367c198348bb475465f13",
        "1e0ed865c498b7bc5133fb99abb1483195311b3babeede40160ec82cff9bc459",
        "e934d9e75d80b113d6e03d5accd44095855ada044be67da8294ab169a1434762",
        "daa04144e77fa0a9ae00404b918cda02fea70bd0d358fa30407ee354b2b04916",
        "0b91cca6f437fa2982aea8cc20402b33bf0c67673046376bfeefb5ebb67dcc9a",
    ]
    assert _level_digests(cubic) == [
        "cb12b256917dcb376cc443e788b8dcfd4f065ad6f43817fbb4f937c0c632d4b4",
        "cc039e69e8c1c170386d1573488ccc1da98582a67c55ac032d696e83a527e3c3",
        "e7f334fa9f0d1015f4202331d8e5458ce22d9a2c608d282b28b24fb4b07ba018",
        "d07b92ea9febfd8ea105fd11a514163ab9d423f07f79624a541b307f042660c9",
        "9f624bf9f17f97b78a0a37283c80093fc842c3e0f83aa1a0c203f4760b8735b7",
        "17a225b580f7e4aeeb782f6fffb8606abd5e4a373fac251071880a3cc6079b5f",
        "f216b098624e2d04b8145014852a0909d3dbb3d5fcd7ae06e68fb91b73af6479",
    ]


def _step_or_error(chord_set, crit):
    try:
        out = pullback_step(chord_set, crit)
    except (PullbackError, LaminationError) as exc:
        return str(exc)
    return out._view, out._stamp


def test_stamped_steps_match_steps_on_unstamped_copies(pinned_sequences):
    # a level stamped for the critical chords it is pulled through lifts only
    # the chords the last step added; pulled through other critical chords
    # (in the cubic case, one shared), it lifts and pre-checks every chord
    for seq, others in pinned_sequences:
        crit = seq.chords_used
        for level, nxt in zip(seq.levels, seq.levels[1:]):
            assert _step_or_error(unstamped(level), crit) == (nxt._view, nxt._stamp)
            assert nxt._stamp[0] == crit.chords and len(nxt._stamp[1]) == len(nxt) - len(level)
        for level in seq.levels[: 10 if crit.degree == 2 else 4]:  # deeper levels cost 2-3 times more each
            for other in others:
                assert _step_or_error(level, other) == _step_or_error(unstamped(level), other)


def test_a_stamp_for_other_critical_chords_keeps_the_precheck():
    # levels stamped for the forced chord, pulled through 112 diameters: where
    # a chord crosses the diameter, the error is the unstamped copy's and names
    # the least crossing chord, an old one (not added by the last step) or a new one
    p = F(15, 112)
    forced = CriticalChordSet.create(2, [Chord(p, p + F(1, 2))])
    seq = pullback_lamination(ClassLamination.create(2, [RABBIT]), forced, 5)
    seen = Counter()
    for prev, level in zip(seq.levels, seq.levels[1:]):
        for k in range(56):
            diameter = CriticalChordSet.create(2, [Chord(F(k, 112), F(k + 56, 112))])
            crossing = [s for s in level.sorted_chords() if chords_cross(s, diameter.chords[0])]
            got = _step_or_error(level, diameter)
            assert got == _step_or_error(unstamped(level), diameter)
            if crossing:
                assert got == f"chord {crossing[0]} crosses critical chord {diameter.chords[0]}"
                seen["old" if crossing[0] in prev.chords else "new"] += 1
            seen["an old chord crosses"] += any(s in prev.chords for s in crossing)
    # {"an old chord crosses": 240, "old": 148, "new": 97} when this test was written
    assert seen["an old chord crosses"] >= 240 and seen["old"] >= 140 and seen["new"] >= 90, seen


def test_random_pullbacks_match_steps_on_unstamped_copies():
    # the seed-31 critical chord sets, each pulling back one chord to depth 3:
    # pullback_lamination gives the levels of stepping unstamped copies, or
    # the error text of the first failing step after the same levels
    rng = random.Random(31)
    seen = Counter()
    for d, chords in _random_chord_lists(31, 3000):
        try:
            crit = CriticalChordSet.create(d, chords)
        except PullbackError:
            continue
        values = {sigma(c.a, d) for c in crit.chords}
        pool = sorted(values | {F(rng.randrange(q), q) for q in rng.sample(range(1, 13), 2)})
        candidates = [
            (a, b) for a, b in combinations(pool, 2) if not any(chords_cross(Chord(a, b), c) for c in crit.chords)
        ]
        if not candidates:
            continue
        start = ClassLamination.create(d, [PolygonClass(rng.choice(candidates))])
        levels, error = [start.as_chordset()], None
        while error is None and len(levels) <= 3:
            try:
                levels.append(pullback_step(unstamped(levels[-1]), crit))
            except LaminationError as exc:
                error = f"pullback step {len(levels)}: the lifts make crossing chords: {exc}"
            except PullbackError as exc:
                error = str(exc)
        try:
            got = pullback_lamination(start, crit, 3).levels
        except PullbackError as exc:
            assert str(exc) == error
            got = pullback_lamination(start, crit, len(levels) - 1).levels
            seen[f"error at step {len(levels)}"] += 1
            seen["crossing lifts"] += "crossing chords" in error
        else:
            assert error is None
            seen["depth 3"] += 1
        assert [level._view for level in got] == [level._view for level in levels]
    # {"depth 3": 768, "error at step 1": 91, "error at step 2": 59, "error at step 3": 57,
    # "crossing lifts": 133} when this test was written
    assert seen["depth 3"] >= 750 and seen["crossing lifts"] >= 130, seen
    assert min(seen[f"error at step {k}"] for k in (1, 2, 3)) >= 55, seen


def test_lift_matches_the_connected_first_oracle(monkeypatch, cubic_tree, eighths_tree):
    # every lift that two pullback steps make through every placement of
    # the cubic nodes and of the nodes below the cubic root {1/8, 3/8}:
    # _lift on the ambiguous ones, and every forced pair of the preimage rows
    lift, preimage_rows, step = pullback._lift, pullback._preimage_rows, pullback.pullback_step
    seen = {"ambiguous": 0, "non-connected": 0, "forced": 0}
    last = {}

    def checked(x, y, branch, M, obstacles, *rest):
        d = node.lamination.degree  # of the node the loop below pulls back
        try:
            want, ranked = connected_first_lift(x, y, branch, M, d, obstacles)
        except PullbackError as exc:
            with pytest.raises(PullbackError) as err:
                lift(x, y, branch, M, obstacles, *rest)
            assert str(err.value) == str(exc)
            raise
        assert lift(x, y, branch, M, obstacles, *rest) == want, (x, y, branch, M, obstacles)
        seen["ambiguous"] += bool(ranked)
        seen["non-connected"] += any(not_connected for not_connected, _, _ in ranked)
        return want

    def rows(zs, d, M, points, branches):
        last.update(M=M, branches=branches, rows=preimage_rows(zs, d, M, points, branches))
        return last["rows"]

    def stepped(chord_set, crit):
        chord_set = unstamped(chord_set)  # so every chord is lifted, as a stamped level's old ones are not
        out = step(chord_set, crit)
        (M_in, inputs, _), (M, pairs, _) = chord_set._view, out._view
        assert M == last["M"]
        pairs = set(pairs)
        for x, y in ((x * (M // M_in), y * (M // M_in)) for x, y in inputs):
            for branch, u, v in zip(last["branches"], last["rows"][x], last["rows"][y]):
                if type(u) is type(v) is int:  # a forced pair ranks no candidates, so meets no obstacles
                    want, ranked = connected_first_lift(x, y, branch, M, chord_set.degree, ())
                    assert not ranked and want == (min(u, v), max(u, v)) and want in pairs, (x, y, branch, M)
                    seen["forced"] += 1
        return out

    monkeypatch.setattr(pullback, "_lift", checked)
    monkeypatch.setattr(pullback, "_preimage_rows", rows)
    monkeypatch.setattr(pullback, "pullback_step", stepped)
    nodes = [*cubic_tree.all_nodes(), *(n for level in eighths_tree.levels[:3] for n in level)]
    for node in nodes:
        try:
            placements = place_critical_chords(node.lamination, True)
        except PullbackError:
            continue  # a gap without a degree
        for crit in placements:
            pullback_lamination(node.lamination, crit, 2)
    # 2,642 and 872 when this test was written; 242,962 forced of the 245,604 lifts
    assert seen["ambiguous"] >= 1000 and seen["non-connected"] >= 500 and seen["forced"] >= 240000, seen


def test_branch_preimages_match_the_arc_scan_oracle(monkeypatch):
    # the branch-indexed preimage rows of pullback_step against a scan of
    # every branch arc, per endpoint and branch, through 3,000 seeded
    # critical-chord sets; the endpoints include critical values, whose
    # preimages include cut points
    preimage_rows = pullback._preimage_rows
    seen = {"entries": 0, "at a cut point": 0}

    def checked(zs, d, M, points, branches):
        rows = preimage_rows(zs, d, M, points, branches)
        assert set(rows) == set(zs)
        for z, row in rows.items():
            assert len(row) == len(branches)
            for ps, branch in zip(row, branches):
                assert type(ps) is int or len(ps) != 1, (z, branch, M)  # one preimage is held bare
                got = [ps] if type(ps) is int else list(ps)
                assert got == scan_branch_preimages(z, branch, M, d), (z, branch, M)
                seen["entries"] += 1
                seen["at a cut point"] += sum(p in points for p in got)
        return rows

    monkeypatch.setattr(pullback, "_preimage_rows", checked)
    d = 2
    diameter = CriticalChordSet.create(d, [Chord(F(0), F(1, 2))])
    # 0 has the preimages 0 and 1/2, the cut points, which close arcs of both branches
    pullback_step(ChordSet.create(2, [diameter.chords[0]]), diameter)
    assert seen == {"entries": 4, "at a cut point": 4}
    rng = random.Random(31)
    sets = 0
    for d, chords in _random_chord_lists(31, 10000):
        try:
            crit = CriticalChordSet.create(d, chords)
        except PullbackError:
            continue
        values = {sigma(c.a, d) for c in crit.chords}
        pool = sorted(values | {F(rng.randrange(q), q) for q in rng.sample(range(1, 13), 2)})
        candidates = [
            Chord(a, b)
            for a, b in combinations(pool, 2)
            if not any(chords_cross(Chord(a, b), c) for c in crit.chords)
        ]
        if not candidates:
            continue
        try:
            pullback_step(ChordSet.create(d, [rng.choice(candidates)]), crit)
        except (PullbackError, LaminationError):
            pass
        sets += 1
        if sets == 3000:
            break
    assert sets == 3000
    # 15,172 and 11,356 when the rows came in, as many as the per-branch lists held before them
    assert seen["entries"] >= 15000 and seen["at a cut point"] >= 11000, seen


def _fraction_step_error(start, crit):
    with pytest.raises((PullbackError, LaminationError)) as err:
        _fraction_pullback_step(start, crit)
    return str(err.value)


@pytest.mark.parametrize(
    "chords, crit, message",
    [
        (
            [((0, 1), (2, 5)), ((3, 5), (4, 5))],
            [((0, 1), (1, 2))],
            "every lift of (0,2/5) in branch [1/2,0] crosses the inputs",
        ),
        ([((0, 1), (1, 4)), ((1, 4), (3, 4))], [((1, 4), (3, 4))], "chords (0,1/4) and (1/8,7/8) cross"),
        (
            [((1, 15), (1, 10)), ((7, 30), (1, 2))],
            [((1, 6), (1, 2)), ((0, 1), (2, 3))],
            "every lift of (7/30,1/2) in branch [0,1/6] u [1/2,2/3] crosses the inputs",
        ),
    ],
)
def test_pullback_errors_match_fraction_oracle(chords, crit, message):
    d = len(crit) + 1
    crit = CriticalChordSet.create(d, _chords(crit))
    start = ChordSet.create(d, _chords(chords))
    with pytest.raises((PullbackError, LaminationError)) as err:
        pullback_step(start, crit)
    assert str(err.value) == _fraction_step_error(start, crit) == message


def test_degree_mismatches_are_classified(rabbit_tree, cubic_tree):
    cubic = cubic_tree.levels[1][0]
    crit = place_critical_chords(cubic.lamination)[0]
    with pytest.raises(PullbackError) as err:
        pullback_step(LEVEL1.as_chordset(), crit)
    assert str(err.value) == "degree mismatch between chord set and critical chords"
    with pytest.raises(PullbackError) as err:
        pullback_lamination(LEVEL1, crit, 1)
    assert str(err.value) == "degree mismatch"
    with pytest.raises(ParamGraphError) as err:
        refines(rabbit_tree.levels[1][0], cubic)
    assert str(err.value) == "refinement compares laminations of equal degree"


def test_pullback_degree3(cubic_tree):
    lvl1 = cubic_tree.levels[1][0].lamination
    placements = place_critical_chords(lvl1)
    crit = placements[0]
    assert len(crit.chords) == 2 and len(crit.branches()) == 3
    seq = pullback_lamination(lvl1, crit, 3)
    for prev, nxt in zip(seq.levels, seq.levels[1:]):
        assert prev.chords <= nxt.chords
        ChordSet.create(3, nxt.chords)  # non-crossing
        for c in nxt.chords - prev.chords:
            img = image(c, 3)
            assert img is None or img in prev.chords


def test_leaf_distance_pairings():
    assert leaf_distance(Chord(F(0), F(1, 2)), Chord(F(1, 10), F(1, 2))) == F(1, 10)
    assert leaf_distance(Chord(F(0), F(1, 2)), Chord(F(0), F(1, 2))) == 0


def test_lamination_distance_examples():
    empty = ChordSet.create(2, [])
    one = ChordSet.create(2, [Chord(F(0), F(1, 10))])
    assert lamination_distance(empty, one) == F(1, 10)
    a = ChordSet.create(2, [Chord(F(0), F(1, 2))])
    b = ChordSet.create(2, [Chord(F(1, 10), F(1, 2))])
    assert lamination_distance(a, b) == F(1, 10)
    assert lamination_distance(a, a) == 0


def _random_chordset(rng, d=2, max_chords=5, den=24):
    chords = []
    for _ in range(rng.randrange(0, max_chords + 1)):
        a = F(rng.randrange(den), den)
        b = F(rng.randrange(den), den)
        if a == b:
            continue
        c = Chord(a, b)
        if any(chords_cross(c, o) for o in chords):
            continue
        chords.append(c)
    return ChordSet.create(d, chords)


def test_metric_axioms_random():
    rng = random.Random(99)
    for _ in range(120):
        a, b, c = (_random_chordset(rng) for _ in range(3))
        dab = lamination_distance(a, b)
        assert dab == lamination_distance(b, a)
        assert dab <= F(1, 2)
        if set(a.chords) == set(b.chords):
            assert dab == 0
        else:
            assert dab >= 0
        assert lamination_distance(a, c) <= dab + lamination_distance(b, c)


def _all_pairs_distance(a, b):
    """Reference metric on ``Fraction``: every leaf against every leaf of the
    other set and against its nearest degenerate leaf (``leaf_distance``
    and ``circle_dist`` inlined)."""

    def dist(u, v):
        x = (u - v) % 1
        return min(x, 1 - x)

    def to_set(c, others):
        return min(
            [dist(c.a, c.b)]
            + [min(dist(c.a, o.a) + dist(c.b, o.b), dist(c.a, o.b) + dist(c.b, o.a)) for o in others]
        )

    return max(
        [to_set(c, b.chords) for c in a.chords] + [to_set(c, a.chords) for c in b.chords],
        default=F(0),
    )


def _assert_distance_matches_oracle(pairs):
    for a, b in pairs:
        want = _all_pairs_distance(a, b)
        assert lamination_distance(a, b) == want, (a.chords, b.chords)
        assert lamination_distance(b, a) == want, (a.chords, b.chords)


def _pool_chordset(rng, d, pool):
    chords = set()
    for _ in range(rng.randrange(0, 9)):
        c = Chord(*rng.sample(pool, 2))
        if not any(chords_cross(c, o) for o in chords):
            chords.add(c)
    return ChordSet.create(d, chords)


def test_distance_matches_all_pairs_oracle():
    rng = random.Random(2024)
    pairs = []
    for _ in range(3000):
        # both sets draw from one small pool over three denominators, so
        # they share endpoints with each other and chords share endpoints
        pool = sorted({F(rng.randrange(den), den) for den in rng.sample(range(2, 40), 3) for _ in range(4)})
        d = rng.choice([2, 3])
        pairs.append((_pool_chordset(rng, d, pool), _pool_chordset(rng, d, pool)))
    ends = [{p for c in s.chords for p in (c.a, c.b)} for pair in pairs for s in pair]
    assert sum(1 for a, b in zip(ends[::2], ends[1::2]) if a & b) > 1000
    assert any(not a.chords and b.chords for a, b in pairs)
    assert any(a.chords and not b.chords for a, b in pairs)
    _assert_distance_matches_oracle(pairs)


def test_distance_matches_all_pairs_oracle_on_tree_nodes(rabbit_tree, basilica_tree):
    rng = random.Random(6)
    pairs = [(p.lamination.as_chordset(), c.lamination.as_chordset()) for p, c in rabbit_tree.edges()]
    level6 = [n.lamination.as_chordset() for n in basilica_tree.levels[6]]
    pairs += [tuple(rng.sample(level6, 2)) for _ in range(20)]
    _assert_distance_matches_oracle(pairs)


def _fraction_orbit_info(a, d):
    """Reference orbit: iterate ``a -> d * a mod 1`` on ``Fraction`` until a repeat."""
    seen = {}
    cur = a % 1
    i = 0
    while cur not in seen:
        seen[cur] = i
        cur = (cur * d) % 1
        i += 1
    first = seen[cur]
    return OrbitInfo(preperiod=first, period=i - first)


def _orbit_info_properness(chord_set):
    """Reference properness scan: the ``Fraction`` orbit of every endpoint."""
    d = chord_set.degree
    chords = chord_set.sorted_chords()
    info = {p: _fraction_orbit_info(p, d) for c in chords for p in (c.a, c.b)}
    critical = [
        c for c in chords if c.is_critical(d) and (info[c.a].preperiod == 0 or info[c.b].preperiod == 0)
    ]
    at_point = {}
    for c in chords:
        at_point.setdefault(c.a, []).append(c)
        at_point.setdefault(c.b, []).append(c)
    wedges = []
    for v, incident in sorted(at_point.items()):
        if len(incident) < 2 or info[v].preperiod != 0:
            continue
        for i, c1 in enumerate(incident):
            for c2 in incident[i + 1 :]:
                i1, i2 = image(c1, d), image(c2, d)
                if i1 is not None and i1 == i2:
                    wedges.append((v, c1, c2))
    unclean = [(v, len(cs)) for v, cs in sorted(at_point.items()) if len(cs) >= 3]
    mismatched = []
    for c in chords:
        ia, ib = info[c.a], info[c.b]
        if (ia.preperiod == 0 or ib.preperiod == 0) and (
            ia.preperiod != 0 or ib.preperiod != 0 or ia.period != ib.period
        ):
            mismatched.append(c)
    return PropernessReport(critical, wedges, unclean, mismatched)


def test_properness_matches_orbit_info_oracle(rabbit_tree, cubic_tree, basilica_tree):
    p = F(15, 112)
    crit = CriticalChordSet.create(2, [Chord(p, p + F(1, 2))])
    forced = pullback_lamination(ClassLamination.create(2, [RABBIT]), crit, 8).levels[8]
    # criterion 7's inputs: the forced scan and the nested approximations
    sets = [forced, ChordSet(2, forced.chords | set(crit.chords))]
    sets += [s.fdl.lamination.as_chordset() for s in hyperbolic_approx(rabbit_tree.levels[1][0], 8).steps]
    lvl1 = cubic_tree.levels[1][0].lamination
    sets.append(pullback_lamination(lvl1, place_critical_chords(lvl1)[0], 2).levels[2])
    sets += [n.lamination.as_chordset() for n in basilica_tree.levels[6]]
    # small sets that fill the first, second and fourth lists
    sets += [
        ChordSet.create(2, _chords([((0, 1), (1, 4)), ((0, 1), (3, 4))])),
        ChordSet.create(2, _chords([((1, 3), (5, 6))])),
        ChordSet.create(2, _chords([((1, 7), (1, 3))])),
    ]
    filled = set()
    for chord_set in sets:
        rep = properness_report(chord_set)
        assert rep == _orbit_info_properness(chord_set) == three_loop_properness(chord_set)
        filled |= {i for i, found in enumerate(vars(rep).values()) if found}
    assert len(forced.chords) == 768 and filled == {0, 1, 2, 3}


def test_orbits_match_fraction_orbit_info():
    rng = random.Random(7)
    for _ in range(2000):
        d, L = rng.choice([2, 3, 4]), rng.randrange(1, 300)
        starts = [rng.randrange(L) for _ in range(rng.randrange(1, 7))]
        table = _orbits(lambda x: d * x % L, starts)
        for x in starts:  # later starts often end on an earlier walk
            expected = _fraction_orbit_info(F(x, L), d)
            assert table[x] == expected == orbit_info(F(x, L), d), (d, L, x)


def test_properness_clean_fdl():
    rep = properness_report(LEVEL1.as_chordset())
    assert rep.proper_so_far
    assert not rep.unclean_points
    assert not rep.period_mismatch_leaves


def test_properness_wedge_at_fixed_point():
    wedge = ChordSet.create(2, [Chord(F(0), F(1, 4)), Chord(F(0), F(3, 4))])
    rep = properness_report(wedge)
    assert len(rep.critical_wedges_with_periodic_vertex) == 1
    v, c1, c2 = rep.critical_wedges_with_periodic_vertex[0]
    assert v == 0


def test_properness_critical_leaf_with_periodic_endpoint():
    s = ChordSet.create(2, [Chord(F(1, 3), F(5, 6))])
    rep = properness_report(s)
    assert rep.critical_leaves_with_periodic_endpoint == [Chord(F(1, 3), F(5, 6))]
    assert not rep.proper_so_far


def test_forced_leaf_construction_unclean():
    p = F(15, 112)
    crit = CriticalChordSet.create(2, [Chord(p, p + F(1, 2))])
    start = ClassLamination.create(2, [RABBIT])
    seq = pullback_lamination(start, crit, 6)
    with_chord = ChordSet(2, seq.levels[6].chords | set(crit.chords))
    rep = properness_report(with_chord)
    assert (p, 3) in rep.unclean_points


def test_hyperbolic_approx_depth0(rabbit_tree):
    lvl1 = rabbit_tree.levels[1][0]
    report = hyperbolic_approx(lvl1, 0)
    assert len(report.steps) == 1


def test_hyperbolic_approx_rejects_negative_depth(rabbit_tree):
    with pytest.raises(PullbackError, match="nesting depth must be >= 0, got -2"):
        hyperbolic_approx(rabbit_tree.levels[1][0], -2)


def test_hyperbolic_approx_rabbit(rabbit_tree):
    lvl1 = rabbit_tree.levels[1][0]
    report = hyperbolic_approx(lvl1, 3)
    assert [s.fdl.depth_n for s in report.steps] == [1, 2, 3, 4]
    assert report.arc_counts == [[2], [2], [2], [4]]
    # the tracked gap stays degree 2 at every step
    from lamkit.core import gap_degree

    for step in report.steps:
        (gap,) = step.tracked
        assert gap_degree(gap, 2).degree == 2


def test_hyperbolic_approx_degree3():
    from lamkit.core import gap_degree
    from lamkit.fdl import root_fdl

    root = root_fdl(3, [PolygonClass((F(1, 8), F(3, 8)))])
    start = next(
        k
        for k in enumerate_children(root)
        if k.key() == "3|1/24,19/24|1/8,3/8|11/24,17/24"
    )
    report = hyperbolic_approx(start, 2)
    for step in report.steps:
        (gap,) = step.tracked
        assert gap_degree(gap, 3).degree == 3


def _arcs_inside(inner, outer):
    """Reference nesting: every arc of inner lies in some arc of outer."""
    if outer.is_full_circle:
        return True
    if inner.is_full_circle:
        return False
    return all(any(_arc_within(arc, s, e) for s, e in outer.arcs) for arc in inner.arcs)


def test_gap_inside_matches_arc_containment(rabbit_tree, basilica_tree, cubic_tree):
    outcomes = set()
    for tree, top in ((rabbit_tree, 5), (basilica_tree, 5), (cubic_tree, 2)):
        gaps = {
            f.key(): gap_decomposition(f.lamination).round_gaps
            for lv in tree.levels[: top + 1]
            for f in lv
        }
        for child, parent in tree.parent.items():
            if child in gaps:
                for inner, outer in product(gaps[child], gaps[parent]):
                    expected = _arcs_inside(inner, outer)
                    assert _gap_inside(inner, outer) == expected, (child, inner, outer)
                    outcomes.add(expected)
    assert outcomes == {True, False}


def test_hyperbolic_approx_needs_critical_gap(rabbit_root):
    with pytest.raises(PullbackError) as err:
        hyperbolic_approx(rabbit_root, 1)  # partly critical gap at the root
    assert str(err.value) == "RoundGap([4/7,1/7]) has no degree"


def _reference_critical_round_gaps(lam):
    """Reference list of (degree, gap) for the round gaps of degree >= 2,
    from the gap decomposition and each gap's own degree."""
    out = []
    for gap in gap_decomposition(lam).round_gaps:
        status = gap_degree(gap, lam.degree)
        if status.kind != DEGREE_KNOWN:
            raise PullbackError(f"{gap} has no degree")
        if status.degree >= 2:
            out.append((status.degree, gap))
    return out


def test_critical_round_gaps_match_reference(rabbit_root, rabbit_tree, basilica_tree, cubic_tree):
    def outcome(find, lam):
        try:
            return find(lam)
        except PullbackError as exc:
            return str(exc)

    lams = [rabbit_root.lamination]
    for tree, top in ((rabbit_tree, 5), (basilica_tree, 6), (cubic_tree, 2)):
        lams += [f.lamination for lv in tree.levels[: top + 1] for f in lv]
    seen = set()
    for lam in lams:
        got = outcome(_critical_round_gaps, lam)
        assert got == outcome(_reference_critical_round_gaps, lam), sorted(lam.classes)
        seen.add("error" if isinstance(got, str) else len(got))
    assert {"error", 0, 1} <= seen


def _nesting_outcome(approx, start, depth):
    try:
        report = approx(start, depth)
    except PullbackError as exc:
        return str(exc)
    steps = [(s.fdl.key(), s.tracked) for s in report.steps]
    return steps, report.strict_shrinks, report.arc_counts


def test_nesting_matches_the_smallest_angle_oracle(rabbit_tree, basilica_tree, eighths_tree):
    cubic_start = next(k for k in eighths_tree.levels[1] if k.key() == "3|1/24,19/24|1/8,3/8|11/24,17/24")
    runs = [(rabbit_tree.levels[1][0], k) for k in range(9)]
    runs += [(cubic_start, k) for k in range(3)]
    runs += [(node, 2) for level in basilica_tree.levels[:7] for node in level]
    outcomes = set()
    for start, depth in runs:
        got = _nesting_outcome(hyperbolic_approx, start, depth)
        assert got == _nesting_outcome(reference_hyperbolic_approx, start, depth), (start.key(), depth)
        outcomes.add(got if isinstance(got, str) else "ok")
    assert outcomes == {"ok", "RoundGap([2/3,1/3]) has no degree", "need at least one critical round gap"}


def test_each_tracked_gap_has_at_most_one_successor(rabbit_root, basilica_tree, cubic_tree, eighths_tree):
    # the census over every parent-child pair below the top level of each tree
    trees = [(build_pullback_tree(rabbit_root, 7), 7), (basilica_tree, 7), (cubic_tree, 3), (eighths_tree, 3)]
    census, nodes = Counter(), 0
    for tree, top in trees:
        children = {}
        for parent, child in tree.edges():
            children.setdefault(parent.key(), []).append(child)
        for node in tree.all_nodes():
            nodes += 1
            # the audit lists its round gaps by their smallest angle
            entries = criticality_audit(node.lamination).entries
            angles = [e.gap.smallest_angle() for e in entries if e.kind == GAP_ROUND]
            assert angles == sorted(angles), node.key()
            if node.depth_n >= top:
                continue
            try:
                tracked = _critical_round_gaps(node.lamination)
            except PullbackError:
                continue  # a round gap without a degree
            for child in children.get(node.key(), []):
                child_gaps = _critical_round_gaps(child.lamination)
                for deg, gap in tracked:
                    found = [g for cdeg, g in child_gaps if cdeg == deg and _gap_inside(g, gap)]
                    assert next(iter(found), None) == smallest_angle_successor(child_gaps, deg, gap)
                    census[len(found)] += 1
    assert census == {1: 200, 0: 119} and nodes == 362


def test_hyperbolic_approx_needs_a_critical_round_gap(rabbit_root, basilica_tree):
    # nodes whose criticality sits in a polygon: no round gap to track
    rabbit6 = build_pullback_tree(rabbit_root, 6)
    starts = [n for t, top in ((rabbit6, 6), (basilica_tree, 6)) for lv in t.levels[: top + 1] for n in lv]
    refused = 0
    for start in starts:
        try:
            if _critical_round_gaps(start.lamination):
                continue
        except PullbackError:
            continue  # a round gap without a degree
        with pytest.raises(PullbackError) as err:
            hyperbolic_approx(start, 1)
        assert str(err.value) == "need at least one critical round gap"
        refused += 1
    assert refused == 25
