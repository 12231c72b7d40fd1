"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 4 checks the rabbit tree's level counts twice: pinned at
[1, 1, 1, 1, 4, 7], and re-derived level by level from a region count that
never calls the child enumerator.  Level n holds the laminations of depth
parameter n.  The first steps are forced: the free preimages of each deepest
n-gon fall n to a region, which leaves one placement.  From level 1 to 2, for
instance, the leaf (1/14, 9/14) separates 1/28 from 9/28, so level 2 holds one
node, not four.  The first four-way branch is at level 4, the first level
whose parents put all 2n preimages of a class in one critical gap, where each
of the F(2, 3) = 4 sibling portraits fits.
"""

import json
import os
import random
import time
from fractions import Fraction as F

import pytest

from lamkit.circle import in_open_arc, preimages, sigma
from lamkit.core import (
    Chord,
    ChordSet,
    ClassLamination,
    PolygonClass,
    chords_cross,
    criticality_audit,
)
from lamkit.io import oeis_compare, parse_bfile
from lamkit.paramgraph import (
    closure_is_refinement,
    criticality,
    generational_graph,
    refines,
    transitive_closure,
)
from lamkit.portraits import (
    count_all,
    count_injective,
    enumerate_all_portraits,
    enumerate_injective_portraits,
    internal_count,
    portrait_to_tree,
    reduce_portrait,
    tree_to_portrait,
)
from lamkit.pullback import (
    CriticalChordSet,
    hyperbolic_approx,
    lamination_distance,
    properness_report,
    pullback_lamination,
    pullback_step,
)

from helpers import all_edges, all_vertices, deepest_classes, image

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def record(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_01_counting_equivalence():
    t0 = time.time()
    failures = []
    for i in range(1, 5):
        for n in range(2, 5):
            inj = enumerate_injective_portraits(i, n)
            alln = enumerate_all_portraits(i, n)
            if len(inj) != count_injective(i, n):
                failures.append(f"f({i},{n})")
            if len(alln) != count_all(i, n):
                failures.append(f"F({i},{n})")
            if count_all(i, n) != count_injective(i, n + 1):
                failures.append(f"F({i},{n}) != f({i},{n + 1})")
    catalan = [count_injective(i, 2) for i in (1, 2, 3, 4)]
    if catalan != [1, 2, 5, 14]:
        failures.append(f"catalan row {catalan}")
    elapsed = time.time() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s")
    record(1, "counting equivalence", not failures, ", ".join(failures) or f"{elapsed:.1f}s")


def test_criterion_02_bijection_round_trips():
    failures = []
    for i in (1, 2, 3):
        for n in (2, 3):
            shapes = enumerate_injective_portraits(i, n)
            trees = set()
            for s in shapes:
                t = portrait_to_tree(s)
                if internal_count(t) != i or tree_to_portrait(t, n) != s:
                    failures.append(f"tree round trip (i={i},n={n})")
                trees.add(t)
            if len(trees) != len(shapes):
                failures.append(f"tree map not injective (i={i},n={n})")
            dom = enumerate_injective_portraits(i, n + 1)
            images = [reduce_portrait(s) for s in dom]
            if len(set(images)) != len(dom) or set(images) != set(
                enumerate_all_portraits(i, n)
            ):
                failures.append(f"reduction not bijective (i={i},n={n})")
    record(2, "bijection round trips", not failures, ", ".join(failures))


def test_criterion_03_criticality_audit(rabbit_tree, cubic_tree):
    failures = []
    for tree, name, depth in ((rabbit_tree, "rabbit", 5), (cubic_tree, "cubic", 3)):
        # the identity presumes every polygon sits in a whole-disk portrait,
        # which first holds one pullback below the self-image root (the
        # rabbit root even keeps a partly critical gap), so audit from level 1
        for lv in range(1, depth + 1):
            for node in tree.levels[lv]:
                audit = criticality_audit(node.lamination)
                if not audit.passed:
                    failures.append(f"{name} level {lv}: {node.key()}")
    root_audit = criticality_audit(rabbit_tree.levels[0][0].lamination)
    if root_audit.applicable:
        failures.append("rabbit root lost its partly critical gap")
    record(3, "criticality audit over both trees", not failures, ", ".join(failures[:3]))


def _region_count(node):
    """Number of children of ``node``, counted without the child enumerator.

    Two circle points lie in one region of the parent iff none of its leaves
    separates them.  The free preimages of a deepest n-gon split either into
    n-point groups, which leaves the single placement of its siblings, or all
    d*n of them share one critical gap, where each of the count_all(d, n)
    sibling portraits fits.  Any other grouping, or two classes sharing one
    gap, returns None: the count does not apply there.
    """
    lam = node.lamination
    d = lam.degree
    edges = all_edges(lam)
    taken = all_vertices(lam)
    shared = set()
    total = 1
    for target in deepest_classes(node):
        n = len(target)
        free = {p for v in target.vertices for p in preimages(v, d)} - taken
        groups = {}
        for p in free:
            side = tuple(in_open_arc(p, e.a, e.b) for e in edges)
            groups.setdefault(side, []).append(p)
        sizes = [len(g) for g in groups.values()]
        if all(size == n for size in sizes):
            continue
        if sizes != [d * n]:
            return None
        (gap,) = groups
        if gap in shared:
            return None
        shared.add(gap)
        total *= count_all(d, n)
    return total


def test_criterion_04_tree_structure(rabbit_tree):
    t0 = time.time()
    failures = []
    counts = rabbit_tree.level_counts()
    if counts != [1, 1, 1, 1, 4, 7]:
        failures.append(f"level counts {counts}, wanted [1, 1, 1, 1, 4, 7]")
    derived = [1]
    for nodes in rabbit_tree.levels[:-1]:
        per_node = [_region_count(node) for node in nodes]
        derived.append(None if None in per_node else sum(per_node))
    if counts != derived:
        failures.append(f"level counts {counts} differ from the region count {derived}")
    branch = next((lv for lv, c in enumerate(counts) if c > 1), None)
    if branch != 4 or counts[branch] != count_all(2, 3):
        failures.append(
            f"first branch at level {branch} (counts {counts}); wanted "
            f"count_all(2, 3) = {count_all(2, 3)} nodes at level 4, the first "
            "level whose parents put a class's six preimages in one critical gap"
        )
    for parent, child in rabbit_tree.edges():
        d = child.degree
        images = {
            image(c, d) for c in child.lamination.classes if image(c, d) is not None
        }
        if images != set(parent.lamination.classes):
            failures.append(f"image of {child.key()} is not its parent")
        if not parent.lamination.classes < child.lamination.classes:
            failures.append(f"{child.key()} does not strictly contain its parent")
    for lv, nodes in enumerate(rabbit_tree.levels):
        for node in nodes:
            if node.depth_n != lv:
                failures.append(f"level {lv} node has parameter {node.depth_n}")
    elapsed = time.time() - t0
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.1f}s")
    record(4, "pullback tree structure", not failures, "; ".join(failures[:2]))


def test_criterion_05_pullback_oracle():
    crit = CriticalChordSet.create(2, [Chord(F(1, 7), F(9, 14))])
    rabbit = ClassLamination.create(2, [PolygonClass((F(1, 7), F(2, 7), F(4, 7)))])
    out = pullback_step(rabbit.as_chordset(), crit)
    expected = {
        Chord(F(1, 14), F(1, 7)),
        Chord(F(1, 7), F(2, 7)),
        Chord(F(2, 7), F(4, 7)),
        Chord(F(4, 7), F(9, 14)),
        Chord(F(9, 14), F(11, 14)),
        Chord(F(11, 14), F(1, 14)),
        Chord(F(4, 7), F(1, 7)),
    }
    ok = set(out.chords) == expected
    record(5, "depth-1 pullback equals the 7-chord oracle", ok, f"got {len(out.chords)} chords")


def _random_chordset(rng, den=36, max_chords=6):
    chords = []
    for _ in range(rng.randrange(0, max_chords + 1)):
        a, b = F(rng.randrange(den), den), F(rng.randrange(den), den)
        if a == b:
            continue
        c = Chord(a, b)
        if any(chords_cross(c, o) for o in chords):
            continue
        chords.append(c)
    return ChordSet.create(2, chords)


def test_criterion_06_metric_properties(rabbit_tree):
    failures = []
    rng = random.Random(1234)
    for trial in range(500):
        a, b, c = (_random_chordset(rng) for _ in range(3))
        dab = lamination_distance(a, b)
        dba = lamination_distance(b, a)
        if dab != dba:
            failures.append(f"symmetry at trial {trial}")
        if (set(a.chords) == set(b.chords)) != (dab == 0):
            # identity holds on canonical (set) forms
            failures.append(f"identity at trial {trial}")
        if lamination_distance(a, c) > dab + lamination_distance(b, c):
            failures.append(f"triangle at trial {trial}")
        if failures:
            break
    for parent, child in rabbit_tree.edges():
        pc, cc = parent.lamination.as_chordset(), child.lamination.as_chordset()
        new_leaves = cc.chords - pc.chords
        bound = max(c.length() for c in new_leaves)
        if lamination_distance(pc, cc) > bound:
            failures.append(f"edge bound at {child.key()}")
    record(6, "metric axioms and edge bound", not failures, ", ".join(failures[:2]))


def test_criterion_07_properness_scans(rabbit_tree):
    failures = []
    lvl1 = rabbit_tree.levels[1][0]
    nested = hyperbolic_approx(lvl1, 8)
    for step in nested.steps:
        rep = properness_report(step.fdl.lamination.as_chordset())
        if rep.critical_leaves_with_periodic_endpoint:
            failures.append(f"critical leaf at n={step.fdl.depth_n}")
        if rep.critical_wedges_with_periodic_vertex:
            failures.append(f"critical wedge at n={step.fdl.depth_n}")
    forced = F(15, 112)
    crit = CriticalChordSet.create(2, [Chord(forced, forced + F(1, 2))])
    rabbit = ClassLamination.create(2, [PolygonClass((F(1, 7), F(2, 7), F(4, 7)))])
    seq = pullback_lamination(rabbit, crit, 8)
    scan = ChordSet(2, seq.levels[8].chords | set(crit.chords))
    rep = properness_report(scan)
    if (forced, 3) not in rep.unclean_points:
        found = [k for v, k in rep.unclean_points if v == forced]
        failures.append(f"forced point has {found or 0} leaves, wanted 3")
    record(7, "properness of canonical approximations; forced unclean point", not failures, ", ".join(failures[:3]))


def test_criterion_08_sibling_balance_fuzz():
    rng = random.Random(20080)
    failures = []
    checked = 0
    while checked < 1000:
        d = rng.choice([2, 3, 4])
        den = rng.randrange(5, 48)
        a, b, x, y = (F(rng.randrange(den), den) for _ in range(4))
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
        for lo, hi in ((x, y), (y, x)):
            na = sum(1 for s in sibs_a if in_open_arc(s, lo, hi))
            nb = sum(1 for s in sibs_b if in_open_arc(s, lo, hi))
            if na != nb:
                failures.append(f"d={d} leaf={leaf} chord={other} side=({lo},{hi})")
        checked += 1
        if failures:
            break
    record(8, "sibling counts balance across chords (1000 pairs)", not failures, ", ".join(failures[:1]))


def test_criterion_09_generational_graph(rabbit_tree):
    failures = []
    g2 = generational_graph(rabbit_tree, 2)
    for a, b in g2.edges:
        if not (g2.trapped[b] == g2.trapped[a] + 1 and refines(g2.nodes[a], g2.nodes[b])):
            failures.append("level-2 edge violates the step rule")
    for lv in (2, 5):
        g = generational_graph(rabbit_tree, lv)
        for a, b in g.edges:
            if not (g.trapped[b] == g.trapped[a] + 1 and refines(g.nodes[a], g.nodes[b])):
                failures.append(f"level-{lv} edge violates the step rule")
        if not closure_is_refinement(g):
            failures.append(f"closure mismatch at level {lv}")
    record(9, "generational graph edges and closure", not failures, ", ".join(failures[:2]))


def test_criterion_10_conjecture_harness(basilica_tree, tmp_path):
    counts = basilica_tree.level_counts()
    with open(os.path.join(DATA_DIR, "a152046.b.txt")) as fh:
        bfile = parse_bfile(fh.read())
    report = oeis_compare(counts, bfile)
    out = tmp_path / "basilica_comparison.json"
    out.write_text(json.dumps({"counts": counts, "report": report}, indent=2))
    print(f"[criterion 10] basilica counts: {counts}")
    print(f"[criterion 10] report written to {out}")
    # a conjecture check, not a hard assertion: the harness must run deep
    # enough and produce a verdict either way
    ok = len(counts) >= 9 and report["compared"] >= 9 and "verdict" in report
    record(10, f"conjecture harness ({report['verdict']})", ok, f"compared {report['compared']} levels")
