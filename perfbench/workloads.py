"""The three workloads: ``trees``, ``chords`` and ``queries``.

Each workload has the same four steps, all driven by ``run.py``:

``setup(lk, smoke)``
    Validate the roots and build the prerequisite inputs (timed as set-up).
``plan(state, rng)``
    Draw the seeded inputs of one run.
``run(lk, state, plan, laps, clock)``
    One timed pass through lamkit's public API.  Appends ``(start, end)``
    of every coarse operation, read from ``clock``, to ``laps`` and returns
    the raw outputs.
``check(lk, state, plan, outputs, refs)``
    Compare the outputs with the pinned references; returns one message
    per failed check.

``lk`` is the imported ``lamkit`` package.  ``smoke`` swaps in tiny
depths for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
import os

from tracer import stopwatch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BFILE = os.path.join(ROOT, "data", "a152046.b.txt")

# label -> (degree, classes as angle literals)
ROOTS = {
    "basilica": (2, (("1/3", "2/3"),)),
    "rabbit": (2, (("1/7", "2/7", "4/7"),)),
    "cubic": (3, (("_001", "_010", "_100"), ("_112", "_121", "_211"))),
}


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def make_root(lk, label: str):
    d, classes = ROOTS[label]
    polys = [lk.PolygonClass(tuple(lk.parse_angle(t, d) for t in cls)) for cls in classes]
    return lk.fdl.root_fdl(d, polys)


def chord_level_shas(seq) -> list[str]:
    return [sha256_lines(str(c) for c in level.sorted_chords()) for level in seq.levels]


def tree_level_shas(tree) -> list[str]:
    return [sha256_lines(sorted(node.key() for node in level)) for level in tree.levels]


def compare(failures: list, what: str, got, want):
    if got != want:
        failures.append(f"{what}: got {got!r}, expected {want!r}")


class Trees:
    """Breadth-first pullback trees from three self-image roots."""

    name = "trees"
    why = (
        "build_pullback_tree for basilica to 8, rabbit to 7 and the cubic root to 3: "
        "the child enumeration (fdl, portraits, canonical keys) that never touches pullback"
    )
    depths = {"basilica": 8, "rabbit": 7, "cubic": 3}
    smoke_depths = {"basilica": 4, "rabbit": 4, "cubic": 1}
    expected_nonzero = ("fdl.enumerate_children", "fdl.validate_fdl", "portraits.enumerate_all_portraits")

    def setup(self, lk, smoke):
        depths = self.smoke_depths if smoke else self.depths
        with open(BFILE) as fh:
            bfile_text = fh.read()
        roots = {label: (make_root(lk, label), depth) for label, depth in depths.items()}
        return {"roots": roots, "bfile_text": bfile_text}

    def plan(self, state, rng):
        return None  # no random inputs

    def run(self, lk, state, plan, laps, clock):
        with stopwatch(lk, "fdl", "enumerate_children", laps, clock):
            return {
                label: lk.build_pullback_tree(root, depth)
                for label, (root, depth) in state["roots"].items()
            }

    def outputs_per_pass(self, outputs) -> int:
        return sum(sum(tree.level_counts()) for tree in outputs.values())

    def expected_calls(self, state, refs) -> dict:
        # every node above the deepest level is expanded exactly once
        return {
            "fdl.enumerate_children": sum(
                sum(refs[label]["counts"][:depth]) for label, (_, depth) in state["roots"].items()
            )
        }

    def check(self, lk, state, plan, outputs, refs):
        failures = []
        for label, tree in outputs.items():
            depth = state["roots"][label][1]
            ref = refs[label]
            compare(failures, f"{label} counts", tree.level_counts(), ref["counts"][: depth + 1])
            compare(failures, f"{label} level keys", tree_level_shas(tree), ref["level_sha"][: depth + 1])
        report = lk.oeis_compare(outputs["basilica"].level_counts(), lk.parse_bfile(state["bfile_text"]))
        compare(failures, "basilica vs A152046 first mismatch", report["first_mismatch"], None)
        compare(failures, "basilica vs A152046 compared", report["compared"], len(outputs["basilica"].levels))
        return failures


class Chords:
    """Iterated chord pullback: the forced rabbit chord and the cubic placement."""

    name = "chords"
    why = (
        "pullback_lamination of the rabbit along the forced chord (15/112,71/112) to 7 and "
        "cubic level 1 to 2: the quadratic ChordSet.check and circle predicates, no enumeration"
    )
    depths = {"forced": 7, "cubic": 2}
    smoke_depths = {"forced": 3, "cubic": 1}
    expected_nonzero = ("core.ChordSet.check", "core.chords_cross", "circle.in_open_arc")

    def setup(self, lk, smoke):
        depths = self.smoke_depths if smoke else self.depths
        rabbit = make_root(lk, "rabbit").lamination
        forced = lk.parse_angle("15/112", 2)
        forced_crit = lk.CriticalChordSet.create(2, [lk.Chord(forced, forced + lk.parse_angle("1/2", 2))])
        (cubic_level1,) = lk.enumerate_children(make_root(lk, "cubic"))
        cubic_crit = lk.place_critical_chords(cubic_level1.lamination)[0]
        return {
            "jobs": {
                "forced": (rabbit, forced_crit, depths["forced"]),
                "cubic": (cubic_level1.lamination, cubic_crit, depths["cubic"]),
            }
        }

    def plan(self, state, rng):
        return None  # no random inputs

    def run(self, lk, state, plan, laps, clock):
        with stopwatch(lk, "pullback", "pullback_step", laps, clock):
            return {
                label: lk.pullback_lamination(start, crit, depth)
                for label, (start, crit, depth) in state["jobs"].items()
            }

    def outputs_per_pass(self, outputs) -> int:
        return sum(len(seq.levels[-1]) - len(seq.levels[0]) for seq in outputs.values())

    def expected_calls(self, state, refs) -> dict:
        return {"pullback.pullback_step": sum(depth for _, _, depth in state["jobs"].values())}

    def check(self, lk, state, plan, outputs, refs):
        failures = []
        for label, seq in outputs.items():
            depth = state["jobs"][label][2]
            ref = refs[label]
            compare(failures, f"{label} critical chords", [str(c) for c in seq.chords_used.chords], ref["critical"])
            compare(failures, f"{label} counts", seq.counts(), ref["counts"][: depth + 1])
            compare(failures, f"{label} level chords", chord_level_shas(seq), ref["level_sha"][: depth + 1])
        return failures


class Queries:
    """Read-mostly queries over the serialised nodes of one basilica level."""

    name = "queries"
    why = (
        "load, validate, audit, properness and save per basilica level-6 node, the generational "
        "graph, and seeded lamination_distance pairs: core validation and metric, no enumeration"
    )
    level, pairs = 6, 3
    smoke_level, smoke_pairs = 3, 1
    expected_nonzero = ("io.load_lamination", "core.ClassLamination.check", "pullback.lamination_distance")

    def setup(self, lk, smoke):
        level = self.smoke_level if smoke else self.level
        tree = lk.build_pullback_tree(make_root(lk, "basilica"), level)
        nodes = tree.levels[level]
        docs = [lk.io.dumps(lk.save_lamination(node.lamination)) for node in nodes]
        return {
            "tree": tree,
            "level": level,
            "keys": [n.key() for n in nodes],
            "docs": docs,
            "pairs": self.smoke_pairs if smoke else self.pairs,
        }

    def plan(self, state, rng):
        n = len(state["docs"])
        every = [(a, b) for a in range(n) for b in range(a + 1, n)]
        return {"pairs": rng.sample(every, state["pairs"]), "rng": rng}

    def run(self, lk, state, plan, laps, clock):
        order = list(range(len(state["docs"])))
        plan["rng"].shuffle(order)
        per_node = {}
        for i in order:
            t0 = clock()
            lam = lk.load_lamination(state["docs"][i])
            t1 = clock()
            report = lk.validate_fdl(lam)
            t2 = clock()
            audit = lk.criticality_audit(lam)
            t3 = clock()
            proper = lk.properness_report(lam.as_chordset())
            t4 = clock()
            doc = lk.save_lamination(lam)
            t5 = clock()
            laps += [(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)]
            per_node[i] = (lam, report, audit, proper, doc)
        t0 = clock()
        graph = lk.generational_graph(state["tree"], state["level"])
        t1 = clock()
        closed = lk.closure_is_refinement(graph)
        t2 = clock()
        laps += [(t0, t1), (t1, t2)]
        distances = {}
        for a, b in plan["pairs"]:
            t0 = clock()
            distances[(a, b)] = lk.lamination_distance(
                per_node[a][0].as_chordset(), per_node[b][0].as_chordset()
            )
            laps.append((t0, clock()))
        return {"per_node": per_node, "graph": graph, "closed": closed, "distances": distances}

    def outputs_per_pass(self, outputs) -> int:
        return 5 * len(outputs["per_node"]) + 2 + len(outputs["distances"])

    def expected_calls(self, state, refs) -> dict:
        return {"io.load_lamination": len(state["docs"])}

    def check(self, lk, state, plan, outputs, refs):
        failures = []
        ref = refs[str(state["level"])]
        compare(failures, "level keys", sha256_lines(state["keys"]), ref["level_sha"])
        for i, (lam, report, audit, proper, doc) in sorted(outputs["per_node"].items()):
            compare(failures, f"node {i} loaded key", lk.canonical_form(lam), state["keys"][i])
            compare(failures, f"node {i} valid", (report.valid, report.depth_n), (True, state["level"]))
            compare(failures, f"node {i} audit", (audit.applicable, audit.passed), (True, True))
            sizes = [
                len(proper.critical_leaves_with_periodic_endpoint),
                len(proper.critical_wedges_with_periodic_vertex),
                len(proper.unclean_points),
                len(proper.period_mismatch_leaves),
            ]
            compare(failures, f"node {i} properness", sizes, ref["properness"][i])
            compare(failures, f"node {i} saved", doc, json.loads(state["docs"][i]))
        graph = outputs["graph"]
        compare(failures, "generational graph edges", sha256_lines(f"{a} {b}" for a, b in graph.edges), ref["gengraph_sha"])
        compare(failures, "closure is refinement", outputs["closed"], True)
        for (a, b), dist in sorted(outputs["distances"].items()):
            compare(failures, f"distance {a}-{b}", str(dist), ref["distances"][f"{a}-{b}"])
        return failures


WORKLOADS = {w.name: w for w in (Trees(), Chords(), Queries())}

LEFT_OUT = {
    "basilica depth 9 and 10": (
        "+81 s and +126 s per step: about 20 minutes per check at 22 repeats; "
        "it belongs with the counting mode"
    ),
    "forced-point pullback to depth 8": "about 16 s a pass, too long for 22 repeats",
    "hyperbolic_approx(rabbit level 1, 8)": "its layers (fdl enumeration, gaps) are covered by trees and queries",
    "Tier-1 suite": "a test, not a workload",
}
