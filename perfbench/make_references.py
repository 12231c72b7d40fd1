"""Regenerate ``references.json``, the answers every benchmark run is checked against.

    python3 perfbench/make_references.py

Takes about three minutes, most of it the 210 level-6 distances.  The
references pin this commit's exact answers; the level counts have
independent anchors (the A152046 b-file for basilica, the brute-force
oracle of ``tests/test_fdl.py`` for rabbit).  Regenerate only when the
mathematics changes, never to make a failing check pass.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import import_lamkit  # noqa: E402
from workloads import WORKLOADS, chord_level_shas, sha256_lines, tree_level_shas  # noqa: E402


def main() -> int:
    lk = import_lamkit()
    refs = {}

    trees = WORKLOADS["trees"]
    state = trees.setup(lk, smoke=False)
    refs["trees"] = {}
    for label, tree in trees.run(lk, state, None, [], time.perf_counter).items():
        refs["trees"][label] = {"counts": tree.level_counts(), "level_sha": tree_level_shas(tree)}

    chords = WORKLOADS["chords"]
    state = chords.setup(lk, smoke=False)
    refs["chords"] = {}
    for label, seq in chords.run(lk, state, None, [], time.perf_counter).items():
        refs["chords"][label] = {
            "critical": [str(c) for c in seq.chords_used.chords],
            "counts": seq.counts(),
            "level_sha": chord_level_shas(seq),
        }

    queries = WORKLOADS["queries"]
    refs["queries"] = {}
    for smoke in (True, False):
        state = queries.setup(lk, smoke=smoke)
        lams = [lk.load_lamination(doc) for doc in state["docs"]]
        sets = [lam.as_chordset() for lam in lams]
        properness = []
        for cs in sets:
            rep = lk.properness_report(cs)
            properness.append(
                [
                    len(rep.critical_leaves_with_periodic_endpoint),
                    len(rep.critical_wedges_with_periodic_vertex),
                    len(rep.unclean_points),
                    len(rep.period_mismatch_leaves),
                ]
            )
        graph = lk.generational_graph(state["tree"], state["level"])
        distances = {
            f"{a}-{b}": str(lk.lamination_distance(sets[a], sets[b]))
            for a in range(len(sets))
            for b in range(a + 1, len(sets))
        }
        refs["queries"][str(state["level"])] = {
            "nodes": len(lams),
            "level_sha": sha256_lines(state["keys"]),
            "properness": properness,
            "gengraph_sha": sha256_lines(f"{a} {b}" for a, b in graph.edges),
            "distances": distances,
        }

    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
