"""Run one lamkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload trees --seed 1 --seconds 25 --trace 0

Imports lamkit from ``src/`` of this checkout, sets up ``SETUP_REPS``
times (import included) and reports the median, then repeats whole
timed passes until ``--seconds`` have passed and checks every pass
against ``references.json``.  ``--trace 1`` adds one pass under the
tracer and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when a check failed, and 2 when lamkit, its
data or the references could not be found (then no result is printed).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback

from speed import SpeedProbe
from tracer import LAYERS, Tracer
from workloads import LEFT_OUT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 5
OP_MARGIN_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "output_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}

PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "core.chords_cross.calls": "count",
    "core.check.calls": "count",
    "core.check.self_s": "s",
    "core.gaps.self_s": "s",
    "core.covering_degree.calls": "count",
    "portraits.shapes": "count",
    "fdl.enumerate_children.calls": "count",
    "fdl.enumerate_children.self_s": "s",
    "fdl.validate.calls": "count",
    "fdl.validate.self_s": "s",
    "fdl.canonical_form.calls": "count",
    "fdl.canonical_form.self_s": "s",
    "fdl.children": "count",
    "fdl.accept_ratio": "ratio",
    "fdl.shapes_per_child": "ratio",
    "paramgraph.generational_graph.self_s": "s",
    "paramgraph.refines.calls": "count",
    "pullback.pullback_step.calls": "count",
    "pullback.pullback_step.self_s": "s",
    "pullback.chords_added": "count",
    "pullback.lamination_distance.self_s": "s",
    "pullback.properness_report.self_s": "s",
    "io.load_lamination.self_s": "s",
    "io.save_lamination.self_s": "s",
    "trace.overhead_s": "s",
}


def import_lamkit():
    """Import lamkit afresh from this checkout's ``src/``, never from elsewhere."""
    for name in [n for n in sys.modules if n == "lamkit" or n.startswith("lamkit.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    lk = importlib.import_module("lamkit")
    if not os.path.abspath(lk.__file__).startswith(SRC + os.sep):
        raise ImportError(f"lamkit was imported from {lk.__file__}, not from {SRC}")
    return lk


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def middle_fifth_mean(values):
    """The median estimated as the mean of the 40th to 60th percentile.

    Operation latencies cluster, so a plain median can jump between two
    clusters from run to run; the band smooths that out.
    """
    ordered = sorted(values)
    lo = int(len(ordered) * 0.4)
    hi = max(lo + 1, math.ceil(len(ordered) * 0.6))
    return statistics.fmean(ordered[lo:hi])


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ratio(num, den):
    return num / den if den else 0.0


def run_passes(lk, workload, state, plan, refs, seconds, probe) -> dict:
    """Repeat timed passes until ``seconds`` have passed; check each one.

    ``pass_s``, ``op_s`` (every operation) and ``p90_s`` (per pass) are at
    the probe's reference speed: a pass is normalised by the samples taken
    during it, an operation by those within ``OP_MARGIN_S`` of it.
    ``wall_s`` keeps the raw pass times.
    """
    clock = probe.clock
    out = {key: [] for key in ("wall_s", "pass_s", "rate", "op_s", "p90_s", "failures")}
    out["attempted"] = 0
    start = clock()
    while True:
        laps = []
        try:
            t0 = clock()
            outputs = workload.run(lk, state, plan, laps, clock)
            t1 = clock()
            out["failures"] += workload.check(lk, state, plan, outputs, refs)
            if not laps:
                raise RuntimeError(f"the pass timed no {workload.name} operation")
        except Exception:
            traceback.print_exc()
            out["attempted"] += len(laps) + 1
            out["failures"].append("a pass raised an exception")
            return out
        ops = [(b - a) * probe.scale(a, b, OP_MARGIN_S) for a, b in laps]
        out["wall_s"].append(t1 - t0)
        out["pass_s"].append((t1 - t0) * probe.scale(t0, t1))
        out["op_s"] += ops
        out["p90_s"].append(p90(ops))
        out["attempted"] += len(laps)
        out["rate"].append(workload.outputs_per_pass(outputs) / out["pass_s"][-1])
        if clock() - start >= seconds:
            return out


def traced_pass(lk, workload, state, plan, refs, probe, failures) -> tuple:
    """One pass under the tracer; returns the tracer, the pass time at the
    reference speed, and the pass's speed scale."""
    tracer = Tracer(lk, probe.clock)
    with tracer:
        t0 = probe.clock()
        outputs = workload.run(lk, state, plan, [], probe.clock)
        t1 = probe.clock()
    scale = probe.scale(t0, t1)
    failures += workload.check(lk, state, plan, outputs, refs)
    calls = tracer.calls()
    for key in workload.expected_nonzero:
        if not calls[key]:
            failures.append(f"traced {key} read zero calls: a binding was missed")
    for key, want in workload.expected_calls(state, refs).items():
        if calls[key] != want:
            failures.append(f"traced {key} made {calls[key]} calls, expected {want}")
    return tracer, (t1 - t0) * scale, scale


def layer_metrics(tracer, scale, overhead_s) -> dict:
    """Per-layer metrics; self times are taken to the reference speed."""
    stats = tracer.stats

    def calls(*keys):
        return sum(stats[k][0] for k in keys)

    def self_s(*keys):
        return scale * sum(stats[k][2] for k in keys)

    def tally(key):
        return stats[key][3]

    m = {}
    for layer in LAYERS:
        keys = [k for k in stats if k.startswith(layer + ".")]
        m[f"{layer}.calls"] = calls(*keys)
        m[f"{layer}.self_s"] = self_s(*keys)
    checks = ("core.ClassLamination.check", "core.ChordSet.check")
    gaps = ("core.gap_decomposition", "core.gap_degree", "core.criticality_audit")
    children = tally("fdl.enumerate_children")
    m.update(
        {
            "core.chords_cross.calls": calls("core.chords_cross"),
            "core.check.calls": calls(*checks),
            "core.check.self_s": self_s(*checks),
            "core.gaps.self_s": self_s(*gaps),
            "core.covering_degree.calls": calls("core.covering_degree"),
            "portraits.shapes": tally("portraits.enumerate_all_portraits"),
            "fdl.enumerate_children.calls": calls("fdl.enumerate_children"),
            "fdl.enumerate_children.self_s": self_s("fdl.enumerate_children"),
            "fdl.validate.calls": calls("fdl.validate_fdl"),
            "fdl.validate.self_s": self_s("fdl.validate_fdl"),
            "fdl.canonical_form.calls": calls("fdl.canonical_form"),
            "fdl.canonical_form.self_s": self_s("fdl.canonical_form"),
            "fdl.children": children,
            "fdl.accept_ratio": ratio(children, calls("fdl.validate_fdl")),
            "fdl.shapes_per_child": ratio(tally("portraits.enumerate_all_portraits"), children),
            "paramgraph.generational_graph.self_s": self_s("paramgraph.generational_graph"),
            "paramgraph.refines.calls": calls("paramgraph.refines"),
            "pullback.pullback_step.calls": calls("pullback.pullback_step"),
            "pullback.pullback_step.self_s": self_s("pullback.pullback_step"),
            "pullback.chords_added": tally("pullback.pullback_step"),
            "pullback.lamination_distance.self_s": self_s("pullback.lamination_distance"),
            "pullback.properness_report.self_s": self_s("pullback.properness_report"),
            "io.load_lamination.self_s": self_s("io.load_lamination"),
            "io.save_lamination.self_s": self_s("io.save_lamination"),
            "trace.overhead_s": overhead_s,
        }
    )
    return m


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(args, workload, res, setup_wall_s) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "op_samples": len(res["op_s"]),
        "pass_wall_s": res["wall_s"],
        "pass_s": res["pass_s"],
        "setup_wall_s": setup_wall_s,
        "left_out": LEFT_OUT,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny depths, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]

    with SpeedProbe() as probe:
        setup_wall_s = []
        setup_start = probe.clock()
        try:
            refs = load_references()[workload.name]
            for _ in range(SETUP_REPS):
                t0 = probe.clock()
                lk = import_lamkit()
                state = workload.setup(lk, args.smoke)
                setup_wall_s.append(probe.clock() - t0)
        except (ImportError, OSError) as exc:
            print(f"perfbench: cannot set up {workload.name}: {exc}", file=sys.stderr)
            return 2
        setup_s = statistics.median(setup_wall_s) * probe.scale(setup_start, probe.clock())

        plan = workload.plan(state, random.Random(args.seed))
        res = run_passes(lk, workload, state, plan, refs, args.seconds, probe)
        failures = res["failures"]
        metrics, units = {}, {}
        if args.trace and res["pass_s"]:
            try:
                tracer, traced_s, scale = traced_pass(lk, workload, state, plan, refs, probe, failures)
            except Exception:
                traceback.print_exc()
                failures.append("the traced pass raised an exception")
            else:
                metrics = layer_metrics(tracer, scale, traced_s - statistics.median(res["pass_s"]))
                units = PER_LAYER
                os.makedirs(TRACE_DIR, exist_ok=True)
                tracer.dump(
                    os.path.join(TRACE_DIR, f"trace-{workload.name}-seed{args.seed}.json"),
                    provenance(args, workload, res, setup_wall_s),
                )
        elif res["pass_s"]:
            metrics = {
                "setup_s": setup_s,
                "run_s": statistics.median(res["pass_s"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "output_per_s": statistics.median(res["rate"]),
                "op_p50_ms": middle_fifth_mean(res["op_s"]) * 1e3,
                "op_p90_ms": statistics.median(res["p90_s"]) * 1e3,
            }
            units = END_TO_END

    for msg in failures:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args, workload, res, setup_wall_s)}))
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6f} {units[name]}")
    attempted = max(res["attempted"], 1)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
