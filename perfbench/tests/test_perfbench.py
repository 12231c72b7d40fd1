"""The benchmark's own tests, at smoke depths.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_smoke(capsys, workload, trace=0, seed=3):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_checks_and_reports_every_end_to_end_metric(capsys, workload):
    code, result = run_smoke(capsys, workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in bench_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_call_counts_repeat_exactly(capsys, workload):
    _, first = run_smoke(capsys, workload, trace=1)
    _, second = run_smoke(capsys, workload, trace=1)
    assert first["correct"] and second["correct"]
    want = {m["name"]: m["unit"] for m in bench_json()["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "ratio")}

    assert counts(first) == counts(second)


def test_tracer_patches_every_binding_and_restores_them():
    lk = run.import_lamkit()
    namespaces = tracer.lamkit_namespaces(lk)
    before = [(mod, dict(vars(mod))) for mod in namespaces]
    checks = (lk.core.ClassLamination.check, lk.core.ChordSet.check)
    original = lk.fdl.enumerate_children
    with pytest.raises(RuntimeError):
        with tracer.Tracer(lk):
            # one wrapper behind every name that binds the function
            assert lk.fdl.enumerate_children is not original
            assert lk.pullback.enumerate_children is lk.fdl.enumerate_children
            assert lk.enumerate_children is lk.fdl.enumerate_children
            assert lk.core.in_open_arc is lk.pullback.in_open_arc is lk.circle.in_open_arc
            assert lk.core.ChordSet.check is not checks[1]
            raise RuntimeError("restore on the way out of an error too")
    for mod, names in before:
        assert all(getattr(mod, k) is v for k, v in names.items()), mod.__name__
    assert (lk.core.ClassLamination.check, lk.core.ChordSet.check) == checks


def test_a_missed_binding_fails_the_traced_run(capsys, monkeypatch):
    every = tracer.lamkit_namespaces
    monkeypatch.setattr(
        tracer, "lamkit_namespaces", lambda pkg: [m for m in every(pkg) if m.__name__ != "lamkit.fdl"]
    )
    code, result = run_smoke(capsys, "trees", trace=1)
    assert code == 1 and not result["correct"] and result["failed"] >= 1


def test_a_wrong_reference_fails_the_run(capsys, monkeypatch):
    refs = run.load_references()
    refs["trees"]["basilica"]["counts"][3] = 4
    monkeypatch.setattr(run, "load_references", lambda: refs)
    code, result = run_smoke(capsys, "trees")
    assert code == 1 and not result["correct"] and result["failed"] >= 1


def test_queries_seed_draws_the_pairs():
    lk = run.import_lamkit()
    queries = workloads.WORKLOADS["queries"]
    state = queries.setup(lk, smoke=False)
    draw = lambda seed: queries.plan(state, run.random.Random(seed))["pairs"]  # noqa: E731
    assert draw(1) == draw(1)
    assert any(draw(1) != draw(seed) for seed in range(2, 6))


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trees", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
