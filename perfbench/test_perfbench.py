"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import types

import pytest

import tracer as tr
import workloads as wl
import worker

DETERMINISTIC_UNITS = {"count", "1/step", "1/iteration"}


@pytest.fixture(scope="module")
def program():
    return wl.load_program()


@pytest.fixture(scope="module")
def task(program):
    return wl.prepare_task(program)


def _counts(out):
    return {
        name: m["value"]
        for name, m in out["metrics"].items()
        if m["unit"] in DETERMINISTIC_UNITS or name == "product.expand.reuse_ratio"
    }


@pytest.mark.parametrize("name,limit", [("rescue20", 2), ("compile_wide", 4)])
def test_traced_counts_repeat_exactly(name, limit):
    first = worker.traced(wl.WORKLOADS[name], seed=3, limit=limit)
    second = worker.traced(wl.WORKLOADS[name], seed=3, limit=limit)
    assert first["correct"] and second["correct"]
    assert _counts(first) == _counts(second)
    assert first["absent"] == []


def test_episode_layers_cover_the_episode_time():
    out = worker.traced(wl.WORKLOADS["rescue20"], seed=0, limit=2)
    m = out["metrics"]
    assert m["planner.run_episode.calls"]["value"] == 2
    assert m["baseline.run_baseline.calls"]["value"] == 2
    assert m["product.expand.calls"]["value"] > 0
    assert 0.9 <= m["bench.layer_coverage"]["value"] <= 1.0


def test_rounds_take_one_item_per_stratum_and_repeat_by_seed():
    reference = wl.load_reference("rescue20")
    strata = {(it["group"], it["bin"]) for it in reference["items"]}
    a, b, c = wl.rounds(reference, 5), wl.rounds(reference, 5), wl.rounds(reference, 6)
    first = [next(a) for _ in range(3)]
    assert first == [next(b) for _ in range(3)]
    assert first != [next(c) for _ in range(3)]
    for batch in first:
        assert sorted((it["group"], it["bin"]) for it in batch) == sorted(strata)


def _episode(program, task, method="ours"):
    item = next(wl.rounds(wl.load_reference("rescue20"), 0))[0]
    grid = program.env.random_map(*item["map"])
    out = wl.run_episode(program, task, grid, method, wl.StepClock(program.planner))
    return grid, out, item["digest"][method]


def test_gate_accepts_reference_episode(program, task):
    grid, out, digest = _episode(program, task)
    assert wl.check_episode(program, task, grid, out, digest) == []
    assert len(out.step_ms) == out.steps


def test_gate_rejects_corrupted_trajectory(program, task):
    grid, out, digest = _episode(program, task)
    bad = dataclasses.replace(out, trajectory=list(out.trajectory))
    c, r = bad.trajectory[-1]
    bad.trajectory[-1] = (c, r + 1) if r + 1 < grid.height else (c, r - 1)
    problems = wl.check_episode(program, task, grid, bad, digest)
    assert any("does not reach" in p for p in problems)
    assert any("digest" in p for p in problems)


def test_gate_rejects_mutated_task_automaton(program, task):
    grid, out, digest = _episode(program, task)
    assert out.verdict == "satisfied"
    dfa = task.dfa
    mutated = dataclasses.replace(dfa, accepting=frozenset())
    problems = wl.check_episode(program, wl.Task(task.phi, mutated, task.commits), grid, out, digest)
    assert problems == ["satisfied word does not end accepting"]


def test_gate_rejects_mutated_formula_automaton(program):
    out = wl.run_formula(program, "F a0 | F (a1 & F a2)", ("a0", "a1", "a2", "a3"))
    assert wl.check_formula(program, out, wl.formula_digest(out), random.Random(0)) == []
    dfa = out.dfa
    accepting = next(iter(dfa.accepting))
    transitions = {
        key: (dfa.trash if t == accepting and key[0] != accepting else t) for key, t in dfa.transitions.items()
    }
    out.dfa = dataclasses.replace(dfa, transitions=transitions)
    problems = wl.check_formula(program, out, wl.formula_digest(out), random.Random(0))
    assert any("disagree" in p for p in problems)


def test_missing_hook_is_reported_absent():
    fake = types.ModuleType("fake")
    fake.present = lambda: 1
    tracer = tr.Tracer()
    hooks = [("m", "present", "x.present", None, None), ("m", "gone", "x.gone", None, None)]
    tr.install(tracer, types.SimpleNamespace(m=fake), hooks)
    assert tracer.absent == ["fake.gone"]
    assert fake.present() == 1 and tracer.calls()["x.present"] == 1
    tracer.unhook()
    assert not hasattr(fake.present, "__wrapped__")


def test_self_time_subtracts_child_spans():
    fake = types.ModuleType("fake")
    clock = iter(range(100))
    tr_clock = tr.clock
    tr.clock = lambda: next(clock)
    try:
        fake.inner = lambda: None
        fake.outer = lambda: fake.inner()
        tracer = tr.Tracer()
        tracer.hook(fake, "outer", "outer")
        tracer.hook(fake, "inner", "inner")
        fake.outer()
    finally:
        tr.clock = tr_clock
    # outer spans ticks 0..3, inner 1..2
    assert tracer.span_self_ms() == [2000.0, 1000.0]


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(wl.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rescue20", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_file_names_every_reported_metric():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    out = worker.traced(wl.WORKLOADS["compile_wide"], seed=1, limit=2)
    assert sorted(out["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(
        ["setup_s", "peak_rss_mb", "items_per_s", "item_ms_p50", "op_ms_p50", "op_ms_p99"]
    )
