"""One benchmark run of one workload, in its own process.

Started by `run.py`; prints one JSON object as its last line of output.
With `--trace 0` it sets the program up several times (the median is
`setup_s`), then runs whole rounds back to back, one item at a time, until
`--seconds` of measured time have passed, checking each round's outputs
between rounds, outside the measured time. With
`--trace 1` it runs the first round once untraced and once with every layer
hooked, and reports the traced pass layer by layer.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
from dataclasses import dataclass

import tracer as tr
import workloads as wl
from workloads import clock

SETUP_REPEATS = 9
HARD_STOP_S = 130.0  # never start another round after this, whatever --seconds says
OUT_DIR = wl.ROOT / ".perfbench_out"


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Sample:
    """What is kept of an output once the gate has checked it."""

    round: int
    method: str
    ms: float
    op_ms: list  # robot decisions of an episode; the compile_dfa call of a formula
    verdict: str = ""
    steps: int = 0
    commit_ms: float = 0.0
    failed: bool = False


class Run:
    """Runs the items of one workload and checks their outputs."""

    def __init__(self, workload: wl.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.samples = []
        self.problems = []

    def setup(self, batch):
        program = wl.load_program()
        task = wl.prepare_task(program) if self.workload.kind == "episodes" else None
        return program, task, wl.round_inputs(program, self.workload, batch)

    def run_round(self, program, task, steps, batch, inputs, tracer=None, probes=None) -> list:
        """Run every item of a round; returns (item, input, output) triples.
        With `probes`, a speed probe follows every item and its duration is
        appended there."""
        outputs = []
        for item, inp in zip(batch, inputs):
            for method in self.workload.methods or ("",):
                if tracer:
                    tracer.item = len(self.samples) + len(outputs)
                if self.workload.kind == "episodes":
                    out = wl.run_episode(program, task, inp, method, steps)
                else:
                    out = wl.run_formula(program, *inp)
                outputs.append((item, inp, out))
                if probes is not None:
                    probes.append(wl.speed_probe())
        if tracer:
            tracer.item = None
        return outputs

    def check(self, program, task, r: int, outputs):
        """Run the correctness gate on a round's outputs and keep a sample of each."""
        for item, inp, out in outputs:
            if self.workload.kind == "episodes":
                found = wl.check_episode(program, task, inp, out, item["digest"][out.method])
                name = f"{item['id']} {out.method}"
                sample = Sample(r, out.method, out.ms, out.step_ms, out.verdict, out.steps)
            else:
                rng = random.Random(f"{self.seed}/{len(self.samples)}")
                found = wl.check_formula(program, out, item["digest"], rng)
                name = item["id"]
                sample = Sample(r, "", out.ms, [out.compile_ms], commit_ms=out.commit_ms)
            sample.failed = bool(found)
            self.samples.append(sample)
            self.problems += [f"{name}: {p}" for p in found]

    def result(self, metrics: dict, info: dict, absent: list) -> dict:
        return {
            "correct": not self.problems,
            "attempted": len(self.samples),
            "failed": sum(s.failed for s in self.samples),
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            "info": {name: {"value": v, "unit": u} for name, (v, u) in info.items()},
            "absent": absent,
            "problems": self.problems[:20],
        }


def timed(workload: wl.Workload, seed: int, seconds: float) -> dict:
    """Closed loop over whole rounds for `seconds` of measured time. Each
    round is checked right after it ran, outside the measured time, so that
    only one round's outputs are held in memory."""
    run = Run(workload, seed)
    plan = wl.rounds(wl.load_reference(workload.name), seed)
    batch = next(plan)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        program, task, inputs = run.setup(batch)
        setup_s.append(clock() - t0)
    steps = wl.StepClock(program.planner)

    measured = 0.0
    probes = []
    r = 0
    while True:
        t0 = clock()
        n_probes = len(probes)
        outputs = run.run_round(program, task, steps, batch, inputs, probes=probes)
        measured += clock() - t0 - sum(probes[n_probes:])
        run.check(program, task, r, outputs)
        del outputs
        r += 1
        if measured >= HARD_STOP_S or (r >= workload.min_rounds and measured + 0.5 * measured / r >= seconds):
            break
        t0 = clock()
        batch = next(plan)
        inputs = wl.round_inputs(program, workload, batch)
        measured += clock() - t0

    samples = run.samples
    item_ms = [s.ms for s in samples if not s.failed]
    op_ms = [ms for s in samples if not s.failed for ms in s.op_ms]
    if not item_ms or not op_ms:
        return run.result({}, {}, [])  # every output failed; nothing to time
    raw = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "items_per_s": (len(samples) / measured, "1/s"),
        "item_ms_p50": (statistics.median(item_ms), "ms"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_p99": (quantile(op_ms, 99), "ms"),
    }
    # The shared machine's speed drifts by up to 1.6x within minutes; the
    # probes run between items and scale every timing to the nominal speed.
    slowness = statistics.median(probes) / wl.NOMINAL_PROBE_S
    metrics = dict(raw)
    for name in ("setup_s", "item_ms_p50", "op_ms_p50", "op_ms_p99"):
        metrics[name] = (raw[name][0] / slowness, raw[name][1])
    metrics["items_per_s"] = (raw["items_per_s"][0] * slowness, "1/s")
    info = issue_metrics(workload, samples, raw)
    info["machine_slowness"] = (slowness, "ratio")
    info["rounds"] = (r, "count")
    info["measured_s"] = (measured, "s")
    return run.result(metrics, info, [])


def issue_metrics(workload, samples, metrics) -> dict:
    """The end-to-end numbers under the names the workload notes use."""
    noun = "episode" if workload.kind == "episodes" else "formula"
    info = {
        f"{noun}s_per_s": metrics["items_per_s"],
        f"{noun}_ms_p50": metrics["item_ms_p50"],
        "failed_fraction": (sum(s.failed for s in samples) / len(samples), "ratio"),
    }
    item_ms = [s.ms for s in samples if not s.failed]
    if len(item_ms) >= 100:
        info[f"{noun}_ms_p90"] = (quantile(item_ms, 90), "ms")
    if workload.kind == "episodes":
        info["step_ms_p50"] = metrics["op_ms_p50"]
        info["step_ms_p99"] = metrics["op_ms_p99"]
        for method in workload.methods:
            first = [s for s in samples if s.method == method and s.round < workload.min_rounds]
            info[f"satisfaction_rate.{method}"] = (100.0 * sum(s.verdict == "satisfied" for s in first) / len(first), "%")
            info[f"avg_steps.{method}"] = (sum(s.steps for s in first) / len(first), "steps")
    else:
        ok = [s for s in samples if not s.failed]
        info["compile_ms_p50"] = metrics["op_ms_p50"]
        info["compile_ms_p99"] = metrics["op_ms_p99"]
        info["commit_ms_p50"] = (statistics.median(s.commit_ms for s in ok), "ms")
    return info


def traced(workload: wl.Workload, seed: int, limit: int = None) -> dict:
    """Trace the first round, or its first `limit` items."""
    run = Run(workload, seed)
    batch = next(wl.rounds(wl.load_reference(workload.name), seed))[:limit]
    program, task, inputs = run.setup(batch)
    steps = wl.StepClock(program.planner)

    t0 = clock()
    outputs = run.run_round(program, task, steps, batch, inputs)
    untraced_s = clock() - t0
    run.check(program, task, 0, outputs)

    tracer = tr.Tracer()
    tr.install(tracer, program)
    t1 = clock()
    task = wl.prepare_task(program) if workload.kind == "episodes" else None
    inputs = wl.round_inputs(program, workload, batch)
    t2 = clock()
    outputs = run.run_round(program, task, steps, batch, inputs, tracer)
    t3 = clock()
    tracer.unhook()
    run.check(program, task, 0, outputs)
    verify_ms = (clock() - t3) * 1000.0

    episodes = [out for _, _, out in outputs] if workload.kind == "episodes" else []
    metrics, self_ms = tr.layer_metrics(
        tracer,
        traced_ms=(t3 - t1) * 1000.0,
        item_ms=(t3 - t2) * 1000.0,
        steps=sum(o.steps for o in episodes),
        iterations=sum(o.iterations for o in episodes if o.method == "ours"),
    )
    metrics["bench.verify.ms"] = (verify_ms, "ms")
    metrics["bench.trace_overhead_ratio"] = ((t3 - t2) / untraced_s, "ratio")
    info = {f"{name}.ms": (ms, "ms") for name, ms in self_ms.items()}
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"{workload.name}-seed{seed}-spans.jsonl.gz")
    return run.result(metrics, info, tracer.absent)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    out = traced(workload, args.seed) if args.trace else timed(workload, args.seed, args.seconds)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
