"""Monte Carlo comparison between the product-space planner and the baseline.

Suites are fully deterministic: map i uses seed `base_seed + i`, episodes
contain no randomness, and result files are written without wall-clock
timings unless explicitly requested, so identical configs produce
byte-identical output.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from .baseline import run_baseline
from .commit import commit_states
from .env import random_map
from .planner import PlannerConfig, run_episode
from .scltl.alphabet import ObservationSet
from .scltl.compiler import compile_dfa
from .scltl.parser import parse_formula

# Rescue task over labels l (one-way ground), p (person), s (safe exit).
PHI1 = "(!l U (l U (p U ((l | p) U s)))) & F s & (!s U p)"

METHOD_OURS = "ours"
METHOD_BASELINE = "baseline"

# Tie-breaking and replan cadence are conventions of this harness, recorded
# in every summary so runs are comparable.
CONVENTIONS = {
    "ours": "argmax frontier value; ties by smaller weight then row-major cell",
    "baseline": "nearest surviving frontier by grid distance, ties row-major; "
    "walks each chosen path to completion before replanning",
    "deadlock_accounting": "unsatisfiable runs contribute their partial trajectory length",
}


@dataclass(frozen=True)
class BenchConfig:
    size: int = 20
    n_blocks: int = 5
    n_maps: int = 500
    base_seed: int = 0
    formula: str = PHI1
    methods: tuple = (METHOD_OURS, METHOD_BASELINE)
    cfg: PlannerConfig = field(default_factory=PlannerConfig)

    def map_seed(self, index: int) -> int:
        return self.base_seed + index


@dataclass(frozen=True)
class RunRecord:
    map_seed: int
    method: str
    n_blocks: int
    satisfied: bool
    steps: int
    wall_ms: int

    def to_json_dict(self, include_timings: bool = False) -> dict:
        out = {
            "map_seed": self.map_seed,
            "method": self.method,
            "n_blocks": self.n_blocks,
            "satisfied": self.satisfied,
            "steps": self.steps,
        }
        if include_timings:
            out["wall_ms"] = self.wall_ms
        return out


def run_bench(config: BenchConfig):
    """One record per (map, method), plus the per-method summary."""
    alphabet = ObservationSet(["l", "p", "s"])
    dfa = compile_dfa(parse_formula(config.formula, alphabet), alphabet)
    commits = commit_states(dfa)

    records = []
    for i in range(config.n_maps):
        seed = config.map_seed(i)
        grid = random_map(config.size, config.n_blocks, seed)
        for method in config.methods:
            t0 = time.perf_counter()
            if method == METHOD_OURS:
                result = run_episode(grid, dfa, commits, config.cfg)
            elif method == METHOD_BASELINE:
                result = run_baseline(grid, dfa, config.cfg)
            else:
                raise ValueError(f"unknown method {method!r}")
            wall_ms = int((time.perf_counter() - t0) * 1000)
            satisfied = result.satisfied
            if satisfied:
                # independent re-verification: replay the word
                states = dfa.run_states(result.word)
                if states[-1] not in dfa.accepting or dfa.trash in states:
                    raise AssertionError(
                        f"satisfied episode fails word replay (seed={seed}, method={method})"
                    )
            records.append(
                RunRecord(
                    map_seed=seed,
                    method=method,
                    n_blocks=config.n_blocks,
                    satisfied=satisfied,
                    steps=result.steps,
                    wall_ms=wall_ms,
                )
            )
    return records, summarize(records)[1]


def summarize(records):
    """Render the per-(n-blocks, method) table; returns (text, data)."""
    if not records:
        raise ValueError("no records to summarize")
    groups = {}
    for rec in records:
        groups.setdefault((rec.n_blocks, rec.method), []).append(rec)
    rows = []
    for (n_blocks, method) in sorted(groups):
        recs = groups[(n_blocks, method)]
        rate = 100.0 * sum(1 for r in recs if r.satisfied) / len(recs)
        avg = sum(r.steps for r in recs) / len(recs)
        rows.append(
            {
                "n_blocks": n_blocks,
                "method": method,
                "runs": len(recs),
                "satisfaction_rate": round(rate, 2),
                "avg_steps": round(avg, 2),
            }
        )
    header = f"{'n':>3}  {'method':<10}  {'runs':>5}  {'satisfaction':>12}  {'avg steps':>9}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['n_blocks']:>3}  {row['method']:<10}  {row['runs']:>5}  "
            f"{row['satisfaction_rate']:>11.2f}%  {row['avg_steps']:>9.2f}"
        )
    data = {"rows": rows, "conventions": CONVENTIONS}
    return "\n".join(lines), data


def write_results(path, records, summary: Optional[dict] = None, include_timings: bool = False):
    """JSON lines: one record per line, then a final summary object."""
    if summary is None:
        summary = summarize(records)[1]
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict(include_timings), sort_keys=True) + "\n")
        fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
