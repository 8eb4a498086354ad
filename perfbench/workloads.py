"""Workload definitions, inputs, item runners and the correctness gate.

Every workload draws its inputs from a fixed pool stored in
`reference/<workload>.json`, together with each item's reference digest.
The pool is split into strata (a group, such as the block count, times a
work bin, cut at equal counts from the reference work of each item). A
round takes one item from every stratum, so every round holds the same mix
of short and long items; the seed decides which item each stratum gives in
each round and the order inside the round.

The program is imported fresh by `load_program`, and every call into it
goes through the module attributes collected in `Program`, so the tracer
can wrap them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

clock = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

# The paper's rescue task over l (one-way ground), p (person), s (safe exit).
PHI1 = "(!l U (l U (p U ((l | p) U s)))) & F s & (!s U p)"
TASK_ATOMS = ("l", "p", "s")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "episodes" or "formulas"
    methods: tuple = ()
    min_rounds: int = 1  # always run; the quality numbers come from these rounds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rescue20", "episodes", ("ours", "baseline"), min_rounds=4),
        Workload("explore40", "episodes", ("ours",), min_rounds=1),
        Workload("compile_wide", "formulas", min_rounds=1),
    )
}


@dataclass
class Program:
    env: object
    planner: object
    baseline: object
    commit: object
    compiler: object
    parser: object
    formula: object
    dfa: object
    alphabet: object


def load_program() -> Program:
    """Import the package from this checkout's `src`, dropping any copy
    already imported, so that every call measures a full import."""
    for name in [n for n in sys.modules if n == "tlfrontier" or n.startswith("tlfrontier.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {
        key: importlib.import_module(f"tlfrontier.{path}")
        for key, path in (
            ("env", "env"), ("planner", "planner"), ("baseline", "baseline"),
            ("commit", "commit"), ("compiler", "scltl.compiler"), ("parser", "scltl.parser"),
            ("formula", "scltl.formula"), ("dfa", "scltl.dfa"), ("alphabet", "scltl.alphabet"),
        )
    }
    if SRC not in Path(mods["env"].__file__).resolve().parents:
        raise ImportError(f"tlfrontier was imported from {mods['env'].__file__}, not from {SRC}")
    return Program(**mods)


# --- the pool and its rounds --------------------------------------------------


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def rounds(reference: dict, seed: int):
    """Endless rounds of pool items, one per stratum, drawn by `seed`.

    A stratum is drawn without replacement; it starts over, in the same
    order, only after all its items have been used.
    """
    rng = random.Random(seed)
    strata = {}
    for item in reference["items"]:
        strata.setdefault((item["group"], item["bin"]), []).append(item)
    order = []
    for key in sorted(strata):
        items = sorted(strata[key], key=lambda it: it["id"])
        rng.shuffle(items)
        order.append(items)
    r = 0
    while True:
        batch = [items[r % len(items)] for items in order]
        rng.shuffle(batch)
        yield batch
        r += 1


def round_inputs(program: Program, workload: Workload, batch: list) -> list:
    """The program inputs of one round: maps, or formula texts with atoms."""
    if workload.kind == "episodes":
        return [program.env.random_map(*item["map"]) for item in batch]
    return [(item["formula"], tuple(item["atoms"])) for item in batch]


# --- running items --------------------------------------------------------------


@dataclass
class Task:
    phi: object
    dfa: object
    commits: object


def prepare_task(program: Program) -> Task:
    alphabet = program.alphabet.ObservationSet(TASK_ATOMS)
    phi = program.parser.parse_formula(PHI1, alphabet)
    dfa = program.compiler.compile_dfa(phi, alphabet)
    return Task(phi, dfa, program.commit.commit_states(dfa))


class StepClock:
    """Timestamps every call to the planner's `sense`, which runs once at
    episode start and once per executed move, for both methods."""

    def __init__(self, planner):
        self.stamps = []
        sense = planner.sense
        stamps = self.stamps

        def stamped(*args, **kwargs):
            stamps.append(clock())
            return sense(*args, **kwargs)

        planner.sense = stamped


@dataclass
class EpisodeOut:
    method: str
    ms: float = 0.0
    step_ms: list = field(default_factory=list)
    verdict: str = ""
    trajectory: list = field(default_factory=list)
    actions: list = field(default_factory=list)
    word: list = field(default_factory=list)
    steps: int = 0
    iterations: int = 0
    error: str = ""


def run_episode(program: Program, task: Task, grid, method: str, steps: StepClock) -> EpisodeOut:
    out = EpisodeOut(method)
    steps.stamps.clear()
    t0 = clock()
    try:
        if method == "ours":
            result = program.planner.run_episode(grid, task.dfa, task.commits)
        else:
            result = program.baseline.run_baseline(grid, task.dfa)
    except Exception as exc:  # counted as a failed output, the run goes on
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    out.ms = (clock() - t0) * 1000.0
    s = steps.stamps
    out.step_ms = [(b - a) * 1000.0 for a, b in zip(s, s[1:])]
    out.verdict = result.verdict
    out.trajectory = [tuple(c) for c in result.trajectory]
    out.actions = list(result.actions)
    out.word = list(result.word)
    out.steps = result.steps
    out.iterations = len(getattr(result, "diagnostics", {}).get("iterations", ()))
    return out


@dataclass
class FormulaOut:
    ms: float = 0.0
    compile_ms: float = 0.0
    commit_ms: float = 0.0
    phi: object = None
    dfa: object = None
    commits: object = None
    distances: object = None
    error: str = ""


def run_formula(program: Program, text: str, atoms: tuple) -> FormulaOut:
    """Parse, compile, analyse for commit states and compute the pruned
    distances: the per-task preparation a planner needs."""
    out = FormulaOut()
    try:
        t0 = clock()
        alphabet = program.alphabet.ObservationSet(atoms)
        out.phi = program.parser.parse_formula(text, alphabet)
        t1 = clock()
        out.dfa = program.compiler.compile_dfa(out.phi, alphabet)
        t2 = clock()
        out.commits = program.commit.commit_states(out.dfa)
        t3 = clock()
        out.distances = program.dfa.pruned_distances(out.dfa)
        t4 = clock()
    except Exception as exc:  # counted as a failed output, the run goes on
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    out.ms = (t4 - t0) * 1000.0
    out.compile_ms = (t2 - t1) * 1000.0
    out.commit_ms = (t3 - t2) * 1000.0
    return out


# --- digests and the correctness gate ---------------------------------------


def _hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def episode_digest(out: EpisodeOut) -> str:
    return _hash([out.method, out.verdict, [list(c) for c in out.trajectory]])


def formula_digest(out: FormulaOut) -> str:
    dfa, report = out.dfa, out.commits
    return _hash(
        {
            "states": list(dfa.states),
            "initial": dfa.initial,
            "accepting": sorted(dfa.accepting),
            "trash": dfa.trash,
            "transitions": sorted([s, sorted(l), t] for (s, l), t in dfa.transitions.items()),
            "commits": sorted(report.commit_set),
            "witnesses": {str(s): [sorted(l) for l in w] for s, w in report.witnesses.items()},
            "distances": sorted(out.distances.distance.items()),
        }
    )


def check_episode(program: Program, task: Task, grid, out: EpisodeOut, reference: str) -> list:
    """Problems with one episode; an empty list means it passed."""
    if out.error:
        return [out.error]
    problems = []
    traj = out.trajectory
    if len(traj) != len(out.actions) + 1 or len(out.word) != len(traj) or out.steps != len(out.actions):
        return ["trajectory, actions, word and steps disagree in length"]
    for i, action in enumerate(out.actions):
        if grid.move(traj[i], action) != traj[i + 1]:
            problems.append(f"move {i} ({action}) from {traj[i]} does not reach {traj[i + 1]}")
            break
    if any(out.word[i] != grid.letter_at(c) for i, c in enumerate(traj)):
        problems.append("word does not match the labels along the trajectory")
    states = task.dfa.run_states(out.word)
    if out.verdict == "satisfied":
        if states[-1] not in task.dfa.accepting:
            problems.append("satisfied word does not end accepting")
        if not program.formula.is_good_prefix(task.phi, out.word):
            problems.append("satisfied word is not a good prefix of the task")
    if (out.verdict == "satisfied" or out.method == "ours") and task.dfa.trash in states:
        problems.append("executed prefix reaches trash")
    if episode_digest(out) != reference:
        problems.append("digest differs from the reference")
    return problems


def check_formula(program: Program, out: FormulaOut, reference: str, rng: random.Random, n_words: int = 24) -> list:
    if out.error:
        return [out.error]
    problems = []
    dfa = out.dfa
    names = list(dfa.alphabet.names)
    for _ in range(n_words):
        word = [frozenset(n for n in names if rng.random() < 0.3) for _ in range(rng.randrange(7))]
        if dfa.accepts(word) != program.formula.is_good_prefix(out.phi, word):
            problems.append(f"automaton and progression disagree on {[sorted(l) for l in word]}")
            break
    for s in sorted(out.commits.commit_set):
        if not program.commit.verify_witness(dfa, s, out.commits.witnesses[s]):
            problems.append(f"witness of commit state {s} does not verify")
    if formula_digest(out) != reference:
        problems.append("digest differs from the reference")
    return problems


# --- machine speed --------------------------------------------------------------

# About what `speed_probe` takes on one 2 GHz Xeon core that no other
# tenant slows down; timings are reported as if every probe in the run had
# taken this long.
NOMINAL_PROBE_S = 0.005


def speed_probe() -> float:
    """Seconds taken by a fixed arithmetic loop of the interpreter. It
    shares no code with the program, so it measures the machine, not the
    change under test. Of three probes tried (this loop, a tuple BFS and a
    copy of `expand`'s inner loop), its time tracked the episodes best as
    other tenants slowed the machine."""
    t0 = clock()
    x = 0
    for i in range(60000):
        x += i * i % 7
    return clock() - t0
