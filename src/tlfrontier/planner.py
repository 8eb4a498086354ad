"""Frontier-based exploration that plans in the product space.

Each candidate frontier is scored by information gain, a task progress
metric over the automaton state its best trajectory ends in, and the
trajectory's length in hops. Trajectories ending in the trash state score
minus infinity and are never selected; trajectories ending in a commit
state score negative, so committing progress is taken only when no safer
frontier remains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .commit import CommitReport, commit_states
from .env import Cell, GridMap, KnownSet, frontiers, info_gain, is_frontier, sense
from .product import ProductGraph, ProductState, accepting_reachable, expand, min_weight_paths
from .scltl.dfa import PrunedDistances, TotalDfa, delta_phi, pruned_distances
from .search import path

SATISFIED = "satisfied"
UNSATISFIABLE = "unsatisfiable"

NEG_INF = float("-inf")


class StepLimitError(RuntimeError):
    """The episode exceeded its step budget; indicates an implementation bug."""


@dataclass(frozen=True)
class PlannerConfig:
    alpha1: float = 1.0
    alpha2: float = 20.0
    alpha3: float = 1.0
    h: int = 3
    step_cap: Optional[int] = None

    def __post_init__(self):
        if self.alpha1 <= 0 or self.alpha2 <= 0 or self.alpha3 <= 0:
            raise ValueError("weighting factors must be positive")
        if self.h < 1:
            raise ValueError("sensing radius must be at least 1")
        if self.step_cap is not None and self.step_cap < 1:
            raise ValueError("step cap must be positive")


@dataclass
class PlanningContext:
    """Everything frontier scoring needs, bundled so the per-iteration
    shortest-path tree can be shared across all frontiers."""

    dfa: TotalDfa
    commits: CommitReport
    distances: PrunedDistances
    grid: GridMap
    cfg: PlannerConfig
    paths: Optional[tuple] = None  # cached (hops, parents) from the current node


@dataclass(frozen=True)
class ScoredFrontier:
    cell: Cell
    value: float
    best_end: Optional[ProductState]
    best_path: tuple
    weight: Optional[int]


@dataclass
class EpisodeResult:
    verdict: str
    trajectory: list
    actions: list
    word: list  # one letter per trajectory cell, the start cell included
    steps: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        return self.verdict == SATISFIED


def omega(
    dfa: TotalDfa,
    commits: CommitReport,
    d: PrunedDistances,
    s_start: int,
    s_end: int,
    map_size: int,
    cfg: PlannerConfig,
) -> float:
    """Task progress of ending a trajectory in `s_end`, starting from `s_start`.

    Trash is minus infinity; commit states get a penalty large enough to
    outweigh any information gain; otherwise the pruned-hop progress.
    """
    if s_end == dfa.trash:
        return NEG_INF
    if s_end in commits.commit_set:
        return -(cfg.alpha1 * map_size) / cfg.alpha2
    return float(delta_phi(d, s_start, s_end))


def frontier_value(
    g: ProductGraph,
    cur: ProductState,
    x: Cell,
    k: KnownSet,
    ctx: PlanningContext,
) -> ScoredFrontier:
    """Score one frontier cell.

    The maximization ranges over the product nodes above `x` reachable from
    `cur` through non-trash nodes, each taken at its hop count. Ties
    prefer fewer hops, then the smaller automaton state id.
    """
    if not is_frontier(ctx.grid, k, x):
        raise ValueError(f"{x} is not a frontier")
    if ctx.paths is None:
        ctx.paths = min_weight_paths(g, cur)
    hops, parents = ctx.paths

    gain = info_gain(ctx.grid, x, ctx.cfg.h, k)
    best = None  # (value, weight, dfa_state, end)
    for s in ctx.dfa.states:
        end = ProductState(x, s)
        w = hops.get(end)
        if w is None or w == 0:
            continue
        task = omega(ctx.dfa, ctx.commits, ctx.distances, cur.dfa_state, s, ctx.grid.size(), ctx.cfg)
        value = (ctx.cfg.alpha1 * gain + ctx.cfg.alpha2 * task) / (w ** ctx.cfg.alpha3)
        key = (-value, w, s)
        if best is None or key < best[0]:
            best = (key, value, w, end)
    if best is None:
        return ScoredFrontier(cell=x, value=NEG_INF, best_end=None, best_path=(), weight=None)
    _, value, w, end = best
    return ScoredFrontier(cell=x, value=value, best_end=end, best_path=tuple(path(parents, end)), weight=w)


class _Episode:
    """Mutable episode state shared by the exploration and execution phases."""

    def __init__(self, grid: GridMap, dfa: TotalDfa, cfg: PlannerConfig):
        labels = set(grid.labels.values())
        undeclared = labels - set(dfa.alphabet.names)
        if undeclared:
            raise ValueError(f"map labels {sorted(undeclared)} missing from the automaton alphabet")
        self.grid = grid
        self.dfa = dfa
        self.cfg = cfg
        self.step_cap = cfg.step_cap if cfg.step_cap is not None else 10 * grid.size() * len(dfa.states)
        start_letter = grid.letter_at(grid.start)
        self.cur = ProductState(grid.start, dfa.step(dfa.initial, start_letter))
        self.known = sense(grid, grid.start, cfg.h, KnownSet())
        self.graph = ProductGraph(grid, dfa, self.cur)
        expand(self.graph, grid, self.known, dfa)
        self.trajectory = [grid.start]
        self.actions = []
        self.word = [start_letter]
        self.trace = []
        self.iterations = []
        self.last_v_max = None
        self.last_target = None
        self.phase = "explore"
        self._trace_step()

    @property
    def steps(self) -> int:
        return len(self.actions)

    def _trace_step(self):
        v = self.last_v_max
        self.trace.append(
            {
                "t": self.steps,
                "cell": list(self.cur.cell),
                "dfa": self.cur.dfa_state,
                "known": len(self.known),
                "phase": self.phase,
                "frontier": list(self.last_target) if self.last_target else None,
                "v_max": "-inf" if v is None or v == NEG_INF else v,
            }
        )

    def execute(self, action: str, node: ProductState):
        if self.steps >= self.step_cap:
            raise StepLimitError(f"step cap {self.step_cap} exceeded")
        self.cur = node
        self.actions.append(action)
        self.trajectory.append(node.cell)
        self.word.append(self.grid.letter_at(node.cell))
        self.known = sense(self.grid, node.cell, self.cfg.h, self.known)
        self.graph.root = self.cur
        expand(self.graph, self.grid, self.known, self.dfa)
        self._trace_step()

    def result(self, verdict: str, reason: Optional[str] = None) -> EpisodeResult:
        diagnostics = {"iterations": self.iterations, "trace": self.trace}
        if reason:
            diagnostics["reason"] = reason
        return EpisodeResult(
            verdict=verdict,
            trajectory=self.trajectory,
            actions=self.actions,
            word=self.word,
            steps=self.steps,
            diagnostics=diagnostics,
        )

    def execute_satisfying_path(self) -> EpisodeResult:
        """Shortest path to an accepting node, run to completion.

        Every label along it is already known, so it cannot be invalidated.
        """
        self.phase = "satisfy"
        self.last_target = None
        hops, parents = min_weight_paths(self.graph, self.cur)
        goal = None
        for node, w in hops.items():
            if not self.graph.is_accepting(node):
                continue
            key = (w, (node.cell[1], node.cell[0]), node.dfa_state)
            if goal is None or key < goal[0]:
                goal = (key, node)
        assert goal is not None, "satisfying phase entered without a reachable accepting node"
        for action, node in path(parents, goal[1]):
            self.execute(action, node)
        final = self.dfa.run(self.word)
        assert final in self.dfa.accepting, "executed word does not end accepting"
        return self.result(SATISFIED)


def run_episode(
    grid: GridMap,
    dfa: TotalDfa,
    commits: Optional[CommitReport] = None,
    cfg: Optional[PlannerConfig] = None,
) -> EpisodeResult:
    """Explore until an accepting product node is reachable, then finish.

    Frontier selection follows the scored maximum; the walk toward the
    chosen frontier is cut short as soon as acceptance becomes reachable
    or the target stops being a frontier. Returns unsatisfiable when no
    frontiers remain or every remaining frontier is blocked by violations.
    """
    cfg = cfg or PlannerConfig()
    commits = commits if commits is not None else commit_states(dfa)
    distances = pruned_distances(dfa)
    ep = _Episode(grid, dfa, cfg)
    ctx = PlanningContext(dfa=dfa, commits=commits, distances=distances, grid=grid, cfg=cfg)

    while not accepting_reachable(ep.graph):
        fs = frontiers(grid, ep.known)
        if not fs:
            return ep.result(UNSATISFIABLE, reason="no frontiers remain")
        ctx.paths = None
        best = None  # (sort key, ScoredFrontier)
        for cell in sorted(fs, key=lambda c: (c[1], c[0])):
            scored = frontier_value(ep.graph, ep.cur, cell, ep.known, ctx)
            key = (
                -scored.value,
                scored.weight if scored.weight is not None else 0,
                (cell[1], cell[0]),
            )
            if best is None or key < best[0]:
                best = (key, scored)
        target = best[1]
        ep.last_v_max = target.value
        ep.last_target = target.cell
        ep.iterations.append(
            {
                "frontier": list(target.cell),
                "v_max": target.value,
                "known": len(ep.known),
                "end_dfa": target.best_end.dfa_state if target.best_end else None,
            }
        )
        if target.value == NEG_INF:
            return ep.result(UNSATISFIABLE, reason="every remaining frontier is blocked")
        for action, node in target.best_path:
            ep.execute(action, node)
            if accepting_reachable(ep.graph):
                break
            if not is_frontier(grid, ep.known, target.cell):
                break

    return ep.execute_satisfying_path()
