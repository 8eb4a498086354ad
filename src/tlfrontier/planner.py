"""Frontier-based exploration that plans in the product space.

`explore` is the one episode loop, shared with the baseline: while no
accepting product node is reachable, a policy picks a frontier and returns
the steps toward it; once one is, the robot walks the shortest path to
acceptance. The two policies differ in the frontier they pick and in how
far they walk toward it:

- `ProductPolicy` scores each frontier by information gain, the task
  progress of the automaton state its best trajectory ends in, and that
  trajectory's hops. It stops walking as soon as acceptance becomes
  reachable or the target stops being a frontier, and replans.
- `baseline.NearestPolicy` takes the nearest frontier whose grid path does
  not violate the task, and walks that path to completion.

Scoring reads the frontier layer that `sense` keeps on the known set
(`env.FrontierLayer`), so an iteration neither rescans the known cells
for frontiers nor recounts the gain of a frontier it has scored before;
it reads the product graph over integer node ids (`product`), and turns
them into `ProductState`s only for the steps it executes.

Trajectories ending in trash score minus infinity and are never selected;
ending in a commit state scores negative, so committing progress is taken
only when no safer frontier remains. The score is divided by `w ** alpha3`
whatever its sign, so among frontiers that can only end in a commit state
the farther one scores higher (its negative value is nearer zero).
Weights that break this order on the map are rejected before the episode
starts (`WeightOverflowError`): an `alpha3` so large that `w ** alpha3`
could overflow a float, an `alpha1` or `alpha2` whose score numerator
overflows, or a ratio that makes the commit penalty infinite or zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .commit import CommitReport, commit_states
from .env import Cell, GridMap, KnownSet, frontiers, info_gain, is_frontier, sense
from .product import ProductGraph, ProductState, accepting_reachable, expand, min_weight_paths
from .scltl.alphabet import AlphabetError
from .scltl.dfa import PrunedDistances, TotalDfa, delta_phi, pruned_distances
from .search import path

SATISFIED = "satisfied"
UNSATISFIABLE = "unsatisfiable"

NEG_INF = float("-inf")


class StepLimitError(RuntimeError):
    """The episode exceeded its step budget; indicates an implementation bug."""


class WeightOverflowError(ValueError):
    """The weighting factors do not fit a float on this map: a hop weight
    `w ** alpha3` or a score numerator overflows, or the commit penalty
    `-(alpha1 * size) / alpha2` is not a finite negative number."""


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


@dataclass(frozen=True)
class ScoredFrontier:
    cell: Cell
    value: float
    best_end: Optional[ProductState]
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
    policy: ProductPolicy,
) -> ScoredFrontier:
    """Score one frontier cell.

    The maximization ranges over the product nodes above `x` reachable from
    `cur` through non-trash nodes, each taken at its hop count. Ties
    prefer fewer hops, then the smaller automaton state id.
    """
    if x not in k.frontier_layer(policy.grid).cells:
        raise ValueError(f"{x} is not a frontier")
    hops, _ = min_weight_paths(g, g.node_id(cur))
    cfg, size = policy.cfg, policy.grid.size()
    gain = info_gain(policy.grid, x, cfg.h, k)
    best = None  # (-value, hops, automaton state)
    for node, s in zip(g.cell_nodes(x), g.states):
        w = hops.get(node)
        if w:  # None: unreachable; 0: the robot's own node
            task = omega(policy.dfa, policy.commits, policy.distances, cur.dfa_state, s, size, cfg)
            value = (cfg.alpha1 * gain + cfg.alpha2 * task) / (w ** cfg.alpha3)
            if best is None or (-value, w, s) < best:
                best = (-value, w, s)
    if best is None:
        return ScoredFrontier(cell=x, value=NEG_INF, best_end=None, weight=None)
    return ScoredFrontier(cell=x, value=-best[0], best_end=ProductState(x, best[2]), weight=best[1])


class _Episode:
    """Mutable episode state shared by the exploration and execution phases."""

    def __init__(self, grid: GridMap, dfa: TotalDfa, cfg: PlannerConfig):
        undeclared = set(grid.labels.values()) - set(dfa.alphabet.names)
        if undeclared:
            raise AlphabetError(
                f"map labels {sorted(undeclared)} missing from the automaton alphabet"
            )
        size = grid.size()
        try:  # no trajectory has more hops than the product has nodes
            float(size * len(dfa.states)) ** cfg.alpha3
        except OverflowError:
            raise WeightOverflowError(
                f"alpha3 = {cfg.alpha3:g} overflows the hop weight on a map of {size} cells"
            ) from None
        # gains are at most `size`, pruned-hop progress at most the state count
        penalty = -(cfg.alpha1 * size) / cfg.alpha2
        numerator = cfg.alpha1 * size + cfg.alpha2 * len(dfa.states)
        if not (-math.inf < penalty < 0 and numerator < math.inf):
            raise WeightOverflowError(
                f"alpha1 = {cfg.alpha1:g} and alpha2 = {cfg.alpha2:g} put the commit penalty "
                f"or a frontier score out of float range on a map of {size} cells"
            )
        self.grid = grid
        self.dfa = dfa
        self.cfg = cfg
        self.step_cap = cfg.step_cap if cfg.step_cap is not None else 10 * grid.size() * len(dfa.states)
        start_letter = grid.letter_at(grid.start)
        self.cur = ProductState(grid.start, dfa.step(dfa.initial, start_letter))
        self.known = sense(grid, grid.start, cfg.h, KnownSet())
        self.graph = ProductGraph(grid, dfa, self.cur)
        expand(self.graph, self.known)
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
        self.graph.root = self.graph.node_id(node)
        expand(self.graph, self.known)
        self._trace_step()

    def result(self, verdict: str, reason: Optional[str] = None) -> EpisodeResult:
        diagnostics = {"iterations": self.iterations, "trace": self.trace}
        if reason:
            diagnostics["reason"] = reason
        return EpisodeResult(
            verdict, self.trajectory, self.actions, self.word, self.steps, diagnostics
        )

    def execute_satisfying_path(self) -> EpisodeResult:
        """Shortest path to an accepting node, run to completion.

        Every label along it is already known, so it cannot be invalidated.
        """
        self.phase = "satisfy"
        self.last_target = None
        g = self.graph
        hops, parents = min_weight_paths(g, g.root)

        def key(node):  # fewest hops, then row-major cell, then automaton state
            (c, r), s = g.state(node)
            return hops[node], r, c, s

        goal = min(filter(g.is_accepting, hops), key=key, default=None)
        assert goal is not None, "satisfying phase entered without a reachable accepting node"
        for action, node in path(parents, goal):
            self.execute(action, g.state(node))
        final = self.dfa.run(self.word)
        assert final in self.dfa.accepting, "executed word does not end accepting"
        return self.result(SATISFIED)


def explore(grid: GridMap, dfa: TotalDfa, cfg: PlannerConfig, policy) -> EpisodeResult:
    """The episode loop of both methods. `policy.plan(ep, fs)` returns the
    `(action, node)` steps to execute, or None when it rules out every
    frontier; `policy.blocked` is then the reason given."""
    ep = _Episode(grid, dfa, cfg)
    while not accepting_reachable(ep.graph):
        fs = frontiers(grid, ep.known)
        if not fs:
            return ep.result(UNSATISFIABLE, reason="no frontiers remain")
        steps = policy.plan(ep, fs)
        if steps is None:
            return ep.result(UNSATISFIABLE, reason=policy.blocked)
        for action, node in steps:
            ep.execute(action, node)
    return ep.execute_satisfying_path()


@dataclass
class ProductPolicy:
    """Everything frontier scoring needs besides the product graph. Takes
    the frontier of maximal value, and walks toward it only while
    acceptance stays unreachable and the target stays a frontier."""

    dfa: TotalDfa
    commits: CommitReport
    distances: PrunedDistances
    grid: GridMap
    cfg: PlannerConfig
    blocked = "every remaining frontier is blocked"

    def plan(self, ep: _Episode, fs: set):
        target = min(
            (frontier_value(ep.graph, ep.cur, cell, ep.known, self) for cell in fs),
            key=lambda f: (-f.value, f.weight or 0, (f.cell[1], f.cell[0])),
        )
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
            return None
        g = ep.graph
        _, parents = min_weight_paths(g, g.root)
        return self._walk(ep, target.cell, path(parents, g.node_id(target.best_end)))

    def _walk(self, ep: _Episode, target: Cell, steps: list):
        for action, node in steps:
            yield action, ep.graph.state(node)
            if accepting_reachable(ep.graph) or not is_frontier(self.grid, ep.known, target):
                return


def run_episode(
    grid: GridMap,
    dfa: TotalDfa,
    commits: Optional[CommitReport] = None,
    cfg: Optional[PlannerConfig] = None,
) -> EpisodeResult:
    """The product-space method: `ProductPolicy` in the shared loop."""
    cfg = cfg or PlannerConfig()
    commits = commits if commits is not None else commit_states(dfa)
    return explore(grid, dfa, cfg, ProductPolicy(dfa, commits, pruned_distances(dfa), grid, cfg))
