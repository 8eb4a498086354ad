"""Physical-space frontier exploration with violation-based discarding.

The comparison method: frontiers are ranked by plain grid distance, the
automaton is only consulted to discard frontiers whose path would violate
the task, and nothing anticipates irreversible progress. Satisfaction
detection reuses the product-space machinery so that the comparison
isolates the frontier-selection policy.
"""

from __future__ import annotations

from typing import Optional

from .env import ACTIONS, STAY, Cell, GridMap, KnownSet, frontiers
from .planner import UNSATISFIABLE, EpisodeResult, PlannerConfig, _Episode
from .product import ProductState, accepting_reachable
from .scltl.dfa import TotalDfa
from .search import bfs, path


def _grid_shortest_paths(grid: GridMap, k: KnownSet, src: Cell):
    """Hop counts over known cells honoring the (one-way) transition
    function, ignoring the automaton entirely."""

    def successors(cell):
        for action in ACTIONS:
            if action != STAY:
                nxt = grid.move(cell, action)
                if nxt is not None and nxt in k:
                    yield action, nxt

    return bfs([src], successors)


def run_baseline(
    grid: GridMap,
    dfa: TotalDfa,
    cfg: Optional[PlannerConfig] = None,
) -> EpisodeResult:
    """Walk to the nearest frontier whose physical path stays violation-free;
    finish over the product as soon as acceptance is reachable."""
    cfg = cfg or PlannerConfig()
    ep = _Episode(grid, dfa, cfg)

    while True:
        if accepting_reachable(ep.graph):
            return ep.execute_satisfying_path()
        fs = frontiers(grid, ep.known)
        if not fs:
            return ep.result(UNSATISFIABLE, reason="no frontiers remain")

        hops, parents = _grid_shortest_paths(grid, ep.known, ep.cur.cell)
        ranked = sorted(
            (cell for cell in fs if hops.get(cell, 0) > 0),
            key=lambda c: (hops[c], c[1], c[0]),
        )
        chosen = None
        for cell in ranked:
            steps = path(parents, cell)
            s = ep.cur.dfa_state
            for _, nxt_cell in steps:
                s = dfa.step(s, grid.letter_at(nxt_cell))
                if s == dfa.trash:
                    break
            if s == dfa.trash:
                continue  # following this path would violate the task
            chosen = steps
            break
        if chosen is None:
            return ep.result(
                UNSATISFIABLE, reason="every frontier is unreachable or discarded"
            )
        ep.iterations.append(
            {"frontier": list(chosen[-1][1]), "v_max": None, "known": len(ep.known)}
        )
        ep.last_target = chosen[-1][1]
        for action, cell in chosen:
            nxt = ProductState(cell, dfa.step(ep.cur.dfa_state, grid.letter_at(cell)))
            ep.execute(action, nxt)
