"""Physical-space frontier exploration with violation-based discarding.

The comparison method: frontiers are ranked by plain grid distance, the
automaton is only consulted to discard frontiers whose path would violate
the task, and nothing anticipates irreversible progress. Satisfaction
detection reuses the product-space machinery so that the comparison
isolates the frontier-selection policy.
"""

from __future__ import annotations

from typing import Optional

# `frontiers` and `accepting_reachable` are unused here (`planner.explore`
# calls them), but perfbench/tracer.py hooks them on this module by name.
from .env import ACTIONS, STAY, Cell, GridMap, KnownSet, frontiers  # noqa: F401
from .planner import EpisodeResult, PlannerConfig, explore
from .product import ProductState, accepting_reachable  # noqa: F401
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


class NearestPolicy:
    """Take the nearest frontier by grid distance whose path does not drive
    the automaton into trash, and walk that path to completion."""

    blocked = "every frontier is unreachable or discarded"

    def plan(self, ep, fs: set):
        grid, dfa = ep.grid, ep.dfa
        hops, parents = _grid_shortest_paths(grid, ep.known, ep.cur.cell)
        ranked = sorted(
            (cell for cell in fs if hops.get(cell, 0) > 0),
            key=lambda c: (hops[c], c[1], c[0]),
        )
        for cell in ranked:
            steps = path(parents, cell)
            if dfa.run((grid.letter_at(c) for _, c in steps), ep.cur.dfa_state) == dfa.trash:
                continue  # following this path would violate the task (trash absorbs)
            ep.iterations.append({"frontier": list(cell), "v_max": None, "known": len(ep.known)})
            ep.last_target = cell
            return (
                (action, ProductState(c, dfa.step(ep.cur.dfa_state, grid.letter_at(c))))
                for action, c in steps
            )
        return None


def run_baseline(
    grid: GridMap,
    dfa: TotalDfa,
    cfg: Optional[PlannerConfig] = None,
) -> EpisodeResult:
    """The physical-space method: `NearestPolicy` in the shared loop."""
    return explore(grid, dfa, cfg or PlannerConfig(), NearestPolicy())
