"""The joint state space of robot cell and task progress.

Nodes pair a known cell with an automaton state; an edge exists for every
grid move whose destination is known, with the automaton advanced by the
destination cell's label. Only nodes reachable from the graph's root (the
robot's current product state) are materialized, and trash nodes are kept
as endpoints but never traversed.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .env import ACTIONS, STAY, Cell, GridMap, KnownSet
from .scltl.dfa import TotalDfa
from .search import bfs


class ProductState(NamedTuple):
    cell: Cell
    dfa_state: int


class ProductGraph:
    """Incrementally rebuilt product of the known grid and the automaton."""

    def __init__(self, grid: GridMap, dfa: TotalDfa, root: ProductState):
        self.grid = grid
        self.dfa = dfa
        self.root = root
        self.nodes = set()
        self.edges = {}  # node -> list of (action, successor), Stay included
        self._built_for = None

    def is_trash(self, node: ProductState) -> bool:
        return node.dfa_state == self.dfa.trash

    def is_accepting(self, node: ProductState) -> bool:
        return node.dfa_state in self.dfa.accepting

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return sum(len(v) for v in self.edges.values())


def expand(g: ProductGraph, grid: GridMap, k: KnownSet, dfa: TotalDfa) -> ProductGraph:
    """Rebuild the reachable closure from the current root over the known
    cells. A repeated call with the same root and known set is a no-op;
    under a fixed root the closure only grows as sensing proceeds."""
    key = (g.root, k.cells)
    if g._built_for == key:
        return g
    nodes = set()
    edges = {}
    if g.root.cell in k:
        nodes.add(g.root)
        queue = deque([g.root])
        while queue:
            node = queue.popleft()
            if g.is_trash(node):
                # keep the endpoint but never search past a violation
                edges.setdefault(node, [])
                continue
            out = []
            for action in ACTIONS:
                nxt_cell = grid.move(node.cell, action)
                if nxt_cell is None or nxt_cell not in k:
                    continue
                nxt = ProductState(nxt_cell, dfa.step(node.dfa_state, grid.letter_at(nxt_cell)))
                out.append((action, nxt))
                if nxt not in nodes:
                    nodes.add(nxt)
                    queue.append(nxt)
            edges[node] = out
    g.nodes = nodes
    g.edges = edges
    g._built_for = key
    return g


def accepting_reachable(g: ProductGraph) -> bool:
    """True iff an accepting node can be reached from the root through
    non-trash nodes: `expand` materializes exactly that closure."""
    return not g.dfa.accepting.isdisjoint(node.dfa_state for node in g.nodes)


def min_weight_paths(g: ProductGraph, src: ProductState):
    """Single-source hop counts over non-trash nodes.

    Stay edges are skipped (they never shorten a path). Returns (hops,
    parents) as `search.bfs` does: unreachable nodes are absent, and
    parents map a node to its (predecessor, action).
    """
    if src not in g.nodes:
        raise ValueError(f"unknown source node {src}")
    if g.is_trash(src):
        return {}, {}
    edges = g.edges
    trash = g.dfa.trash

    def successors(node):
        return [(a, nxt) for a, nxt in edges[node] if a != STAY and nxt.dfa_state != trash]

    return bfs([src], successors)
