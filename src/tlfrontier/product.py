"""The joint state space of robot cell and task progress.

Nodes pair a known cell with an automaton state. `successors` defines the
edges: every action, Stay included, into a known cell, with the automaton
advanced by that cell's label, unless the step enters trash. `expand` runs
the one search from the graph's root (the robot's current product state)
over these edges, and every query reads its result: the hop count and
parent of each non-trash node reachable from the root.

A node's edges are computed the first time they are asked for and kept for
the life of the graph. Labels never change, so the edges out of a node on
cell `c` change only when `c` or one of its 4-neighbours becomes known;
`expand` drops exactly those entries for each newly known cell, and drops
them all when the new known set lacks a cell of the old one. Cached edges
share one object per target node, so the cache holds each node once,
however many edges lead to it.
"""

from __future__ import annotations

from typing import NamedTuple

from .env import ACTIONS, Cell, GridMap, KnownSet
from .scltl.dfa import TotalDfa
from .search import bfs


class ProductState(NamedTuple):
    cell: Cell
    dfa_state: int


class ProductGraph:
    """Product of the known grid and the automaton, searched from its root."""

    def __init__(self, grid: GridMap, dfa: TotalDfa, root: ProductState):
        self.grid = grid
        self.dfa = dfa
        self.root = root
        self.known = KnownSet()
        self.nodes = {}  # node -> hops from the root
        self.parents = {}  # node -> (predecessor, action), the root excluded
        self._edges = {}  # node -> successors over `known`, filled lazily
        self._interned = {}  # node -> the one object every cached edge uses for it

    def successors(self, node: ProductState) -> list:
        """The `(action, next)` edges out of `node` over the known cells,
        Stay included; steps into trash are left out. The list is shared
        with later calls and must not be changed."""
        out = self._edges.get(node)
        if out is not None:
            return out
        grid, dfa, known = self.grid, self.dfa, self.known
        out = []
        for action in ACTIONS:
            nxt_cell = grid.move(node.cell, action)
            if nxt_cell is None or nxt_cell not in known:
                continue
            s = dfa.step(node.dfa_state, grid.letter_at(nxt_cell))
            if s != dfa.trash:
                nxt = ProductState(nxt_cell, s)
                out.append((action, self._interned.setdefault(nxt, nxt)))
        self._edges[node] = out
        return out

    def is_trash(self, node: ProductState) -> bool:
        return node.dfa_state == self.dfa.trash

    def is_accepting(self, node: ProductState) -> bool:
        return node.dfa_state in self.dfa.accepting

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return sum(len(self.successors(node)) for node in self.nodes)


def expand(g: ProductGraph, k: KnownSet) -> ProductGraph:
    """Search the product of the graph's grid and automaton over the known
    set `k` from the current root.

    The root is the only trash node ever reached: trash is absorbing, so
    a trash root has no successors. Cached edges stay valid except those
    out of nodes on a newly known cell or on its 4-neighbours.
    """
    if k.cells >= g.known.cells:
        edges, states = g._edges, g.dfa.states
        for cell in k.cells - g.known.cells:
            for c in (cell, *g.grid.neighbors4(cell)):
                for s in states:
                    edges.pop(ProductState(c, s), None)
    else:
        g._edges.clear()
    g.known = k
    if g.root.cell in k:
        g.nodes, g.parents = bfs([g.root], g.successors)
    else:
        g.nodes, g.parents = {}, {}
    return g


def accepting_reachable(g: ProductGraph) -> bool:
    """True iff an accepting node can be reached from the root through
    non-trash nodes."""
    return not g.dfa.accepting.isdisjoint(node.dfa_state for node in g.nodes)


def min_weight_paths(g: ProductGraph, src: ProductState):
    """Hop counts and parents from the root, as `expand` found them.

    Returns `(hops, parents)` as `search.bfs` does: unreachable nodes are
    absent, and parents map a node to its `(predecessor, action)`. Only
    the root is a valid `src`.
    """
    if src != g.root:
        raise ValueError(f"paths are searched from the root {g.root}, not {src}")
    return g.nodes, g.parents
