"""The joint state space of robot cell and task progress.

Nodes pair a known cell with an automaton state. `successors` defines the
edges: every action, Stay included, into a known cell, with the automaton
advanced by that cell's label, unless the step enters trash. `expand` runs
the one search from the graph's root (the robot's current product state)
over these edges, and every query reads its result: the hop count and
parent of each non-trash node reachable from the root.

Inside the graph a node is an int, `(c * height + r) * |Q| + rank(q)` for
cell `(c, r)` and automaton state `q`, where `rank` orders the automaton's
states by id. Cells are numbered column by column so that the order of
ids is the order of the `ProductState`s they stand for: the search breaks
ties by the smallest id, and so picks the parents it picked over
`ProductState`s. `node_id` and `state` convert at the boundary, where
paths are executed, traced and dumped.

A node's edges are computed the first time they are asked for and kept for
the life of the graph. Labels never change, so the edges out of a node on
cell `c` change only when `c` or one of its 4-neighbours becomes known;
`expand` drops exactly those entries for each newly known cell, and drops
them all when the new known set lacks a cell of the old one.
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
        self.states = tuple(sorted(dfa.states))  # rank -> automaton state
        self._rank = {s: i for i, s in enumerate(self.states)}
        self._accepting = frozenset(self._rank[s] for s in dfa.accepting)
        self.root = self.node_id(root)
        self.known = KnownSet()
        self.nodes = {}  # node id -> hops from the root
        self.parents = {}  # node id -> (predecessor, action), the root excluded
        self._edges = {}  # node id -> successors over `known`, filled lazily

    def node_id(self, state: ProductState) -> int:
        (c, r), s = state
        return (c * self.grid.height + r) * len(self.states) + self._rank[s]

    def cell_nodes(self, cell: Cell) -> range:
        """The ids of the nodes on `cell`, one per automaton state by rank."""
        first = self.node_id((cell, self.states[0]))
        return range(first, first + len(self.states))

    def state(self, node: int) -> ProductState:
        cell, rank = divmod(node, len(self.states))
        return ProductState(divmod(cell, self.grid.height), self.states[rank])

    def successors(self, node: int) -> list:
        """The `(action, next)` edges out of `node` over the known cells,
        Stay included; steps into trash are left out. The list is shared
        with later calls and must not be changed."""
        out = self._edges.get(node)
        if out is not None:
            return out
        grid, dfa, known = self.grid, self.dfa, self.known
        cell, q = self.state(node)
        out = []
        for action in ACTIONS:
            nxt = grid.move(cell, action)
            if nxt is None or nxt not in known:
                continue
            s = dfa.step(q, grid.letter_at(nxt))
            if s != dfa.trash:
                out.append((action, self.node_id((nxt, s))))
        self._edges[node] = out
        return out

    def is_trash(self, node: int) -> bool:
        return self.states[node % len(self.states)] == self.dfa.trash

    def is_accepting(self, node: int) -> bool:
        return node % len(self.states) in self._accepting

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
        edges = g._edges
        for cell in k.cells - g.known.cells:
            for c in (cell, *g.grid.neighbors4(cell)):
                for node in g.cell_nodes(c):
                    edges.pop(node, None)
    else:
        g._edges.clear()
    g.known = k
    if g.state(g.root).cell in k:
        g.nodes, g.parents = bfs([g.root], g.successors)
    else:
        g.nodes, g.parents = {}, {}
    return g


def accepting_reachable(g: ProductGraph) -> bool:
    """True iff an accepting node can be reached from the root through
    non-trash nodes."""
    n_states = len(g.states)
    return not g._accepting.isdisjoint(node % n_states for node in g.nodes)


def min_weight_paths(g: ProductGraph, src: int):
    """Hop counts and parents from the root, as `expand` found them.

    Returns `(hops, parents)` over node ids as `search.bfs` does:
    unreachable nodes are absent, and parents map a node to its
    `(predecessor, action)`. Only the root is a valid `src`.
    """
    if src != g.root:
        raise ValueError(f"paths are searched from the root {g.root}, not {src}")
    return g.nodes, g.parents
