"""The one graph search the package uses.

Every edge has unit cost, so shortest paths are breadth-first. The search
is level-synchronous and expands each level in ascending node order, so a
node's parent is the smallest node of the previous level that reaches it.
That tie-break makes every result a function of the graph alone.
"""

from __future__ import annotations


def bfs(sources, successors):
    """Breadth-first search from every node of `sources` at once.

    `successors(node)` yields `(label, next)` pairs. Returns `(dist,
    parents)`: `dist` maps each reached node to its hop count from the
    nearest source, `parents` maps each reached non-source node to its
    `(predecessor, label)`.
    """
    dist = dict.fromkeys(sources, 0)
    parents = {}
    level = sorted(dist)
    hops = 0
    while level:
        hops += 1
        nxt_level = []
        for node in level:
            for label, nxt in successors(node):
                if nxt not in dist:
                    dist[nxt] = hops
                    parents[nxt] = (node, label)
                    nxt_level.append(nxt)
        nxt_level.sort()
        level = nxt_level
    return dist, parents


def path(parents, dst) -> list:
    """The `(label, node)` steps that lead from a source to `dst`, the
    source itself excluded; a source yields []."""
    steps = []
    while dst in parents:
        prev, label = parents[dst]
        steps.append((label, dst))
        dst = prev
    steps.reverse()
    return steps
