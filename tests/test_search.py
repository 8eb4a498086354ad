"""The breadth-first search primitive."""

from tlfrontier.search import bfs, path


def graph(edges):
    """A `successors` function over a dict of node -> [(label, next)]."""
    return lambda node: edges.get(node, [])


class TestBfs:
    def test_diamond_parent_is_smallest_predecessor(self):
        # 0 reaches 2 before 1 does, but both sit on level 1: the parent of
        # 3 must be the smaller one, whatever the discovery order
        edges = {0: [("x", 2), ("y", 1)], 1: [("b", 3)], 2: [("a", 3)]}
        dist, parents = bfs([0], graph(edges))
        assert dist == {0: 0, 2: 1, 1: 1, 3: 2}
        assert parents[3] == (1, "b")
        assert path(parents, 3) == [("y", 1), ("b", 3)]

    def test_first_label_wins_between_parallel_edges(self):
        dist, parents = bfs([0], graph({0: [("a", 1), ("b", 1)]}))
        assert dist[1] == 1
        assert parents[1] == (0, "a")

    def test_multi_source_distances(self):
        # a path 0 - 1 - 2 - 3 - 4 - 5 searched from both ends
        edges = {}
        for n in range(6):
            edges[n] = [(d, n + step) for d, step in (("l", -1), ("r", 1)) if 0 <= n + step < 6]
        dist, parents = bfs([5, 0], graph(edges))
        assert dist == {0: 0, 5: 0, 1: 1, 4: 1, 2: 2, 3: 2}
        assert parents[2] == (1, "r")
        assert parents[3] == (4, "l")
        assert 0 not in parents and 5 not in parents

    def test_unreachable_nodes_absent(self):
        dist, parents = bfs([0], graph({0: [("a", 1)], 2: [("a", 0)]}))
        assert set(dist) == {0, 1}
        assert set(parents) == {1}

    def test_no_sources(self):
        assert bfs([], graph({0: [("a", 1)]})) == ({}, {})


class TestPath:
    def test_path_of_a_source_is_empty(self):
        _, parents = bfs([0], graph({0: [("a", 1)]}))
        assert path(parents, 0) == []

    def test_path_follows_parents(self):
        edges = {0: [("a", 1)], 1: [("b", 2)], 2: [("c", 3)]}
        _, parents = bfs([0], graph(edges))
        assert path(parents, 3) == [("a", 1), ("b", 2), ("c", 3)]
