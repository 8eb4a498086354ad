"""Product graph construction and queries."""

import random

from tlfrontier.env import KnownSet, load_map, random_map, sense
from tlfrontier.product import (
    ProductGraph,
    ProductState,
    accepting_reachable,
    expand,
    min_weight_paths,
)
from tlfrontier.scltl import ObservationSet, compile_dfa, parse_formula
from tlfrontier.search import path

L = frozenset


def fp_dfa(alphabet=("l", "p", "s")):
    al = ObservationSet(alphabet)
    return compile_dfa(parse_formula("F p", al), al)


def one_cell_grid():
    return load_map("map 1 1\nstart 0 0\nlegend L=l P=p S=s\n.\n")


def corridor(n=6):
    return load_map(f"map {n} 1\nstart 0 0\nlegend L=l P=p S=s\n{'.' * n}\n")


def rooted(grid, dfa, known):
    root = ProductState(grid.start, dfa.step(dfa.initial, grid.letter_at(grid.start)))
    g = ProductGraph(grid, dfa, root)
    return expand(g, grid, known, dfa)


class TestExpand:
    def test_empty_known_set_gives_empty_graph(self):
        grid = one_cell_grid()
        dfa = fp_dfa()
        g = rooted(grid, dfa, KnownSet())
        assert g.nodes == set()

    def test_single_unlabeled_cell(self):
        grid = one_cell_grid()
        dfa = fp_dfa()
        k = sense(grid, (0, 0), 1, KnownSet())
        g = rooted(grid, dfa, k)
        assert g.nodes == {ProductState((0, 0), dfa.initial)}
        assert g.edges[g.root] == [("stay", g.root)]
        assert not any(g.is_accepting(n) for n in g.nodes)

    def test_repeated_expand_is_noop(self):
        grid = corridor()
        dfa = fp_dfa()
        k = sense(grid, (0, 0), 2, KnownSet())
        g = rooted(grid, dfa, k)
        nodes = set(g.nodes)
        expand(g, grid, k, dfa)
        assert g.nodes == nodes

    def test_growth_bounded_by_new_cells_times_states(self):
        grid = random_map(20, 3, seed=8)
        dfa = fp_dfa()
        k1 = sense(grid, grid.start, 3, KnownSet())
        g = rooted(grid, dfa, k1)
        n1 = g.node_count()
        k2 = sense(grid, (6, 6), 3, k1)
        added_cells = len(k2) - len(k1)
        expand(g, grid, k2, dfa)
        assert g.node_count() - n1 <= added_cells * len(dfa.states)

    def test_nodes_are_over_known_cells_only(self):
        grid = random_map(20, 3, seed=9)
        dfa = fp_dfa()
        k = sense(grid, grid.start, 3, KnownSet())
        g = rooted(grid, dfa, k)
        assert all(node.cell in k for node in g.nodes)


class TestAcceptingReachable:
    def test_accepting_node_is_reachable_from_itself(self):
        grid = load_map("map 2 1\nstart 0 0\nlegend P=p\n.P\n")
        dfa = fp_dfa(("p",))
        k = sense(grid, (0, 0), 2, KnownSet())
        g = rooted(grid, dfa, k)
        acc = ProductState((1, 0), dfa.step(dfa.initial, L({"p"})))
        assert g.is_accepting(acc)
        assert acc in g.nodes
        assert accepting_reachable(g)

    def test_unlabeled_region_cannot_accept(self):
        grid = corridor()
        dfa = fp_dfa()
        k = sense(grid, (0, 0), 2, KnownSet())
        g = rooted(grid, dfa, k)
        assert not accepting_reachable(g)

    def test_false_when_every_exit_enters_trash(self):
        # the only move from the start lands on s, which violates (!s U p)
        grid = load_map("map 2 1\nstart 0 0\nlegend P=p S=s\n.S\n")
        al = ObservationSet(["p", "s"])
        dfa = compile_dfa(parse_formula("!s U p", al), al)
        k = sense(grid, (0, 0), 2, KnownSet())
        g = rooted(grid, dfa, k)
        assert all(
            g.is_trash(nxt) for a, nxt in g.edges[g.root] if a != "stay"
        )
        assert not accepting_reachable(g)

    def test_monotone_under_expansion(self):
        grid = load_map("map 6 1\nstart 0 0\nlegend P=p\n....P.\n")
        dfa = fp_dfa(("p",))
        k = sense(grid, (0, 0), 2, KnownSet())
        g = rooted(grid, dfa, k)
        assert not accepting_reachable(g)
        k = sense(grid, (2, 0), 2, k)
        expand(g, grid, k, dfa)
        assert accepting_reachable(g)
        k = sense(grid, (4, 0), 2, k)
        expand(g, grid, k, dfa)
        assert accepting_reachable(g)

    def test_agrees_with_search_from_root(self):
        # acceptance is reachable exactly when some accepting node is
        # settled by the search from the root, over partly known maps
        al = ObservationSet(["l", "p", "s"])
        dfa = compile_dfa(parse_formula("(!l U (l U (p U ((l | p) U s)))) & F s & (!s U p)", al), al)
        rng = random.Random(3)
        outcomes = set()
        for seed in range(40):
            grid = random_map(12, rng.choice([0, 1, 3]), seed=seed)
            k = sense(grid, grid.start, 3, KnownSet())
            for _ in range(rng.randrange(4)):
                k = sense(grid, (rng.randrange(12), rng.randrange(12)), 4, k)
            g = rooted(grid, dfa, k)
            hops, _ = min_weight_paths(g, g.root)
            expected = any(g.is_accepting(n) for n in hops)
            assert accepting_reachable(g) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}


class TestMinWeightPaths:
    def test_source_weight_zero(self):
        grid = corridor()
        dfa = fp_dfa()
        k = sense(grid, (0, 0), 3, KnownSet())
        g = rooted(grid, dfa, k)
        weights, _ = min_weight_paths(g, g.root)
        assert weights[g.root] == 0

    def test_unit_corridor_distance(self):
        grid = corridor(6)
        dfa = fp_dfa()
        k = sense(grid, (0, 0), 5, KnownSet())
        g = rooted(grid, dfa, k)
        weights, parents = min_weight_paths(g, g.root)
        far = ProductState((5, 0), dfa.initial)
        assert weights[far] == 5
        assert [a for a, _ in path(parents, far)] == ["right"] * 5

    def test_crossing_label_advances_dfa_state(self):
        grid = load_map("map 5 1\nstart 0 0\nlegend P=p\n..P..\n")
        dfa = fp_dfa(("p",))
        k = sense(grid, (0, 0), 5, KnownSet())
        g = rooted(grid, dfa, k)
        weights, parents = min_weight_paths(g, g.root)
        end_states = [n for n in weights if n.cell == (4, 0)]
        assert len(end_states) == 1
        end = end_states[0]
        assert end.dfa_state in dfa.accepting
        replay = dfa.step(dfa.initial, grid.letter_at((0, 0)))
        for _, node in path(parents, end):
            replay = dfa.step(replay, grid.letter_at(node.cell))
            assert replay == node.dfa_state

    def test_stay_edges_not_searched(self):
        grid = corridor()
        dfa = fp_dfa()
        k = sense(grid, (0, 0), 5, KnownSet())
        g = rooted(grid, dfa, k)
        _, parents = min_weight_paths(g, g.root)
        assert all(action != "stay" for _, action in parents.values())

    def test_paths_avoid_trash(self):
        # stepping on s before p violates the task
        grid = load_map("map 5 1\nstart 0 0\nlegend P=p S=s\n.S..P\n")
        al = ObservationSet(["p", "s"])
        dfa = compile_dfa(parse_formula("!s U p", al), al)
        k = sense(grid, (0, 0), 5, KnownSet())
        g = rooted(grid, dfa, k)
        weights, parents = min_weight_paths(g, g.root)
        for node in weights:
            assert not g.is_trash(node)
        # the p cell lies beyond the s cell, so it is unreachable safely
        assert not any(n.cell == (4, 0) for n in weights)


class TestWordConsistency:
    def test_replay_along_random_paths(self):
        rng = random.Random(77)
        al = ObservationSet(["l", "p", "s"])
        dfa = compile_dfa(parse_formula("(!s U p) & F s", al), al)
        for seed in range(10):
            grid = random_map(12, 1, seed=seed)
            k = sense(grid, grid.start, 3, KnownSet())
            k = sense(grid, (6, 6), 4, k)
            root = ProductState(grid.start, dfa.step(dfa.initial, grid.letter_at(grid.start)))
            g = expand(ProductGraph(grid, dfa, root), grid, k, dfa)
            weights, parents = min_weight_paths(g, root)
            targets = rng.sample(sorted(weights), min(20, len(weights)))
            for node in targets:
                replay = root.dfa_state
                for _, step_node in path(parents, node):
                    replay = dfa.step(replay, grid.letter_at(step_node.cell))
                assert replay == node.dfa_state
