"""Product graph construction and queries."""

import random

import pytest

from tlfrontier.env import ACTIONS, KnownSet, load_map, random_map, sense
from tlfrontier.product import (
    ProductGraph,
    ProductState,
    accepting_reachable,
    expand,
    min_weight_paths,
)
from tlfrontier.scltl import ObservationSet, compile_dfa, parse_formula
from tlfrontier.search import path

from helpers import STAY_MAP, two_consecutive_a

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
    return expand(g, known)


def rescue_dfa():
    al = ObservationSet(["l", "p", "s"])
    return compile_dfa(parse_formula("(!l U (l U (p U ((l | p) U s)))) & F s & (!s U p)", al), al)


def accepting_by_fixpoint(grid, dfa, known, root) -> bool:
    """Whether an accepting state is reachable from `root` over the known
    cells without entering trash, grown to a fixpoint straight from the
    map and the transition table."""
    reached = {(root.cell, root.dfa_state)}
    grew = True
    while grew:
        grew = False
        for cell, s in list(reached):
            for action in ACTIONS:
                nxt = grid.move(cell, action)
                if nxt is None or nxt not in known:
                    continue
                name = grid.labels.get(nxt)
                t = dfa.transitions[(s, frozenset() if name is None else frozenset({name}))]
                if t != dfa.trash and (nxt, t) not in reached:
                    reached.add((nxt, t))
                    grew = True
    return any(s in dfa.accepting for _, s in reached)


class TestExpand:
    def test_empty_known_set_gives_empty_graph(self):
        grid = one_cell_grid()
        dfa = fp_dfa()
        g = rooted(grid, dfa, KnownSet())
        assert set(g.nodes) == set()
        assert g.parents == {}

    def test_single_unlabeled_cell(self):
        grid = one_cell_grid()
        dfa = fp_dfa()
        k = sense(grid, (0, 0), 1, KnownSet())
        g = rooted(grid, dfa, k)
        assert set(g.nodes) == {ProductState((0, 0), dfa.initial)}
        assert g.successors(g.root) == [("stay", g.root)]
        assert not any(g.is_accepting(n) for n in g.nodes)

    def test_repeated_expand_is_noop(self):
        grid = corridor()
        dfa = fp_dfa()
        k = sense(grid, (0, 0), 2, KnownSet())
        g = rooted(grid, dfa, k)
        nodes, parents = dict(g.nodes), dict(g.parents)
        expand(g, k)
        assert g.nodes == nodes
        assert g.parents == parents

    def test_growth_bounded_by_new_cells_times_states(self):
        grid = random_map(20, 3, seed=8)
        dfa = fp_dfa()
        k1 = sense(grid, grid.start, 3, KnownSet())
        g = rooted(grid, dfa, k1)
        n1 = g.node_count()
        k2 = sense(grid, (6, 6), 3, k1)
        added_cells = len(k2) - len(k1)
        expand(g, k2)
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
        assert grid.move(g.root.cell, "right") == (1, 0)
        assert dfa.step(g.root.dfa_state, grid.letter_at((1, 0))) == dfa.trash
        assert [a for a, _ in g.successors(g.root)] == ["stay"]
        assert set(g.nodes) == {g.root}
        assert not accepting_reachable(g)

    def test_monotone_under_expansion(self):
        grid = load_map("map 6 1\nstart 0 0\nlegend P=p\n....P.\n")
        dfa = fp_dfa(("p",))
        k = sense(grid, (0, 0), 2, KnownSet())
        g = rooted(grid, dfa, k)
        assert not accepting_reachable(g)
        k = sense(grid, (2, 0), 2, k)
        expand(g, k)
        assert accepting_reachable(g)
        k = sense(grid, (4, 0), 2, k)
        expand(g, k)
        assert accepting_reachable(g)

    def test_agrees_with_search_from_root(self):
        # acceptance is reachable exactly when a fixpoint over the map and
        # the transition table reaches an accepting state, over partly
        # known maps
        dfa = rescue_dfa()
        rng = random.Random(3)
        outcomes = set()
        for seed in range(40):
            grid = random_map(12, rng.choice([0, 1, 3]), seed=seed)
            k = sense(grid, grid.start, 3, KnownSet())
            for _ in range(rng.randrange(4)):
                k = sense(grid, (rng.randrange(12), rng.randrange(12)), 4, k)
            g = rooted(grid, dfa, k)
            expected = accepting_by_fixpoint(grid, dfa, k, g.root)
            assert accepting_reachable(g) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_fixpoint_oracle_stops_at_trash(self):
        # p lies beyond s, and stepping on s before p enters trash
        grid = load_map("map 3 1\nstart 0 0\nlegend P=p S=s\n.SP\n")
        al = ObservationSet(["p", "s"])
        dfa = compile_dfa(parse_formula("!s U p", al), al)
        k = sense(grid, (0, 0), 3, KnownSet())
        g = rooted(grid, dfa, k)
        assert not accepting_by_fixpoint(grid, dfa, k, g.root)
        assert not accepting_reachable(g)


class TestEdgeCache:
    """A graph reused across `expand` calls answers exactly as a graph
    built afresh on the same known set."""

    @staticmethod
    def assert_same_as_fresh(g, grid, dfa, k):
        fresh = ProductGraph(grid, dfa, g.root)
        expand(fresh, k)
        assert g.nodes == fresh.nodes
        assert g.parents == fresh.parents
        # every node over the known cells, reachable or not, so stale
        # entries of nodes the search does not reach show too
        for cell in sorted(k.cells):
            for s in dfa.states:
                node = ProductState(cell, s)
                assert g.successors(node) == fresh.successors(node), node

    def test_growing_known_set(self):
        dfa = rescue_dfa()
        rng = random.Random(5)
        for seed in range(12):
            size = rng.randrange(10, 13)
            grid = random_map(size, rng.randrange(1, 4), seed=seed, block=3)
            k = sense(grid, grid.start, 1, KnownSet())
            g = rooted(grid, dfa, k)
            self.assert_same_as_fresh(g, grid, dfa, k)
            for _ in range(8):
                cell = (rng.randrange(size), rng.randrange(size))
                k = sense(grid, cell, rng.randrange(1, 3), k)
                if g.nodes and rng.random() < 0.5:
                    g.root = rng.choice(sorted(g.nodes))
                expand(g, k)
                self.assert_same_as_fresh(g, grid, dfa, k)

    def test_shrinking_known_set(self):
        dfa = rescue_dfa()
        grid = random_map(12, 2, seed=4, block=3)
        small = sense(grid, grid.start, 3, KnownSet())
        large = sense(grid, grid.start, 6, small)
        g = rooted(grid, dfa, large)
        self.assert_same_as_fresh(g, grid, dfa, large)
        expand(g, small)
        self.assert_same_as_fresh(g, grid, dfa, small)
        # a known set that neither contains nor is contained in the last
        other = sense(grid, (5, 5), 4, KnownSet())
        expand(g, other)
        self.assert_same_as_fresh(g, grid, dfa, other)


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

    def test_stay_is_never_a_parent_for_compiled_formulas(self):
        # a compiled formula is stutter-invariant and its automaton minimal,
        # so Stay is a self-loop and never discovers a node
        grid = load_map("map 5 1\nstart 0 0\nlegend P=p S=s\n.PSP.\n")
        al = ObservationSet(["p", "s"])
        dfa = compile_dfa(parse_formula("(!s U p) & F s", al), al)
        k = sense(grid, (0, 0), 5, KnownSet())
        g = rooted(grid, dfa, k)
        assert all(("stay", n) in g.successors(n) for n in g.nodes)
        _, parents = min_weight_paths(g, g.root)
        assert all(action != "stay" for _, action in parents.values())

    def test_stay_reaches_nodes_of_a_stuttering_automaton(self):
        # "a a" needs the robot to stay on the a cell: Stay discovers the
        # accepting node, and the search that `accepting_reachable` reads
        # is the one that yields its path
        grid = load_map(STAY_MAP.read_text())
        dfa = two_consecutive_a()
        k = sense(grid, (0, 0), 2, KnownSet())
        g = rooted(grid, dfa, k)
        goal = ProductState((1, 0), 2)
        assert accepting_reachable(g)
        hops, parents = min_weight_paths(g, g.root)
        assert hops[goal] == 2
        assert [a for a, _ in path(parents, goal)] == ["right", "stay"]

    def test_only_the_root_is_a_source(self):
        grid = corridor()
        dfa = fp_dfa()
        k = sense(grid, (0, 0), 3, KnownSet())
        g = rooted(grid, dfa, k)
        with pytest.raises(ValueError):
            min_weight_paths(g, ProductState((1, 0), dfa.initial))

    def test_trash_root_reaches_nothing(self):
        grid = load_map("map 3 1\nstart 0 0\nlegend P=p S=s\nSP.\n")
        al = ObservationSet(["p", "s"])
        dfa = compile_dfa(parse_formula("!s U p", al), al)
        k = sense(grid, (0, 0), 3, KnownSet())
        g = rooted(grid, dfa, k)
        assert g.is_trash(g.root)
        assert g.successors(g.root) == []
        assert min_weight_paths(g, g.root) == ({g.root: 0}, {})

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
            g = expand(ProductGraph(grid, dfa, root), k)
            weights, parents = min_weight_paths(g, root)
            targets = rng.sample(sorted(weights), min(20, len(weights)))
            for node in targets:
                replay = root.dfa_state
                for _, step_node in path(parents, node):
                    replay = dfa.step(replay, grid.letter_at(step_node.cell))
                assert replay == node.dfa_state
