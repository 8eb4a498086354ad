"""Frontier scoring and the exploration loop."""

import pytest

from tlfrontier.commit import commit_states
from tlfrontier.env import KnownSet, load_map, random_map
from tlfrontier.planner import (
    NEG_INF,
    PlannerConfig,
    ProductPolicy,
    SATISFIED,
    UNSATISFIABLE,
    frontier_value,
    omega,
    run_episode,
)
from tlfrontier.product import ProductGraph, ProductState, expand
from tlfrontier.scltl import ObservationSet, compile_dfa, parse_formula, pruned_distances
from tlfrontier.search import path

from helpers import MAPS_DIR

L = frozenset
RESCUE = "(!l U (l U (p U ((l | p) U s)))) & F s & (!s U p)"


def phi0_setup(abc):
    dfa = compile_dfa(parse_formula("(!b U a) | ((!a U b) & F c)", abc), abc)
    return dfa, commit_states(dfa), pruned_distances(dfa)


class TestPlannerConfig:
    def test_defaults(self):
        cfg = PlannerConfig()
        assert (cfg.alpha1, cfg.alpha2, cfg.alpha3, cfg.h) == (1.0, 20.0, 1.0, 3)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            PlannerConfig(alpha2=0)
        with pytest.raises(ValueError):
            PlannerConfig(h=0)


class TestOmega:
    def test_trash_is_minus_infinity(self, abc):
        dfa, commits, d = phi0_setup(abc)
        assert omega(dfa, commits, d, dfa.initial, dfa.trash, 400, PlannerConfig()) == NEG_INF

    def test_commit_penalty_value(self, abc):
        dfa, commits, d = phi0_setup(abc)
        commit = dfa.step(dfa.initial, L({"b"}))
        assert commit in commits.commit_set
        value = omega(dfa, commits, d, dfa.initial, commit, 400, PlannerConfig())
        assert value == -20.0

    def test_same_state_is_zero(self, abc):
        dfa, commits, d = phi0_setup(abc)
        assert omega(dfa, commits, d, dfa.initial, dfa.initial, 400, PlannerConfig()) == 0.0

    def test_progress_counts_pruned_hops(self, abc):
        dfa, commits, d = phi0_setup(abc)
        acc = next(iter(dfa.accepting))
        assert omega(dfa, commits, d, dfa.initial, acc, 400, PlannerConfig()) == 1.0


def scoring_setup(grid, formula, known):
    dfa = compile_dfa(parse_formula(formula, grid.alphabet), grid.alphabet)
    root = ProductState(grid.start, dfa.step(dfa.initial, grid.letter_at(grid.start)))
    g = expand(ProductGraph(grid, dfa, root), known)
    ctx = ProductPolicy(
        dfa=dfa,
        commits=commit_states(dfa),
        distances=pruned_distances(dfa),
        grid=grid,
        cfg=PlannerConfig(),
    )
    return dfa, g, root, ctx


class TestFrontierValue:
    def test_unit_corridor_value(self):
        # two steps to the frontier, three unknown cells behind it:
        # (1*3 + 20*0) / 2^1 = 1.5
        grid = load_map("map 6 1\nstart 0 0\nlegend P=p\n......\n")
        known = KnownSet(frozenset({(0, 0), (1, 0), (2, 0)}))
        dfa, g, root, ctx = scoring_setup(grid, "F p", known)
        scored = frontier_value(g, root, (2, 0), known, ctx)
        assert scored.value == 1.5
        assert scored.weight == 2
        assert scored.best_end == ProductState((2, 0), dfa.initial)
        assert [a for a, _ in path(g.parents, scored.best_end)] == ["right", "right"]

    def test_commit_only_frontier_scores_negative(self):
        # the only product states over the frontier end in a commit state
        grid = load_map(
            "map 5 1\nstart 0 0\nlegend L=l P=p S=s\n..LL.\n"
        )
        known = KnownSet(frozenset({(0, 0), (1, 0), (2, 0), (3, 0)}))
        dfa, g, root, ctx = scoring_setup(grid, RESCUE, known)
        scored = frontier_value(g, root, (3, 0), known, ctx)
        assert scored.value < 0
        assert scored.value > NEG_INF
        assert scored.best_end.dfa_state in ctx.commits.commit_set

    def test_unreachable_frontier_is_minus_infinity(self):
        # s before p drives the automaton into trash, so every product
        # node over the far frontier is unreachable without violation
        grid = load_map("map 5 1\nstart 0 0\nlegend P=p S=s\n.S...\n")
        known = KnownSet(frozenset({(0, 0), (1, 0), (2, 0)}))
        dfa, g, root, ctx = scoring_setup(grid, "!s U p", known)
        scored = frontier_value(g, root, (2, 0), known, ctx)
        assert scored.value == NEG_INF
        assert scored.best_end is None

    def test_non_frontier_rejected(self):
        grid = load_map("map 6 1\nstart 0 0\nlegend P=p\n......\n")
        known = KnownSet(frozenset({(0, 0), (1, 0), (2, 0)}))
        dfa, g, root, ctx = scoring_setup(grid, "F p", known)
        with pytest.raises(ValueError, match="frontier"):
            frontier_value(g, root, (0, 0), known, ctx)


def empty_5x5(label_row=None):
    rows = ["....." for _ in range(5)]
    if label_row is not None:
        r, text = label_row
        rows[r] = text
    body = "\n".join(rows)
    return load_map(f"map 5 5\nstart 0 0\nlegend L=l P=p S=s\n{body}\n")


class TestRunEpisode:
    def test_single_goal_satisfied(self):
        grid = empty_5x5((4, "....P"))
        al = grid.alphabet
        dfa = compile_dfa(parse_formula("F p", al), al)
        result = run_episode(grid, dfa)
        assert result.verdict == SATISFIED
        assert dfa.accepts(result.word)
        assert result.trajectory[-1] == (4, 4)
        assert result.steps == len(result.actions) == len(result.trajectory) - 1

    def test_no_goal_unsatisfiable_after_full_exploration(self):
        grid = empty_5x5()
        al = grid.alphabet
        dfa = compile_dfa(parse_formula("F p", al), al)
        result = run_episode(grid, dfa)
        assert result.verdict == UNSATISFIABLE
        assert result.diagnostics["reason"] == "no frontiers remain"
        assert result.diagnostics["trace"][-1]["known"] == 25

    def test_word_matches_trajectory_labels(self):
        grid = empty_5x5((2, "..P.."))
        al = grid.alphabet
        dfa = compile_dfa(parse_formula("F p", al), al)
        result = run_episode(grid, dfa)
        assert result.word == [grid.letter_at(c) for c in result.trajectory]

    def test_safety_no_prefix_reaches_trash(self):
        grid = load_map(
            "map 5 5\nstart 0 0\nlegend P=p S=s\n"
            ".....\n.S.S.\n.....\n.S.P.\n.....\n"
        )
        al = grid.alphabet
        dfa = compile_dfa(parse_formula("!s U p", al), al)
        result = run_episode(grid, dfa)
        assert result.verdict == SATISFIED
        states = dfa.run_states(result.word)
        assert dfa.trash not in states

    def test_known_set_grows_every_iteration(self):
        grid = random_map(20, 0, seed=14)
        al = grid.alphabet
        dfa = compile_dfa(parse_formula(RESCUE, al), al)
        result = run_episode(grid, dfa)
        counts = [it["known"] for it in result.diagnostics["iterations"]]
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_commit_avoided_while_safe_frontiers_exist(self):
        grid = load_map(open(MAPS_DIR / "rescue.map").read())
        al = grid.alphabet
        dfa = compile_dfa(parse_formula(RESCUE, al), al)
        commits = commit_states(dfa)
        result = run_episode(grid, dfa, commits)
        assert result.verdict == SATISFIED
        # a selected frontier with non-negative value never ends in a commit
        # state: the commit penalty alone makes values negative
        iterations = result.diagnostics["iterations"]
        assert iterations, "exploration never ran"
        for it in iterations:
            if it["v_max"] >= 0:
                assert it["end_dfa"] not in commits.commit_set

    def test_trace_schema(self):
        grid = empty_5x5((4, "....P"))
        al = grid.alphabet
        dfa = compile_dfa(parse_formula("F p", al), al)
        result = run_episode(grid, dfa)
        trace = result.diagnostics["trace"]
        assert trace[0]["t"] == 0
        assert [e["t"] for e in trace] == list(range(len(result.trajectory)))
        for entry in trace:
            assert set(entry) == {"t", "cell", "dfa", "known", "phase", "frontier", "v_max"}
            assert entry["phase"] in ("explore", "satisfy")
            assert entry["v_max"] == "-inf" or isinstance(entry["v_max"], float)
        assert trace[-1]["phase"] == "satisfy"

    def test_start_on_goal_satisfies_immediately(self):
        grid = load_map("map 3 1\nstart 0 0\nlegend P=p\nP..\n")
        al = grid.alphabet
        dfa = compile_dfa(parse_formula("F p", al), al)
        result = run_episode(grid, dfa)
        assert result.verdict == SATISFIED
        assert result.steps == 0
        assert result.word == [L({"p"})]

    def test_early_abort_when_acceptance_appears_mid_walk(self):
        # a long corridor: the goal is revealed while walking toward the
        # frontier, and the walk is cut short
        grid = load_map("map 12 1\nstart 0 0\nlegend P=p\n" + "." * 10 + "P.\n")
        al = grid.alphabet
        dfa = compile_dfa(parse_formula("F p", al), al)
        result = run_episode(grid, dfa, cfg=PlannerConfig(h=3))
        assert result.verdict == SATISFIED
        assert result.trajectory[-1] == (10, 0)
        # the robot never walks past the goal
        assert all(cell[0] <= 10 for cell in result.trajectory)

    def test_step_cap_guard(self):
        from tlfrontier.planner import StepLimitError

        grid = empty_5x5((4, "....P"))
        al = grid.alphabet
        dfa = compile_dfa(parse_formula("F p", al), al)
        with pytest.raises(StepLimitError):
            run_episode(grid, dfa, cfg=PlannerConfig(step_cap=2))

    def test_undeclared_map_label_rejected(self):
        grid = empty_5x5((4, "....P"))
        al = ObservationSet(["q"])
        dfa = compile_dfa(parse_formula("F q", al), al)
        with pytest.raises(ValueError, match="missing from the automaton alphabet"):
            run_episode(grid, dfa)
