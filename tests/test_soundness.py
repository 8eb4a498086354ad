"""Both methods on hand-written automata that the formula compiler never
produces: Stay can change the automaton state, and moves can enter trash."""

import random

import pytest

from tlfrontier.baseline import run_baseline
from tlfrontier.env import GridMap, load_map
from tlfrontier.planner import SATISFIED, UNSATISFIABLE, PlannerConfig, run_episode

from helpers import STAY_MAP, random_total_dfa, two_consecutive_a

METHODS = {"ours": run_episode, "baseline": run_baseline}


def stutters(dfa) -> bool:
    """True iff reading some letter twice differs from reading it once."""
    return any(
        dfa.step(dfa.step(s, l), l) != dfa.step(s, l)
        for s in dfa.live_states()
        for l in dfa.alphabet.letters()
    )


def enters_trash(dfa) -> bool:
    return any(
        dfa.step(s, l) == dfa.trash for s in dfa.live_states() for l in dfa.alphabet.letters()
    )


def fuzz_cases(n: int, seed: int):
    """`n` (map, automaton, config) triples over {a, b}; every automaton
    stutters and has a transition into trash."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < n:
        dfa = random_total_dfa(rng, max_states=6)
        if dfa.initial == dfa.trash or not stutters(dfa) or not enters_trash(dfa):
            continue
        width, height = rng.randint(3, 6), rng.randint(3, 6)
        cells = [(c, r) for r in range(height) for c in range(width)]
        labels = {cell: rng.choice("ab") for cell in cells if rng.random() < 0.4}
        grid = GridMap(
            width=width,
            height=height,
            start=rng.choice(cells),
            labels=labels,
            alphabet=dfa.alphabet,
            legend={"A": "a", "B": "b"},
        )
        cases.append((grid, dfa, PlannerConfig(h=rng.randint(1, 3))))
    return cases


@pytest.mark.parametrize("method", sorted(METHODS))
def test_stay_finishes_two_consecutive_a(method):
    grid = load_map(STAY_MAP.read_text())
    result = METHODS[method](grid, two_consecutive_a())
    assert result.verdict == SATISFIED
    assert result.actions == ["right", "stay"]


@pytest.mark.parametrize("method", sorted(METHODS))
def test_verdicts_are_sound_on_stuttering_automata(method):
    verdicts = set()
    for grid, dfa, cfg in fuzz_cases(200, seed=11):
        result = METHODS[method](grid, dfa, cfg=cfg)
        verdicts.add(result.verdict)
        assert result.verdict in (SATISFIED, UNSATISFIABLE)
        assert result.word == [grid.letter_at(c) for c in result.trajectory]
        if result.satisfied:
            states = dfa.run_states(result.word)
            assert states[-1] in dfa.accepting
            assert dfa.trash not in states
    assert verdicts == {SATISFIED, UNSATISFIABLE}
