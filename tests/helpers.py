"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import json
import random
from pathlib import Path

from tlfrontier.scltl import (
    TOP,
    And,
    Bottom,
    Eventually,
    NegObs,
    Obs,
    ObservationSet,
    Or,
    Top,
    TotalDfa,
    Until,
    conj,
    disj,
)

MAPS_DIR = Path(__file__).resolve().parent.parent / "maps"
FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"
# A 3x1 corridor `.A.` and an automaton that accepts once two consecutive
# letters carry `a`: the robot must stay on the a cell to finish.
STAY_MAP = FIXTURES_DIR / "stay_corridor.map"
TWO_A_DFA = FIXTURES_DIR / "two_consecutive_a.json"


def two_consecutive_a() -> TotalDfa:
    return TotalDfa.from_json_dict(json.loads(TWO_A_DFA.read_text()))


def random_formula(rng: random.Random, names, depth: int):
    """Random fragment formula built through the canonical constructors,
    mirroring what the parser can produce."""
    if depth <= 0:
        kind = rng.choice(["obs", "obs", "negobs", "top"])
    else:
        kind = rng.choice(["obs", "negobs", "and", "or", "until", "until", "eventually"])
    if kind == "top":
        return TOP
    if kind == "obs":
        return Obs(rng.choice(names))
    if kind == "negobs":
        return NegObs(rng.choice(names))
    lhs = random_formula(rng, names, depth - 1)
    rhs = random_formula(rng, names, depth - 1)
    if kind == "and":
        return conj(lhs, rhs)
    if kind == "or":
        return disj(lhs, rhs)
    if kind == "until":
        return Until(lhs, rhs)
    return Eventually(lhs)


def holds(phi, word, i: int = 0) -> bool:
    """Strong finite semantics of `phi` on `word` from position `i`, read
    off the syntax tree alone: a literal needs a letter at `i`, and `U` /
    `F` need their witness inside the word. Progression, `conj` and `disj`
    are not used, so this is an independent oracle for them."""
    match phi:
        case Top():
            return True
        case Bottom():
            return False
        case Obs(name):
            return i < len(word) and name in word[i]
        case NegObs(name):
            return i < len(word) and name not in word[i]
        case And(parts):
            return all(holds(x, word, i) for x in parts)
        case Or(parts):
            return any(holds(x, word, i) for x in parts)
        case Until(lhs, rhs):
            for j in range(i, len(word)):
                if holds(rhs, word, j):
                    return True
                if not holds(lhs, word, j):
                    return False
            return False
        case Eventually(sub):
            return any(holds(sub, word, j) for j in range(i, len(word)))
    raise TypeError(f"unknown node: {phi!r}")


def some_prefix_holds(phi, word) -> bool:
    """True iff some prefix of `word` (the empty one included) satisfies
    `phi` under `holds`: the good-prefix verdict, without progression."""
    return any(holds(phi, word[:n]) for n in range(len(word) + 1))


def random_word(rng: random.Random, names, max_len: int):
    length = rng.randrange(max_len + 1)
    return [frozenset(n for n in names if rng.random() < 0.4) for _ in range(length)]


def random_total_dfa(rng: random.Random, max_states: int = 5, obs=("a", "b")) -> TotalDfa:
    """Arbitrary total DFA with a designated absorbing trash state."""
    n = rng.randint(2, max_states)
    alphabet = ObservationSet(obs)
    letters = alphabet.letters()
    trash = n - 1
    non_trash = list(range(n - 1))
    accepting = frozenset(s for s in non_trash if rng.random() < 0.4)
    transitions = {}
    for s in non_trash:
        for l in letters:
            transitions[(s, l)] = rng.randrange(n)
    for l in letters:
        transitions[(trash, l)] = trash
    return TotalDfa(
        states=tuple(range(n)),
        initial=rng.randrange(n),
        alphabet=alphabet,
        transitions=transitions,
        accepting=accepting,
        trash=trash,
    )


def witness_lengths(dfa: TotalDfa, max_len: int = 12) -> dict:
    """Word-enumeration oracle for commit detection.

    Breadth-first over words, pruning repeated (run-from-initial,
    run-from-s) state pairs; maps each commit state found to its shortest
    witness length. Witnesses longer than `max_len` may be missed.
    """
    letters = dfa.alphabet.letters()
    found = {}
    for s in dfa.states:
        if s == dfa.trash or s in dfa.accepting:
            continue
        seen = {(dfa.initial, s)}
        frontier = [(dfa.initial, s)]
        # the empty word counts when the initial state is itself accepting
        if dfa.initial in dfa.accepting:
            found[s] = 0
            continue
        for depth in range(1, max_len + 1):
            nxt = []
            hit = False
            for a, b in frontier:
                for l in letters:
                    pair = (dfa.transitions[(a, l)], dfa.transitions[(b, l)])
                    if pair in seen:
                        continue
                    seen.add(pair)
                    if pair[0] in dfa.accepting and pair[1] not in dfa.accepting:
                        hit = True
                    nxt.append(pair)
            if hit:
                found[s] = depth
                break
            frontier = nxt
    return found


def enumerated_commit_states(dfa: TotalDfa, max_len: int = 12) -> set:
    return set(witness_lengths(dfa, max_len))


def distinguishable(dfa: TotalDfa, s1: int, s2: int) -> bool:
    """True iff some word is accepted from exactly one of the two states."""
    letters = dfa.alphabet.letters()
    seen = {(s1, s2)}
    queue = [(s1, s2)]
    while queue:
        a, b = queue.pop()
        if (a in dfa.accepting) != (b in dfa.accepting):
            return True
        for l in letters:
            pair = (dfa.transitions[(a, l)], dfa.transitions[(b, l)])
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return False


def scan_frontier(grid, cells) -> set:
    """Known cells with an unknown in-bounds 4-neighbour, by a full scan."""
    return {
        (c, r)
        for c, r in cells
        if any(
            0 <= c + dc < grid.width and 0 <= r + dr < grid.height and (c + dc, r + dr) not in cells
            for dc, dr in ((0, 1), (0, -1), (1, 0), (-1, 0))
        )
    }


def scan_gain(grid, cell, h, cells) -> int:
    """Unknown cells within `h` hops of `cell`, counted over its bounding box."""
    c0, r0 = cell
    return sum(
        1
        for c in range(max(0, c0 - h), min(grid.width, c0 + h + 1))
        for r in range(max(0, r0 - h), min(grid.height, r0 + h + 1))
        if abs(c - c0) + abs(r - r0) <= h and (c, r) not in cells
    )


def assert_layer_matches_scan(grid, k) -> int:
    """The frontier layer `k` carries equals a full scan of its cells, and
    so does every gain it has cached; returns the number of gains checked."""
    layer = k.layer
    assert layer is not None and layer.grid is grid
    assert layer.cells == scan_frontier(grid, k.cells)
    for cell, gain in layer.gains.items():
        assert gain == scan_gain(grid, cell, layer.gain_h, k.cells), cell
    return len(layer.gains)
