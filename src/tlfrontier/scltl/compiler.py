"""Formula-to-automaton compilation.

States of the raw automaton are canonically simplified progressed formulas:
the formula itself is initial, TOP is accepting, BOTTOM is the sink. They
are numbered in breadth-first discovery order, letters in canonical order.
The raw automaton is then minimized by Moore partition refinement, and
every state that cannot reach acceptance falls into one absorbing trash
state. Live states keep the breadth-first order of their first raw member,
so state 0 is initial and trash is the last id.
"""

from __future__ import annotations

from collections import deque

from ..search import bfs
from .alphabet import ObservationSet
from .dfa import TotalDfa
from .formula import TOP, Formula, atoms, canonical, progress


class StateLimitError(RuntimeError):
    """Progression closure exceeded the configured state budget."""


def compile_dfa(phi: Formula, alphabet: ObservationSet = None, max_states: int = 4096) -> TotalDfa:
    """Compile a formula to a minimized total DFA accepting its good prefixes."""
    if alphabet is None:
        alphabet = ObservationSet(sorted(atoms(phi)))
    else:
        missing = atoms(phi) - set(alphabet.names)
        if missing:
            raise ValueError(f"formula uses observations outside the alphabet: {sorted(missing)}")
    letters = alphabet.letters()

    # 1. progression closure
    root = canonical(phi)
    index = {root: 0}
    delta = {}  # (state, letter) -> state
    queue = deque([root])
    while queue:
        f = queue.popleft()
        src = index[f]
        for l in letters:
            g = progress(f, l)
            if g not in index:
                if len(index) >= max_states:
                    raise StateLimitError(
                        f"more than {max_states} states; the formula is too large"
                    )
                index[g] = len(index)
                queue.append(g)
            delta[(src, l)] = index[g]
    accepting = {index[TOP]} if TOP in index else set()

    # 2. minimize; dead states become the trash state
    return _minimize(len(index), letters, delta, accepting, alphabet)


def _minimize(n: int, letters: list, delta: dict, accepting: set, alphabet) -> TotalDfa:
    """Moore partition refinement of raw states 0..n-1, then the quotient.

    Refinement starts from three blocks: accepting, live non-accepting and
    dead (acceptance unreachable). Each round renames every state, in
    raw-state order, by its block and the blocks of its successors in
    canonical letter order, until the block count stops growing. Dead
    states only reach dead states, so they never split: that block is the
    trash. Live blocks are numbered by their smallest raw state, trash
    last; the closure numbers raw states breadth-first, so live ids are the
    breadth-first discovery order of the quotient.
    """
    preds = [set() for _ in range(n)]
    for (s, _), t in delta.items():
        preds[t].add(s)
    live, _ = bfs(accepting, lambda t: ((None, s) for s in preds[t]))
    block = [2 if s in accepting else 1 if s in live else 0 for s in range(n)]
    count = len(set(block))
    while True:
        names = {}
        block = [
            names.setdefault((block[s], *(block[delta[(s, l)]] for l in letters)), len(names))
            for s in range(n)
        ]
        if len(names) == count:
            break
        count = len(names)

    ids = {}  # live block -> state id
    reps = []  # state id -> the block's first raw state
    for s in range(n):
        if s in live and block[s] not in ids:
            ids[block[s]] = len(reps)
            reps.append(s)
    trash = len(reps)
    transitions = {
        (q, l): ids.get(block[delta[(s, l)]], trash) for q, s in enumerate(reps) for l in letters
    }
    transitions.update(((trash, l), trash) for l in letters)
    return TotalDfa(
        states=tuple(range(trash + 1)),
        initial=0,
        alphabet=alphabet,
        transitions=transitions,
        accepting=frozenset(ids[block[s]] for s in accepting),
        trash=trash,
    )
