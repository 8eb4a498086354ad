"""Formula-to-automaton compilation.

States of the raw automaton are canonically simplified progressed formulas:
the formula itself is initial, TOP is accepting, BOTTOM is the sink. They
are numbered in breadth-first discovery order, letters in canonical order.
A state's successor depends only on the observations it mentions, so each
state is progressed once per distinct restriction `l & atoms(f)` of the
letters, and every letter with that restriction shares the result. One
memo, local to the call, keeps each until and eventually subformula's
progression per restricted letter across all states.

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
    """The alphabet's letters or the progression closure's states exceed
    the state budget."""


def compile_dfa(phi: Formula, alphabet: ObservationSet = None, max_states: int = 4096) -> TotalDfa:
    """Compile a formula to a minimized total DFA accepting its good prefixes."""
    if alphabet is None:
        alphabet = ObservationSet(sorted(atoms(phi)))
    else:
        missing = atoms(phi) - set(alphabet.names)
        if missing:
            raise ValueError(f"formula uses observations outside the alphabet: {sorted(missing)}")
    # the letters are built below; an alphabet too wide to list stops here
    if 2 ** len(alphabet) > max_states:
        raise StateLimitError(
            f"{len(alphabet)} observations make more than {max_states} letters; the alphabet is too large"
        )
    letters = alphabet.letters()

    # 1. progression closure, one row of successors per state in letter order
    root = canonical(phi)
    index = {root: 0}
    rows = []
    memo = {}
    queue = deque([root])
    while queue:
        f = queue.popleft()
        used = atoms(f)
        by_restriction = {}  # l & atoms(f) -> successor id
        row = []
        for l in letters:
            r = l & used
            t = by_restriction.get(r)
            if t is None:
                g = progress(f, r, memo)
                t = index.get(g)
                if t is None:
                    if len(index) >= max_states:
                        raise StateLimitError(
                            f"more than {max_states} states; the formula is too large"
                        )
                    t = index[g] = len(index)
                    queue.append(g)
                by_restriction[r] = t
            row.append(t)
        rows.append(row)
    accepting = {index[TOP]} if TOP in index else set()

    # 2. minimize; dead states become the trash state
    return _minimize(rows, letters, accepting, alphabet)


def _minimize(rows: list, letters: list, accepting: set, alphabet) -> TotalDfa:
    """Moore partition refinement of raw states 0..n-1, then the quotient.

    `rows[s]` lists the successors of raw state s in canonical letter
    order. Refinement starts from three blocks: accepting, live
    non-accepting and dead (acceptance unreachable). Each round renames
    every state, in raw-state order, by its block and the blocks of its
    successors in letter order, until the block count stops growing. Dead
    states only reach dead states, so they never split: that block is the
    trash. Live blocks are numbered by their smallest raw state, trash
    last; the closure numbers raw states breadth-first, so live ids are the
    breadth-first discovery order of the quotient.
    """
    n = len(rows)
    preds = [set() for _ in range(n)]
    for s, row in enumerate(rows):
        for t in set(row):
            preds[t].add(s)
    live, _ = bfs(accepting, lambda t: ((None, s) for s in preds[t]))
    block = [2 if s in accepting else 1 if s in live else 0 for s in range(n)]
    count = len(set(block))
    while True:
        names = {}
        block = [
            names.setdefault((block[s], *map(block.__getitem__, rows[s])), len(names))
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
        (q, l): ids.get(block[t], trash) for q, s in enumerate(reps) for l, t in zip(letters, rows[s])
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
