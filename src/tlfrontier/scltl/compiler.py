"""Formula-to-automaton compilation.

States of the raw automaton are canonically simplified progressed formulas:
the formula itself is initial, TOP is accepting, BOTTOM is the sink. The
raw automaton is then minimized (Hopcroft) and every state that cannot
reach acceptance is collapsed into a single absorbing trash state.
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
    order = [root]
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
                index[g] = len(order)
                order.append(g)
                queue.append(g)
            delta[(src, l)] = index[g]
    accepting = {index[TOP]} if TOP in index else set()

    # 2. minimize, 3. collapse dead classes into one absorbing trash state
    n = len(order)
    partition = _hopcroft(n, letters, delta, accepting)
    return _quotient(n, letters, delta, accepting, partition, alphabet)


def _hopcroft(n: int, letters: list, delta: dict, accepting: set) -> list:
    """Partition states 0..n-1 into language-equivalence classes."""
    preds = {(s, l): set() for s in range(n) for l in letters}
    for (s, l), t in delta.items():
        preds[(t, l)].add(s)

    all_states = frozenset(range(n))
    acc = frozenset(accepting)
    non_acc = all_states - acc
    partition = {b for b in (acc, non_acc) if b}
    work = set()
    if acc and non_acc:
        work.add(acc if len(acc) <= len(non_acc) else non_acc)

    while work:
        splitter = work.pop()
        for l in letters:
            pre = set()
            for t in splitter:
                pre |= preds[(t, l)]
            if not pre:
                continue
            for block in list(partition):
                inside = block & pre
                outside = block - pre
                if not inside or not outside:
                    continue
                partition.remove(block)
                partition.add(frozenset(inside))
                partition.add(frozenset(outside))
                if block in work:
                    work.remove(block)
                    work.add(frozenset(inside))
                    work.add(frozenset(outside))
                else:
                    # queue the smaller half; keeps the refinement near n log n
                    work.add(frozenset(inside if len(inside) <= len(outside) else outside))
    return sorted(partition, key=min)


def _quotient(n, letters, delta, accepting, partition, alphabet) -> TotalDfa:
    block_of = {}
    for b, block in enumerate(partition):
        for s in block:
            block_of[s] = b
    n_blocks = len(partition)
    rep = {b: min(block) for b, block in enumerate(partition)}
    qdelta = {
        (b, l): block_of[delta[(rep[b], l)]] for b in range(n_blocks) for l in letters
    }
    qacc = {block_of[s] for s in accepting}
    qinit = block_of[0]

    # live = classes from which acceptance is reachable
    preds = {b: set() for b in range(n_blocks)}
    for (b, l), t in qdelta.items():
        preds[t].add(b)
    live, _ = bfs(qacc, lambda t: ((None, s) for s in preds[t]))

    if not qacc or qinit not in live:
        # empty language: a single absorbing trash state is the whole automaton
        transitions = {(0, l): 0 for l in letters}
        return TotalDfa(
            states=(0,),
            initial=0,
            alphabet=alphabet,
            transitions=transitions,
            accepting=frozenset(),
            trash=0,
        )

    # renumber live classes by breadth-first discovery; trash comes last
    numbering = {qinit: 0}
    queue = deque([qinit])
    while queue:
        b = queue.popleft()
        for l in letters:
            t = qdelta[(b, l)]
            if t in live and t not in numbering:
                numbering[t] = len(numbering)
                queue.append(t)
    trash_id = len(numbering)

    transitions = {}
    for b, sid in numbering.items():
        for l in letters:
            t = qdelta[(b, l)]
            transitions[(sid, l)] = numbering[t] if t in live else trash_id
    for l in letters:
        transitions[(trash_id, l)] = trash_id

    return TotalDfa(
        states=tuple(range(trash_id + 1)),
        initial=0,
        alphabet=alphabet,
        transitions=transitions,
        accepting=frozenset(numbering[b] for b in qacc),
        trash=trash_id,
    )
