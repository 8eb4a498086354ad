"""Commit states: progress that forecloses some way of finishing the task.

A non-trash, non-accepting state s is a commit state when some word the
automaton accepts from its initial state is not accepted from s. Deciding
this reduces to reachability in the automaton's product with itself: the
pair (initial, s) must reach a pair whose first component accepts while the
second does not.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .scltl.alphabet import encode_letter
from .scltl.dfa import TotalDfa
from .search import bfs


@dataclass(frozen=True)
class SelfProduct:
    """The automaton run in parallel with itself, restricted to pairs
    reachable from some initial pair (initial, s)."""

    states: tuple  # reachable (s, s') pairs
    initials: frozenset
    targets: frozenset  # accepting x non-accepting, over reachable pairs
    transitions: dict  # (pair, letter) -> pair


@dataclass(frozen=True)
class CommitReport:
    commit_set: frozenset
    witnesses: dict  # state -> tuple of letters

    def to_json_dict(self) -> dict:
        return {
            "commit_states": sorted(self.commit_set),
            "witnesses": {
                str(s): [encode_letter(l) for l in self.witnesses[s]]
                for s in sorted(self.witnesses)
            },
        }


def _initial_pairs(dfa: TotalDfa) -> list:
    others = [s for s in dfa.states if s != dfa.trash and s not in dfa.accepting]
    return [(dfa.initial, s) for s in others]


def self_product(dfa: TotalDfa) -> SelfProduct:
    """Materialize the pairs reachable from the initial pairs."""
    letters = dfa.alphabet.letters()
    initials = _initial_pairs(dfa)
    seen = set(initials)
    order = list(initials)
    transitions = {}
    queue = deque(initials)
    while queue:
        pair = queue.popleft()
        a, b = pair
        for l in letters:
            nxt = (dfa.transitions[(a, l)], dfa.transitions[(b, l)])
            transitions[(pair, l)] = nxt
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    targets = frozenset(
        (a, b) for (a, b) in seen if a in dfa.accepting and b not in dfa.accepting
    )
    return SelfProduct(
        states=tuple(order),
        initials=frozenset(initials),
        targets=targets,
        transitions=transitions,
    )


def commit_states(dfa: TotalDfa) -> CommitReport:
    """All commit states, each with a shortest witness word.

    One backward breadth-first search from the target pairs answers the
    reachability question for every initial pair at once; witnesses are
    read off by walking distances downhill.
    """
    product = self_product(dfa)
    letters = dfa.alphabet.letters()

    preds = {}
    for (pair, l), nxt in product.transitions.items():
        preds.setdefault(nxt, []).append(pair)
    dist, _ = bfs(product.targets, lambda pair: ((None, prev) for prev in preds.get(pair, ())))

    commits = set()
    witnesses = {}
    for pair in sorted(product.initials):
        if pair not in dist:
            continue
        s = pair[1]
        commits.add(s)
        word = []
        cur = pair
        while dist[cur] > 0:
            for l in letters:
                nxt = product.transitions[(cur, l)]
                if nxt in dist and dist[nxt] == dist[cur] - 1:
                    word.append(l)
                    cur = nxt
                    break
        witnesses[s] = tuple(word)
    return CommitReport(commit_set=frozenset(commits), witnesses=witnesses)


def verify_witness(dfa: TotalDfa, s: int, word) -> bool:
    """Check that `word` is accepted from the initial state but not from `s`."""
    if s not in set(dfa.states):
        raise ValueError(f"unknown state {s!r}")
    return dfa.accepts(word) and not dfa.accepts(word, start=s)
