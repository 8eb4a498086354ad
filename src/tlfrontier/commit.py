"""Commit states: progress that forecloses some way of finishing the task.

A non-trash, non-accepting state s is a commit state when some word the
automaton accepts from its initial state is not accepted from s. Deciding
this reduces to reachability in the automaton's product with itself: the
pair (initial, s) must reach a pair whose first component accepts while the
second does not.

The product keeps each reachable pair's successors once, as a tuple in
canonical letter order zipped from the two states' rows of the transition
table; letters are only named again when a witness word is read off.
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
    successors: dict  # pair -> successor pairs, in canonical letter order


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
    rows = {s: tuple(dfa.transitions[(s, l)] for l in letters) for s in dfa.states}
    initials = _initial_pairs(dfa)
    # every reached pair is one shared object, so the successor tuples hold
    # pairs x 2^|O| references rather than as many fresh 2-tuples
    seen = {pair: pair for pair in initials}
    successors = {}
    queue = deque(initials)
    while queue:
        pair = queue.popleft()
        a, b = pair
        for nxt in dict.fromkeys(zip(rows[a], rows[b])):
            if nxt not in seen:
                seen[nxt] = nxt
                queue.append(nxt)
        successors[pair] = tuple(map(seen.__getitem__, zip(rows[a], rows[b])))
    targets = frozenset(
        (a, b) for (a, b) in seen if a in dfa.accepting and b not in dfa.accepting
    )
    return SelfProduct(
        states=tuple(successors),
        initials=frozenset(initials),
        targets=targets,
        successors=successors,
    )


def commit_states(dfa: TotalDfa) -> CommitReport:
    """All commit states, each with a shortest witness word.

    One backward breadth-first search from the target pairs, over each
    pair's distinct predecessors, answers the reachability question for
    every initial pair at once; witnesses are read off by walking distances
    downhill, taking the first letter in canonical order at each step.
    """
    product = self_product(dfa)
    letters = dfa.alphabet.letters()

    preds = {}
    for pair, succ in product.successors.items():
        for nxt in set(succ):
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
            downhill = dist[cur] - 1
            for l, nxt in zip(letters, product.successors[cur]):
                if dist.get(nxt) == downhill:
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
