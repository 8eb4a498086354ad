"""Total deterministic finite automata over 2^O, with an absorbing trash state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..search import bfs
from .alphabet import Letter, ObservationSet, encode_letter


class DfaError(ValueError):
    """Malformed automaton."""


@dataclass(frozen=True, eq=False)
class TotalDfa:
    """A DFA with a transition for every (state, letter) pair.

    `trash` is absorbing and non-accepting; entering it means no extension
    of the word read so far can be accepted.
    """

    states: tuple
    initial: int
    alphabet: ObservationSet
    transitions: dict  # (state, Letter) -> state
    accepting: frozenset
    trash: int

    def __post_init__(self):
        if not all(type(s) is int for s in self.states):
            raise DfaError("state ids must be integers")
        states = set(self.states)
        if len(states) != len(self.states):
            raise DfaError("duplicate state ids")
        if self.initial not in states:
            raise DfaError("initial state unknown")
        if self.trash not in states:
            raise DfaError("trash state unknown")
        if self.trash in self.accepting:
            raise DfaError("trash state cannot be accepting")
        if not self.accepting <= states:
            raise DfaError("accepting set contains unknown states")
        # counted before 2^|O| letters are built: a wide alphabet cannot pass
        if len(self.transitions) != len(states) * 2 ** len(self.alphabet):
            raise DfaError("transition function is not total over states x 2^O")
        letters = self.alphabet.letters()
        expected = {(s, l) for s in states for l in letters}
        if set(self.transitions) != expected:
            raise DfaError("transition function is not total over states x 2^O")
        for l in letters:
            if self.transitions[(self.trash, l)] != self.trash:
                raise DfaError("trash state must be absorbing")

    def step(self, state: int, l: Letter) -> int:
        return self.transitions[(state, frozenset(l))]

    def run(self, word: Iterable, start: Optional[int] = None) -> int:
        """Final state after reading `word` from `start` (default: initial)."""
        s = self.initial if start is None else start
        for l in word:
            s = self.step(s, l)
        return s

    def run_states(self, word: Iterable, start: Optional[int] = None) -> list:
        """The full visited state sequence, beginning with the start state."""
        s = self.initial if start is None else start
        out = [s]
        for l in word:
            s = self.step(s, l)
            out.append(s)
        return out

    def accepts(self, word: Iterable, start: Optional[int] = None) -> bool:
        return self.run(word, start) in self.accepting

    def live_states(self) -> list:
        """Non-trash states, in id order."""
        return [s for s in self.states if s != self.trash]

    def to_json_dict(self) -> dict:
        transitions = [
            {"from": s, "letter": encode_letter(l), "to": t}
            for (s, l), t in self.transitions.items()
        ]
        transitions.sort(key=lambda e: (e["from"], e["letter"]))
        return {
            "alphabet": list(self.alphabet.names),
            "states": list(self.states),
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "trash": self.trash,
            "transitions": transitions,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TotalDfa":
        try:
            alphabet = ObservationSet(data["alphabet"])
            transitions = {
                (e["from"], frozenset(e["letter"])): e["to"]
                for e in data["transitions"]
            }
            return cls(
                states=tuple(data["states"]),
                initial=data["initial"],
                alphabet=alphabet,
                transitions=transitions,
                accepting=frozenset(data["accepting"]),
                trash=data["trash"],
            )
        except (KeyError, TypeError) as exc:
            raise DfaError(f"malformed automaton document: {exc}") from exc


INFINITE = None  # unreachable marker in pruned hop distances


@dataclass(frozen=True)
class PrunedDistances:
    """Hop distance from each state to acceptance in the pruned automaton.

    The pruned automaton keeps only transitions whose letter demands at
    most one observation; `INFINITE` (None) marks states that cannot reach
    acceptance there.
    """

    distance: dict = field(default_factory=dict)

    def __getitem__(self, state: int):
        return self.distance[state]


def pruned_distances(dfa: TotalDfa) -> PrunedDistances:
    """Backward breadth-first search from the accepting set over transitions
    labeled by letters of size <= 1."""
    preds = {s: set() for s in dfa.states}
    for (s, l), t in dfa.transitions.items():
        if len(l) <= 1:
            preds[t].add(s)
    dist, _ = bfs(dfa.accepting, lambda t: ((None, s) for s in preds[t]))
    return PrunedDistances({s: dist.get(s, INFINITE) for s in dfa.states})


def delta_phi(d: PrunedDistances, s_from: int, s_to: int, cap: Optional[int] = None) -> int:
    """How much closer `s_to` is to acceptance than `s_from`, in pruned hops.

    INFINITE distances are replaced by `cap` (default: the state count), so
    states that are merely unreachable in the pruned automaton are not
    scored like violations.
    """
    if cap is None:
        cap = len(d.distance)
    df = d.distance[s_from]
    dt = d.distance[s_to]
    df = cap if df is INFINITE else min(df, cap)
    dt = cap if dt is INFINITE else min(dt, cap)
    return df - dt
