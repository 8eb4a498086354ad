"""Observation sets and the 2^O input alphabet."""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

# A letter is one input symbol: the set of observations seen at a single step.
Letter = frozenset

EMPTY_LETTER: Letter = frozenset()

OBS_NAME = re.compile(r"[a-z][a-z0-9_]*\Z")


class AlphabetError(ValueError):
    """Invalid observation name or malformed observation set."""


def letter(*names: str) -> Letter:
    return frozenset(names)


def letter_key(l: Letter) -> tuple:
    """Canonical sort key for letters: lexicographic on the sorted names."""
    return tuple(sorted(l))


def encode_letter(l: Letter) -> list:
    """Letter as a sorted name list, the wire encoding used everywhere."""
    return sorted(l)


@dataclass(frozen=True)
class ObservationSet:
    """An ordered, duplicate-free collection of observation names.

    Names are stored sorted so that letter encodings and powerset
    enumeration are canonical.
    """

    names: tuple

    def __init__(self, names: Iterable[str]):
        seen = []
        for name in names:
            if not isinstance(name, str) or not OBS_NAME.match(name):
                raise AlphabetError(f"invalid observation name: {name!r}")
            if name in seen:
                raise AlphabetError(f"duplicate observation: {name!r}")
            seen.append(name)
        object.__setattr__(self, "names", tuple(sorted(seen)))

    def __iter__(self) -> Iterator:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def letters(self) -> list:
        """All letters of 2^O in canonical order."""
        out = []
        for r in range(len(self.names) + 1):
            for combo in combinations(self.names, r):
                out.append(frozenset(combo))
        out.sort(key=letter_key)
        return out
