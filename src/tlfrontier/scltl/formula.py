"""Syntactically co-safe LTL formulas (Next-free fragment).

The AST mirrors the fragment's grammar: negation is only available on
observations, and the temporal operators are until and eventually.
`progress` implements one-step formula progression, which doubles as the
semantic oracle the automaton compiler is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import Letter


class FormulaError(ValueError):
    """Structurally invalid formula."""


class Formula:
    """Base class; concrete nodes are frozen dataclasses below."""

    def __str__(self) -> str:
        return _fmt(self, 0)


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Obs(Formula):
    name: str


@dataclass(frozen=True)
class NegObs(Formula):
    name: str


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Until(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    sub: Formula


TOP = Top()
BOTTOM = Bottom()

# Printing precedence: | < & < U < unary.
def _fmt(phi: Formula, parent_prec: int) -> str:
    match phi:
        case Top():
            s, p = "true", 4
        case Bottom():
            s, p = "false", 4
        case Obs(name):
            s, p = name, 4
        case NegObs(name):
            s, p = f"!{name}", 4
        case And(l, r):
            s, p = f"{_fmt(l, 2)} & {_fmt(r, 2)}", 2
        case Or(l, r):
            s, p = f"{_fmt(l, 1)} | {_fmt(r, 1)}", 1
        case Until(l, r):
            # right-associative: parenthesize a left-nested until
            s, p = f"{_fmt(l, 4)} U {_fmt(r, 3)}", 3
        case Eventually(sub):
            s, p = f"F {_fmt(sub, 4)}", 4
        case _:
            raise FormulaError(f"unknown node: {phi!r}")
    if p < parent_prec:
        return f"({s})"
    return s


def _flatten(phi: Formula, op: type) -> list:
    if isinstance(phi, op):
        return _flatten(phi.lhs, op) + _flatten(phi.rhs, op)
    return [phi]


def _dnf_terms(phi: Formula) -> frozenset:
    """A formula as a set of conjunctive terms (sets of non-and/or nodes)."""
    if phi == BOTTOM:
        return frozenset()
    if phi == TOP:
        return frozenset({frozenset()})
    return frozenset(
        frozenset(_flatten(d, And)) for d in _flatten(phi, Or)
    )


def _subsume(terms) -> list:
    """Drop every term that is a superset of another (x | (x & y) == x)."""
    kept = []
    for t in sorted(terms, key=lambda t: (len(t), sorted(map(str, t)))):
        if not any(k <= t for k in kept):
            kept.append(t)
    return kept


def _from_terms(terms) -> Formula:
    if not terms:
        return BOTTOM
    if any(not t for t in terms):
        return TOP
    factors = []
    for t in terms:
        parts = sorted(t, key=str)
        node = parts[-1]
        for p in reversed(parts[:-1]):
            node = And(p, node)
        factors.append(node)
    factors.sort(key=str)
    node = factors[-1]
    for f in reversed(factors[:-1]):
        node = Or(f, node)
    return node


def conj(*parts: Formula) -> Formula:
    """Canonical conjunction.

    Boolean structure is kept in disjunctive normal form with subsumed
    terms removed and operands sorted; this generalizes the usual unit,
    idempotence, and absorption rules and, crucially, gives the
    progression closure finitely many distinct states (each one is an
    antichain over the original temporal subformulas).
    """
    terms = {frozenset()}
    for p in parts:
        pt = _dnf_terms(p)
        terms = {a | b for a in terms for b in pt}
        if not terms:
            return BOTTOM
    return _from_terms(_subsume(terms))


def disj(*parts: Formula) -> Formula:
    """Canonical disjunction (see `conj`)."""
    terms = set()
    for p in parts:
        terms |= _dnf_terms(p)
    return _from_terms(_subsume(terms))


def canonical(phi: Formula) -> Formula:
    """Rebuild a formula bottom-up through the canonical constructors;
    `F F x` collapses to `F x`."""
    match phi:
        case Top() | Bottom() | Obs(_) | NegObs(_):
            return phi
        case And(l, r):
            return conj(canonical(l), canonical(r))
        case Or(l, r):
            return disj(canonical(l), canonical(r))
        case Until(l, r):
            return Until(canonical(l), canonical(r))
        case Eventually(sub):
            sub = canonical(sub)
            return sub if isinstance(sub, Eventually) else Eventually(sub)
    raise FormulaError(f"unknown node: {phi!r}")


def atoms(phi: Formula) -> frozenset:
    """Observation names appearing in the formula."""
    match phi:
        case Top() | Bottom():
            return frozenset()
        case Obs(name) | NegObs(name):
            return frozenset({name})
        case And(l, r) | Or(l, r) | Until(l, r):
            return atoms(l) | atoms(r)
        case Eventually(sub):
            return atoms(sub)
    raise FormulaError(f"unknown node: {phi!r}")


def progress(phi: Formula, l: Letter) -> Formula:
    """One-step progression: the obligation that remains after reading `l`.

    Returns TOP when the letter completes the formula and BOTTOM when no
    extension can satisfy it anymore.
    """
    match phi:
        case Top():
            return TOP
        case Bottom():
            return BOTTOM
        case Obs(name):
            return TOP if name in l else BOTTOM
        case NegObs(name):
            return BOTTOM if name in l else TOP
        case And(a, b):
            return conj(progress(a, l), progress(b, l))
        case Or(a, b):
            return disj(progress(a, l), progress(b, l))
        case Until(a, b):
            return disj(progress(b, l), conj(progress(a, l), phi))
        case Eventually(sub):
            return disj(progress(sub, l), phi)
    raise FormulaError(f"unknown node: {phi!r}")


def is_good_prefix(phi: Formula, word) -> bool:
    """True iff iterated progression reaches TOP at or before the last letter.

    Once TOP is reached the verdict is final regardless of any suffix.
    """
    cur = phi
    if cur == TOP:
        return True
    for l in word:
        cur = progress(cur, l)
        if cur == TOP:
            return True
        if cur == BOTTOM:
            return False
    return False
