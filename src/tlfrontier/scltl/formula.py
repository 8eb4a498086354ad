"""Syntactically co-safe LTL formulas (Next-free fragment).

The AST mirrors the fragment's grammar: negation is only available on
observations, and the temporal operators are until and eventually.
`progress` implements one-step formula progression, which doubles as the
semantic oracle the automaton compiler is validated against.

Boolean structure is kept as a set of sets: `And` and `Or` are n-ary over
frozensets. A canonical formula (what `conj`, `disj`, `canonical`,
`progress` and the parser return) is TOP, BOTTOM, one term, or an `Or` of
two or more terms, none a subset of another. A term is one node that is
not `And`, `Or`, TOP or BOTTOM, or an `And` of two or more such nodes.
Equality is therefore set equality, whatever order the sets iterate in;
only printing sorts, by the parts' text.
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
    parts: frozenset


@dataclass(frozen=True)
class Or(Formula):
    parts: frozenset


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
        case And(parts):
            s, p = " & ".join(sorted(_fmt(x, 2) for x in parts)), 2
        case Or(parts):
            s, p = " | ".join(sorted(_fmt(x, 1) for x in parts)), 1
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


def _dnf_terms(phi: Formula) -> frozenset:
    """A canonical formula as a set of conjunctive terms (sets of nodes)."""
    if isinstance(phi, Bottom):
        return frozenset()
    if isinstance(phi, Top):
        return frozenset({frozenset()})
    terms = phi.parts if isinstance(phi, Or) else (phi,)
    return frozenset(t.parts if isinstance(t, And) else frozenset({t}) for t in terms)


def _from_terms(terms) -> Formula:
    """The canonical formula of a set of terms, every term that is a
    superset of another dropped (x | (x & y) == x)."""
    kept = []
    # a term can only be subsumed by a shorter one: equal-length distinct
    # sets are never subsets of each other
    for t in sorted(terms, key=len):
        if not any(k <= t for k in kept):
            kept.append(t)
    if not kept:
        return BOTTOM
    if not kept[0]:
        return TOP
    nodes = [And(t) if len(t) > 1 else next(iter(t)) for t in kept]
    return Or(frozenset(nodes)) if len(nodes) > 1 else nodes[0]


def conj(*parts: Formula) -> Formula:
    """Canonical conjunction.

    Boolean structure is kept in disjunctive normal form, a set of terms
    each a set of nodes, with subsumed terms removed; this generalizes the
    usual unit, idempotence, associativity, commutativity and absorption
    rules and, crucially, gives the progression closure finitely many
    distinct states (each one is an antichain over the original temporal
    subformulas).
    """
    terms = {frozenset()}
    for p in parts:
        pt = _dnf_terms(p)
        terms = {a | b for a in terms for b in pt}
        if not terms:
            return BOTTOM
    return _from_terms(terms)


def disj(*parts: Formula) -> Formula:
    """Canonical disjunction (see `conj`)."""
    terms = set()
    for p in parts:
        terms |= _dnf_terms(p)
    return _from_terms(terms)


def canonical(phi: Formula) -> Formula:
    """Rebuild a formula bottom-up through the canonical constructors;
    `F F x` collapses to `F x`."""
    match phi:
        case Top() | Bottom() | Obs(_) | NegObs(_):
            return phi
        case And(parts):
            return conj(*map(canonical, parts))
        case Or(parts):
            return disj(*map(canonical, parts))
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
        case And(parts) | Or(parts):
            return frozenset().union(*map(atoms, parts))
        case Until(l, r):
            return atoms(l) | atoms(r)
        case Eventually(sub):
            return atoms(sub)
    raise FormulaError(f"unknown node: {phi!r}")


def progress(phi: Formula, l: Letter, memo: dict = None) -> Formula:
    """One-step progression: the obligation that remains after reading `l`.

    Returns TOP when the letter completes the formula and BOTTOM when no
    extension can satisfy it anymore. The result reads only the names of
    `l` that `phi` mentions. A caller that progresses many formulas
    sharing subformulas can pass `memo`, a dict it owns: each until and
    eventually node met is then progressed once per letter and its result
    kept there under `(node, l)`.
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
        case And(parts):
            return conj(*(progress(x, l, memo) for x in parts))
        case Or(parts):
            return disj(*(progress(x, l, memo) for x in parts))
        case Until() | Eventually():
            if memo is None:
                return _unroll(phi, l, memo)
            key = (phi, l)
            out = memo.get(key)
            if out is None:
                out = memo[key] = _unroll(phi, l, memo)
            return out
    raise FormulaError(f"unknown node: {phi!r}")


def _unroll(phi: Formula, l: Letter, memo) -> Formula:
    """Progression of an until or eventually node: `a U b` becomes
    `b' | (a' & (a U b))` and `F b` becomes `b' | F b`, primes marking
    progressed subformulas."""
    if isinstance(phi, Until):
        return disj(progress(phi.rhs, l, memo), conj(progress(phi.lhs, l, memo), phi))
    return disj(progress(phi.sub, l, memo), phi)


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
