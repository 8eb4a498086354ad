"""Formula AST, canonical simplification, and the progression oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlfrontier.scltl import (
    BOTTOM,
    TOP,
    And,
    Eventually,
    NegObs,
    Obs,
    Or,
    ParseError,
    Until,
    atoms,
    canonical,
    compile_dfa,
    conj,
    disj,
    is_good_prefix,
    parse_formula,
    progress,
)
from tlfrontier.scltl.parser import MAX_DEPTH

from helpers import random_formula

A, B, C = Obs("a"), Obs("b"), Obs("c")
L = frozenset


class TestCanonicalConstructors:
    def test_units(self):
        assert conj(TOP, A) == A
        assert conj(BOTTOM, A) == BOTTOM
        assert disj(TOP, A) == TOP
        assert disj(BOTTOM, A) == A
        assert conj() == TOP
        assert disj() == BOTTOM

    def test_idempotence_and_ordering(self):
        assert conj(A, A) == A
        assert conj(B, A) == conj(A, B)
        assert disj(B, A, B) == disj(A, B)

    def test_flattening(self):
        assert conj(A, conj(B, C)) == conj(conj(A, B), C)

    def test_absorption(self):
        assert conj(A, disj(A, B)) == A
        assert disj(A, conj(A, B)) == A

    def test_canonical_rebuilds_raw_nodes(self):
        raw = Or(And(TOP, A), And(TOP, A))
        assert canonical(raw) == A


class TestObservationSet:
    def test_names_are_sorted_and_unique(self):
        from tlfrontier.scltl import AlphabetError, ObservationSet

        assert ObservationSet(["c", "a", "b"]).names == ("a", "b", "c")
        with pytest.raises(AlphabetError):
            ObservationSet(["a", "a"])
        with pytest.raises(AlphabetError):
            ObservationSet(["Bad"])

    def test_letters_enumerate_the_powerset(self):
        from tlfrontier.scltl import ObservationSet

        letters = ObservationSet(["a", "b"]).letters()
        assert letters == [
            frozenset(),
            frozenset({"a"}),
            frozenset({"a", "b"}),
            frozenset({"b"}),
        ]


class TestParser:
    def test_single_atom(self, abc):
        assert parse_formula("a", abc) == A

    def test_true(self, abc):
        assert parse_formula("true", abc) == TOP

    def test_precedence(self, abc):
        # U binds tighter than &, which binds tighter than |
        assert parse_formula("a U b & c", abc) == conj(Until(A, B), C)
        assert parse_formula("a & b | c", abc) == disj(conj(A, B), C)

    def test_until_right_associative(self, abc):
        assert parse_formula("a U b U c", abc) == Until(A, Until(B, C))

    def test_unary_binds_tightest(self, abc):
        assert parse_formula("F a U b", abc) == Until(Eventually(A), B)
        assert parse_formula("!a U b", abc) == Until(NegObs("a"), B)

    def test_reference_formula(self, abc):
        phi0 = parse_formula("(!b U a) | ((!a U b) & F c)", abc)
        expected = disj(Until(NegObs("b"), A), conj(Until(NegObs("a"), B), Eventually(C)))
        assert phi0 == expected
        assert atoms(phi0) == frozenset({"a", "b", "c"})

    def test_truncated_input(self, abc):
        with pytest.raises(ParseError) as err:
            parse_formula("a U", abc)
        assert err.value.position == 3

    def test_unknown_atom(self, abc):
        with pytest.raises(ParseError, match="unknown observation 'z'"):
            parse_formula("a U z", abc)

    def test_negation_of_non_atom(self, abc):
        with pytest.raises(ParseError, match="observation"):
            parse_formula("!(a & b)", abc)
        with pytest.raises(ParseError):
            parse_formula("!true", abc)

    def test_unsupported_operators_rejected(self, abc):
        with pytest.raises(ParseError, match="next"):
            parse_formula("X a", abc)
        with pytest.raises(ParseError, match="globally"):
            parse_formula("G a", abc)

    def test_trailing_garbage(self, abc):
        with pytest.raises(ParseError):
            parse_formula("a b", abc)

    def test_unbalanced_parens(self, abc):
        with pytest.raises(ParseError):
            parse_formula("(a | b", abc)

    def test_thousand_nested_parens_rejected(self, abc):
        with pytest.raises(ParseError, match="nests deeper"):
            parse_formula("(" * 1000 + "F a" + ")" * 1000, abc)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: "(" * (n - 1) + "F a" + ")" * (n - 1),
            lambda n: "F " * n + "a",
            lambda n: "a U " * n + "b",
            lambda n: "(a U " * (n // 2) + "F " * (n % 2) + "b" + ")" * (n // 2),
        ],
        ids=["parens", "eventually", "until", "until-parens"],
    )
    def test_depth_bound_is_exact(self, abc, make):
        parse_formula(make(MAX_DEPTH), abc)
        with pytest.raises(ParseError, match="nests deeper"):
            parse_formula(make(MAX_DEPTH + 1), abc)

    def test_formula_at_the_depth_bound_compiles(self, abc):
        text = "(" * (MAX_DEPTH - 1) + "F a" + ")" * (MAX_DEPTH - 1)
        dfa = compile_dfa(parse_formula(text, abc), abc)
        assert dfa.accepts([frozenset({"a"})])

    def test_roundtrip_through_str(self, abc):
        rng = random.Random(7)
        for _ in range(300):
            phi = random_formula(rng, ["a", "b", "c"], depth=4)
            assert parse_formula(str(phi), abc) == phi


class TestProgression:
    def test_eventuality_discharged(self):
        assert progress(Eventually(C), L({"c"})) == TOP

    def test_until_falsified(self):
        assert progress(Until(NegObs("b"), A), L({"b"})) == BOTTOM

    def test_until_held_open(self):
        phi = Until(NegObs("b"), A)
        assert progress(phi, L()) == phi

    def test_reference_formula_on_b(self, abc):
        phi0 = parse_formula("(!b U a) | ((!a U b) & F c)", abc)
        # observing b kills the first disjunct and discharges the until,
        # leaving only the eventuality
        assert progress(phi0, L({"b"})) == Eventually(C)
        assert progress(phi0, L({"a"})) == TOP
        assert progress(phi0, L()) == phi0

    def test_top_and_bottom_are_fixed(self):
        assert progress(TOP, L({"a"})) == TOP
        assert progress(BOTTOM, L()) == BOTTOM


class TestGoodPrefix:
    def test_top_accepts_empty(self):
        assert is_good_prefix(TOP, [])

    def test_reference_formula(self, abc):
        phi0 = parse_formula("(!b U a) | ((!a U b) & F c)", abc)
        assert is_good_prefix(phi0, [L({"a"})])
        assert not is_good_prefix(phi0, [L({"b"})])
        assert is_good_prefix(phi0, [L({"b"}), L({"c"})])

    def test_verdict_stable_once_reached(self, abc):
        phi0 = parse_formula("(!b U a) | ((!a U b) & F c)", abc)
        word = [L({"a"}), L({"b"}), L(), L({"b"})]
        assert is_good_prefix(phi0, word)

    @given(st.lists(st.sets(st.sampled_from(["a", "b"])).map(frozenset), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_extension_preserves_goodness(self, word):
        phi = Until(NegObs("b"), A)
        if is_good_prefix(phi, word):
            assert is_good_prefix(phi, word + [frozenset({"b"})])
