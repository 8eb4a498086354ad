"""Total DFA structure, serialization, and pruned-hop distances."""

import json

import pytest

from tlfrontier.scltl import (
    INFINITE,
    DfaError,
    ObservationSet,
    TotalDfa,
    compile_dfa,
    delta_phi,
    parse_formula,
    pruned_distances,
)

L = frozenset


def phi0_dfa(abc):
    return compile_dfa(parse_formula("(!b U a) | ((!a U b) & F c)", abc), abc)


def tiny_dfa():
    """Two states over {a}: accept once 'a' has been seen."""
    alphabet = ObservationSet(["a"])
    transitions = {
        (0, L()): 0,
        (0, L({"a"})): 1,
        (1, L()): 1,
        (1, L({"a"})): 1,
        (2, L()): 2,
        (2, L({"a"})): 2,
    }
    return TotalDfa(
        states=(0, 1, 2),
        initial=0,
        alphabet=alphabet,
        transitions=transitions,
        accepting=frozenset({1}),
        trash=2,
    )


class TestValidation:
    def test_partial_transitions_rejected(self):
        alphabet = ObservationSet(["a"])
        with pytest.raises(DfaError, match="total"):
            TotalDfa(
                states=(0, 1),
                initial=0,
                alphabet=alphabet,
                transitions={(0, L()): 0},
                accepting=frozenset(),
                trash=1,
            )

    def test_non_absorbing_trash_rejected(self):
        alphabet = ObservationSet(["a"])
        transitions = {
            (0, L()): 0,
            (0, L({"a"})): 1,
            (1, L()): 0,
            (1, L({"a"})): 1,
        }
        with pytest.raises(DfaError, match="absorbing"):
            TotalDfa(
                states=(0, 1),
                initial=0,
                alphabet=alphabet,
                transitions=transitions,
                accepting=frozenset(),
                trash=1,
            )

    def test_accepting_trash_rejected(self):
        dfa = tiny_dfa()
        with pytest.raises(DfaError, match="trash"):
            TotalDfa(
                states=dfa.states,
                initial=dfa.initial,
                alphabet=dfa.alphabet,
                transitions=dfa.transitions,
                accepting=frozenset({1, 2}),
                trash=2,
            )


class TestRuns:
    def test_run_and_accepts(self):
        dfa = tiny_dfa()
        assert not dfa.accepts([])
        assert dfa.accepts([L({"a"})])
        assert dfa.accepts([L(), L({"a"}), L()])
        assert dfa.run_states([L(), L({"a"})]) == [0, 0, 1]

    def test_altered_start(self):
        dfa = tiny_dfa()
        assert dfa.accepts([], start=1)
        assert not dfa.accepts([L()], start=0)


class TestJsonFormat:
    def test_field_layout(self, abc):
        dfa = phi0_dfa(abc)
        doc = dfa.to_json_dict()
        assert list(doc) == ["alphabet", "states", "initial", "accepting", "trash", "transitions"]
        assert doc["alphabet"] == ["a", "b", "c"]
        edges = doc["transitions"]
        assert edges == sorted(edges, key=lambda e: (e["from"], e["letter"]))
        assert all(e["letter"] == sorted(e["letter"]) for e in edges)

    def test_roundtrip(self, abc):
        dfa = phi0_dfa(abc)
        doc = json.loads(json.dumps(dfa.to_json_dict()))
        back = TotalDfa.from_json_dict(doc)
        assert back.to_json_dict() == dfa.to_json_dict()

    def test_malformed_document(self):
        with pytest.raises(DfaError):
            TotalDfa.from_json_dict({"alphabet": ["a"]})

    @pytest.mark.parametrize("rename", [str, lambda s: s if s else "zero", float])
    def test_state_ids_must_be_integers(self, abc, rename):
        # ids of other types would not order against each other, and the
        # product graph numbers its nodes by the order of the state ids
        doc = phi0_dfa(abc).to_json_dict()
        doc["states"] = [rename(s) for s in doc["states"]]
        for key in ("initial", "trash"):
            doc[key] = rename(doc[key])
        doc["accepting"] = [rename(s) for s in doc["accepting"]]
        for e in doc["transitions"]:
            e["from"], e["to"] = rename(e["from"]), rename(e["to"])
        with pytest.raises(DfaError, match="integers"):
            TotalDfa.from_json_dict(doc)


class TestPrunedDistances:
    def test_reference_formula(self, abc):
        dfa = phi0_dfa(abc)
        d = pruned_distances(dfa)
        acc = next(iter(dfa.accepting))
        commit = dfa.step(dfa.initial, L({"b"}))
        assert d[acc] == 0
        assert d[dfa.initial] == 1
        assert d[commit] == 1
        assert d[dfa.trash] is INFINITE

    def test_accepting_states_are_zero(self, abc):
        dfa = phi0_dfa(abc)
        d = pruned_distances(dfa)
        assert all(d[s] == 0 for s in dfa.accepting)

    def test_finite_distances_decrease_along_some_pruned_edge(self, abc):
        dfa = phi0_dfa(abc)
        d = pruned_distances(dfa)
        small = [l for l in dfa.alphabet.letters() if len(l) <= 1]
        for s in dfa.states:
            dist = d[s]
            if dist is INFINITE or dist == 0:
                continue
            assert any(d[dfa.step(s, l)] == dist - 1 for l in small)

    def test_multi_observation_transitions_are_ignored(self):
        # acceptance only via the two-observation letter {a, b}
        alphabet = ObservationSet(["a", "b"])
        transitions = {}
        for l in alphabet.letters():
            transitions[(0, l)] = 1 if l == L({"a", "b"}) else 0
            transitions[(1, l)] = 1
            transitions[(2, l)] = 2
        dfa = TotalDfa(
            states=(0, 1, 2),
            initial=0,
            alphabet=alphabet,
            transitions=transitions,
            accepting=frozenset({1}),
            trash=2,
        )
        d = pruned_distances(dfa)
        assert d[0] is INFINITE


class TestDeltaPhi:
    def test_identity(self, abc):
        dfa = phi0_dfa(abc)
        d = pruned_distances(dfa)
        for s in dfa.states:
            assert delta_phi(d, s, s) == 0

    def test_reference_values(self, abc):
        dfa = phi0_dfa(abc)
        d = pruned_distances(dfa)
        acc = next(iter(dfa.accepting))
        commit = dfa.step(dfa.initial, L({"b"}))
        assert delta_phi(d, dfa.initial, acc) == 1
        assert delta_phi(d, dfa.initial, commit) == 0

    def test_infinite_capped_by_state_count(self, abc):
        dfa = phi0_dfa(abc)
        d = pruned_distances(dfa)
        cap = len(dfa.states)
        assert delta_phi(d, dfa.trash, dfa.initial) == cap - 1
        assert delta_phi(d, dfa.initial, dfa.trash) == 1 - cap
        assert delta_phi(d, dfa.initial, dfa.trash, cap=3) == 1 - 3

    def test_bounded_by_cap(self, abc):
        dfa = phi0_dfa(abc)
        d = pruned_distances(dfa)
        cap = len(dfa.states)
        for s in dfa.states:
            for t in dfa.states:
                assert -cap <= delta_phi(d, s, t) <= cap
