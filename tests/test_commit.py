"""Commit-state detection against the word-enumeration oracle."""

import random

import pytest

from tlfrontier.commit import commit_states, self_product, verify_witness
from tlfrontier.scltl import ObservationSet, compile_dfa, parse_formula

from helpers import enumerated_commit_states, random_total_dfa, witness_lengths

L = frozenset


def phi0_dfa(abc):
    return compile_dfa(parse_formula("(!b U a) | ((!a U b) & F c)", abc), abc)


class TestSelfProduct:
    def test_accepting_only_dfa_has_no_initial_pairs(self):
        # no non-trash, non-accepting state exists to pair the initial with
        dfa = compile_dfa(parse_formula("true", ObservationSet(["a"])), ObservationSet(["a"]))
        prod = self_product(dfa)
        assert prod.initials == frozenset()
        assert commit_states(dfa).commit_set == frozenset()

    def test_reference_formula_reachability(self, abc):
        dfa = phi0_dfa(abc)
        commit = dfa.step(dfa.initial, L({"b"}))
        regular = dfa.step(dfa.initial, L({"c"}))
        prod = self_product(dfa)

        def reaches_target(pair):
            seen = {pair}
            stack = [pair]
            while stack:
                cur = stack.pop()
                if cur in prod.targets:
                    return True
                for nxt in prod.successors[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return False

        assert reaches_target((dfa.initial, commit))
        assert not reaches_target((dfa.initial, regular))

    def test_pair_count_bound(self, abc):
        dfa = phi0_dfa(abc)
        prod = self_product(dfa)
        assert len(prod.states) <= len(dfa.states) ** 2

    def test_successors_follow_canonical_letter_order(self):
        rng = random.Random(9)
        for _ in range(100):
            dfa = random_total_dfa(rng, max_states=6, obs=("a", "b", "c"))
            prod = self_product(dfa)
            letters = dfa.alphabet.letters()
            assert list(prod.successors) == list(prod.states)
            for (a, b), succ in prod.successors.items():
                assert len(succ) == len(letters)
                for i, l in enumerate(letters):
                    assert succ[i] == (dfa.step(a, l), dfa.step(b, l))
                    assert succ[i] in prod.successors  # closed under successors


class TestCommitStates:
    def test_reference_formula(self, abc):
        dfa = phi0_dfa(abc)
        report = commit_states(dfa)
        commit = dfa.step(dfa.initial, L({"b"}))
        assert report.commit_set == frozenset({commit})
        assert report.witnesses[commit] == (L({"a"}),)

    def test_eventually_has_no_commit_states(self):
        alphabet = ObservationSet(["a"])
        dfa = compile_dfa(parse_formula("F a", alphabet), alphabet)
        assert commit_states(dfa).commit_set == frozenset()
        assert enumerated_commit_states(dfa, max_len=4) == set()

    def test_excludes_accepting_and_trash(self, abc):
        rng = random.Random(5)
        for _ in range(50):
            dfa = random_total_dfa(rng)
            report = commit_states(dfa)
            assert dfa.trash not in report.commit_set
            assert not (report.commit_set & dfa.accepting)

    def test_report_json_shape(self, abc):
        dfa = phi0_dfa(abc)
        doc = commit_states(dfa).to_json_dict()
        commit = dfa.step(dfa.initial, L({"b"}))
        assert doc == {"commit_states": [commit], "witnesses": {str(commit): [["a"]]}}


class TestVerifyWitness:
    def test_reference_witness(self, abc):
        dfa = phi0_dfa(abc)
        commit = dfa.step(dfa.initial, L({"b"}))
        assert verify_witness(dfa, commit, [L({"a"})])

    def test_word_accepted_from_both_is_no_witness(self, abc):
        dfa = phi0_dfa(abc)
        commit = dfa.step(dfa.initial, L({"b"}))
        assert not verify_witness(dfa, commit, [L({"b"}), L({"c"})])

    def test_initial_state_never_has_witnesses(self, abc):
        dfa = phi0_dfa(abc)
        for word in ([], [L({"a"})], [L({"b"}), L({"c"})]):
            assert not verify_witness(dfa, dfa.initial, word)

    def test_unknown_state(self, abc):
        dfa = phi0_dfa(abc)
        with pytest.raises(ValueError):
            verify_witness(dfa, 99, [])


class TestOracleAgreement:
    def test_random_dfas_match_enumeration(self):
        rng = random.Random(321)
        for _ in range(250):
            dfa = random_total_dfa(rng, max_states=5, obs=("a", "b"))
            report = commit_states(dfa)
            enumerated = enumerated_commit_states(dfa, max_len=12)
            # enumeration may only under-approximate
            assert enumerated <= report.commit_set
            for s in report.commit_set:
                assert verify_witness(dfa, s, report.witnesses[s])

    def test_witnesses_are_shortest(self):
        rng = random.Random(64)
        compared = 0
        for _ in range(150):
            dfa = random_total_dfa(rng, max_states=5, obs=("a", "b"))
            report = commit_states(dfa)
            shortest = witness_lengths(dfa, max_len=12)
            for s, length in shortest.items():
                assert len(report.witnesses[s]) == length
                compared += 1
        assert compared > 50

    def test_empty_altered_language_forces_commit(self):
        """If nothing is accepted from s but something is accepted at all,
        a non-trash non-accepting s must be a commit state."""
        rng = random.Random(17)
        checked = 0
        for _ in range(400):
            dfa = random_total_dfa(rng, max_states=5, obs=("a", "b"))
            report = commit_states(dfa)
            reach = {}

            def reachable_accepting(src):
                if src in reach:
                    return reach[src]
                seen = {src}
                stack = [src]
                hit = False
                while stack:
                    s = stack.pop()
                    if s in dfa.accepting:
                        hit = True
                        break
                    for l in dfa.alphabet.letters():
                        t = dfa.transitions[(s, l)]
                        if t not in seen:
                            seen.add(t)
                            stack.append(t)
                reach[src] = hit
                return hit

            if not reachable_accepting(dfa.initial):
                continue
            for s in dfa.states:
                if s == dfa.trash or s in dfa.accepting:
                    continue
                if not reachable_accepting(s):
                    checked += 1
                    assert s in report.commit_set
        assert checked > 10
