"""Automaton compilation, checked against the progression oracle."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tlfrontier.bench import PHI1
from tlfrontier.commit import commit_states
from tlfrontier.scltl import (
    BOTTOM,
    TOP,
    Formula,
    ObservationSet,
    StateLimitError,
    atoms,
    compile_dfa,
    is_good_prefix,
    parse_formula,
    progress,
    pruned_distances,
)
from tlfrontier.scltl import compiler, formula

from helpers import holds, random_formula, random_word, some_prefix_holds

L = frozenset

COMPILE_WIDE = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "compile_wide.json"

# sha256 of `compiled_outputs()`, recorded before the minimisation was
# rewritten. Witness words follow state ids, so a change to it is a change
# of the automata, their numbering or their commit reports, which must be
# explained.
RECORDED_COMPILE_DIGEST = "af19ad669ff572f2a25e0bc5219ddab4917a1f38897bc9ff21e423ba856d7721"


def phi0_dfa(abc):
    return compile_dfa(parse_formula("(!b U a) | ((!a U b) & F c)", abc), abc)


class TestCompileBasics:
    def test_top_single_accepting_state(self):
        dfa = compile_dfa(TOP, ObservationSet(["a"]))
        live = dfa.live_states()
        assert len(live) == 1
        assert dfa.accepting == frozenset(live)
        for l in dfa.alphabet.letters():
            assert dfa.step(dfa.initial, l) == dfa.initial

    def test_contradiction_collapses_to_trash(self, abc):
        dfa = compile_dfa(parse_formula("a & !a", abc), abc)
        assert dfa.states == (0,)
        assert dfa.initial == dfa.trash
        assert dfa.accepting == frozenset()
        assert not dfa.accepts([L({"a"})])

    def test_reference_formula_shape(self, abc):
        dfa = phi0_dfa(abc)
        # four live states; the trash state exists but is never entered
        assert len(dfa.live_states()) == 4
        assert len(dfa.accepting) == 1
        reachable = {dfa.initial}
        stack = [dfa.initial]
        while stack:
            s = stack.pop()
            for l in dfa.alphabet.letters():
                t = dfa.step(s, l)
                if t not in reachable:
                    reachable.add(t)
                    stack.append(t)
        assert dfa.trash not in reachable

    def test_totality(self, abc):
        dfa = phi0_dfa(abc)
        letters = dfa.alphabet.letters()
        assert set(dfa.transitions) == {(s, l) for s in dfa.states for l in letters}

    def test_state_budget(self, abc):
        with pytest.raises(StateLimitError):
            compile_dfa(parse_formula("(F a) & (F b) & (F c)", abc), abc, max_states=2)

    def test_state_budget_counts_progressed_states(self):
        # 4 letters fit a budget of 4; the 5 raw states of a four-step sequence do not
        al = ObservationSet(["a", "b"])
        phi = parse_formula("F (a & F (b & F (a & F b)))", al)
        compile_dfa(phi, al, max_states=5)
        with pytest.raises(StateLimitError, match="more than 4 states"):
            compile_dfa(phi, al, max_states=4)

    def test_alphabet_wider_than_the_budget_is_rejected_before_its_letters(self, monkeypatch):
        wide = ObservationSet([f"o{i}" for i in range(40)])

        def no_letters(self):
            raise AssertionError("the letters of a 40-name alphabet were built")

        monkeypatch.setattr(ObservationSet, "letters", no_letters)
        with pytest.raises(StateLimitError, match="40 observations make more than 4096 letters"):
            compile_dfa(parse_formula("F o0", wide), wide)

    def test_eventually_chain_compiles_like_one_eventually(self):
        # every F F ... F p is F p; the chain is collapsed before compiling
        al = ObservationSet(["p"])
        expected = compile_dfa(parse_formula("F p", al), al).to_json_dict()
        dfa = compile_dfa(parse_formula("F " * 100 + "p", al), al)
        assert dfa.to_json_dict() == expected

    def test_alphabet_must_cover_atoms(self):
        phi = parse_formula("F b", ObservationSet(["a", "b"]))
        with pytest.raises(ValueError, match="outside the alphabet"):
            compile_dfa(phi, ObservationSet(["a"]))

    def test_default_alphabet_is_the_atom_set(self, abc):
        phi = parse_formula("a U b", abc)
        dfa = compile_dfa(phi)
        assert dfa.alphabet.names == ("a", "b")


class TestOracleAgreement:
    def test_reference_formula_agrees_on_10k_words(self, abc):
        dfa = phi0_dfa(abc)
        phi0 = parse_formula("(!b U a) | ((!a U b) & F c)", abc)
        rng = random.Random(2024)
        for _ in range(10_000):
            word = random_word(rng, ["a", "b", "c"], 8)
            assert dfa.accepts(word) == is_good_prefix(phi0, word)

    def test_random_formulas_agree_with_progression(self, abc):
        rng = random.Random(99)
        pairs = 0
        while pairs < 1200:
            phi = random_formula(rng, ["a", "b", "c"], depth=4)
            dfa = compile_dfa(phi, abc)
            for _ in range(8):
                word = random_word(rng, ["a", "b", "c"], 8)
                assert dfa.accepts(word) == is_good_prefix(phi, word), (
                    f"disagreement on {phi} with {[sorted(l) for l in word]}"
                )
                pairs += 1

    def test_strong_finite_semantics_oracle(self, abc):
        phi = parse_formula("!b U a", abc)
        assert holds(phi, [L(), L({"a"})])
        assert not holds(phi, [L(), L()])  # no witness inside the word
        assert not holds(phi, [L({"b"}), L({"a"})])
        assert not holds(parse_formula("F true", abc), [])
        assert some_prefix_holds(phi, [L({"a"}), L({"b"})])

    def test_random_formulas_agree_with_strong_finite_semantics(self, abc):
        """Progression and the automaton both agree with an evaluator that
        shares no code with `progress`, `conj` or `disj`."""
        rng = random.Random(31)
        for _ in range(300):
            phi = random_formula(rng, ["a", "b", "c"], depth=4)
            dfa = compile_dfa(phi, abc)
            for _ in range(10):
                word = random_word(rng, ["a", "b", "c"], 7)
                expected = some_prefix_holds(phi, word)
                assert is_good_prefix(phi, word) == expected, (phi, word)
                assert dfa.accepts(word) == expected, (phi, word)

    def test_trash_soundness(self):
        """Trash means no extension can become a good prefix.

        A false obligation must land in trash; conversely a trash run must
        reject every bounded extension (some dead states, e.g. an
        eventuality over contradictory literals, never simplify to false,
        so the converse is checked by enumeration).
        """
        ab = ObservationSet(["a", "b"])
        letters = ab.letters()
        extensions = [[]]
        for _ in range(3):
            extensions = [e + [l] for e in extensions for l in letters] + extensions
        rng = random.Random(4)
        for _ in range(100):
            phi = random_formula(rng, ["a", "b"], depth=3)
            dfa = compile_dfa(phi, ab)
            for _ in range(5):
                word = random_word(rng, ["a", "b"], 6)
                obligation = phi
                for l in word:
                    obligation = progress(obligation, l)
                hit_trash = dfa.run(word) == dfa.trash
                if obligation == BOTTOM:
                    assert hit_trash
                if hit_trash:
                    assert not any(is_good_prefix(phi, word + e) for e in extensions)


class TestMinimization:
    def test_reference_formula_states_pairwise_distinguishable(self, abc):
        from helpers import distinguishable

        dfa = phi0_dfa(abc)
        states = list(dfa.states)
        for i, s1 in enumerate(states):
            for s2 in states[i + 1 :]:
                assert distinguishable(dfa, s1, s2)

    def test_random_formulas_compile_minimally(self, abc):
        from helpers import distinguishable

        rng = random.Random(31)
        for _ in range(60):
            phi = random_formula(rng, ["a", "b"], depth=3)
            dfa = compile_dfa(phi, abc)
            states = list(dfa.states)
            for i, s1 in enumerate(states):
                for s2 in states[i + 1 :]:
                    assert distinguishable(dfa, s1, s2), f"{s1},{s2} merge in {phi}"

    def test_compilation_is_deterministic(self, abc):
        rng = random.Random(32)
        for _ in range(40):
            phi = random_formula(rng, ["a", "b", "c"], depth=4)
            a = compile_dfa(phi, abc).to_json_dict()
            b = compile_dfa(phi, abc).to_json_dict()
            assert a == b


class TestGoodPrefixClosure:
    def test_accepting_states_are_closed_under_all_letters(self, abc):
        rng = random.Random(11)
        for _ in range(80):
            phi = random_formula(rng, ["a", "b", "c"], depth=3)
            dfa = compile_dfa(phi, abc)
            for s in dfa.accepting:
                for l in dfa.alphabet.letters():
                    assert dfa.step(s, l) in dfa.accepting

    def test_every_live_state_is_reachable(self, abc):
        rng = random.Random(12)
        for _ in range(80):
            phi = random_formula(rng, ["a", "b"], depth=3)
            dfa = compile_dfa(phi, abc)
            seen = {dfa.initial}
            stack = [dfa.initial]
            while stack:
                s = stack.pop()
                for l in dfa.alphabet.letters():
                    t = dfa.step(s, l)
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            assert set(dfa.live_states()) <= seen


class TestProgressionWork:
    """How often the closure progresses, counted through the module
    global it calls, in place of a timing test."""

    @staticmethod
    def progress_calls(monkeypatch, phi, alphabet) -> list:
        calls = []

        def counted(f, l, memo=None):
            calls.append((f, l))
            return progress(f, l, memo)

        monkeypatch.setattr(compiler, "progress", counted)
        compile_dfa(phi, alphabet)
        return calls

    def test_each_state_is_progressed_once_per_restricted_letter(self, monkeypatch):
        families = ("conj", "nest", "until", "choice")
        items = [
            item for item in json.loads(COMPILE_WIDE.read_text())["items"] if item["group"][:-1] in families
        ]
        assert {item["group"] for item in items} == {f + n for f in families for n in "456"}
        for item in items:
            alphabet = ObservationSet(item["atoms"])
            calls = self.progress_calls(monkeypatch, parse_formula(item["formula"], alphabet), alphabet)
            assert len(set(calls)) == len(calls), item["id"]  # no (state, letter) twice
            assert all(l <= atoms(f) for f, l in calls), item["id"]  # only restricted letters
            # every restriction of a state's atoms is met by some letter
            assert len(calls) == sum(2 ** len(atoms(f)) for f in {f for f, _ in calls}), item["id"]

    def test_no_progression_is_kept_from_one_compile_to_the_next(self, monkeypatch):
        alphabet = ObservationSet(["a0", "a1", "a2", "a3", "a4"])
        phi = parse_formula("F a0 & F a1 & F a2 & F a3 & F a4", alphabet)
        first = self.progress_calls(monkeypatch, phi, alphabet)
        assert self.progress_calls(monkeypatch, phi, alphabet) == first
        assert len(first) == 3**5  # sum over the 2^5 states of 2^|atoms|


class TestNumbering:
    def test_live_ids_are_breadth_first_discovery_order(self, abc):
        """State 0 is initial; every later live id is the next state found
        breadth-first, letters in canonical order; trash is the last id."""
        rng = random.Random(13)
        for _ in range(120):
            phi = random_formula(rng, ["a", "b", "c"], depth=4)
            dfa = compile_dfa(phi, abc)
            assert dfa.initial == 0
            assert dfa.trash == len(dfa.states) - 1
            order = [] if dfa.initial == dfa.trash else [dfa.initial]
            for s in order:  # grows while it is read: a breadth-first queue
                for l in abc.letters():
                    t = dfa.step(s, l)
                    if t != dfa.trash and t not in order:
                        order.append(t)
            assert order == dfa.live_states(), str(phi)


def compiled_outputs() -> str:
    """Automaton, commit report and pruned distances, one JSON line per
    formula: the four-atom formulas of the `compile_wide` pool, PHI1 and 40
    seeded random formulas."""
    texts = [
        (item["formula"], ObservationSet(item["atoms"]))
        for item in json.loads(COMPILE_WIDE.read_text())["items"]
        if len(item["atoms"]) == 4
    ]
    texts.append((PHI1, ObservationSet(["l", "p", "s"])))
    cases = [(parse_formula(text, alphabet), alphabet) for text, alphabet in texts]
    abc = ObservationSet(["a", "b", "c"])
    rng = random.Random(8)
    cases += [(random_formula(rng, ["a", "b", "c"], depth=4), abc) for _ in range(40)]
    lines = []
    for phi, alphabet in cases:
        dfa = compile_dfa(phi, alphabet)
        d = pruned_distances(dfa)
        record = {
            "dfa": dfa.to_json_dict(),
            "commits": commit_states(dfa).to_json_dict(),
            "distances": [d[s] for s in dfa.states],
        }
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def test_compiled_outputs_match_recorded_digest():
    outputs = compiled_outputs()
    assert len(outputs.splitlines()) == 62 + 1 + 40
    assert hashlib.sha256(outputs.encode()).hexdigest() == RECORDED_COMPILE_DIGEST


def test_compiling_never_prints_a_formula(monkeypatch):
    """Canonical formulas are sets, so nothing on the compile path orders
    them by their text."""

    def no_text(*_):
        raise AssertionError("a formula was printed while compiling")

    monkeypatch.setattr(Formula, "__str__", no_text)
    monkeypatch.setattr(formula, "_fmt", no_text)
    outputs = compiled_outputs()
    assert hashlib.sha256(outputs.encode()).hexdigest() == RECORDED_COMPILE_DIGEST


def test_compiled_outputs_do_not_depend_on_the_hash_seed():
    """Canonical nodes iterate sets, whose order follows string hashes."""
    tests_dir = Path(__file__).resolve().parent
    src_dir = tests_dir.parent / "src"
    path = os.pathsep.join([str(src_dir), str(tests_dir), os.environ.get("PYTHONPATH", "")])
    script = (
        "import hashlib; from test_compiler import compiled_outputs; "
        "print(hashlib.sha256(compiled_outputs().encode()).hexdigest())"
    )
    for seed in ("1", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        assert out.stdout.strip() == RECORDED_COMPILE_DIGEST, seed
