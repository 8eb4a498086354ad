"""Input boundaries under random input: map text, formula text and
automaton JSON fail only with their documented errors, the CLI turns
every bad map and every bad formula into exit code 2, and every valid
formula text compiles to an automaton that agrees with the formula."""

import io
import json
import random
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tlfrontier.cli import main
from tlfrontier.env import MapFormatError, format_map, load_map
from tlfrontier.scltl import (
    AlphabetError,
    DfaError,
    ObservationSet,
    ParseError,
    StateLimitError,
    TotalDfa,
    compile_dfa,
    parse_formula,
)

from helpers import MAPS_DIR, TWO_A_DFA, random_word, some_prefix_holds

MAP_TOKENS = [
    "map", "start", "legend", " ", "\n", "\r", "\t", "0", "1", "2", "3", "-1", "x",
    "99999999999999999999", "A=a", "B=b", "L=l", ".=a", "A=", "=a", "A=Bad", "A=a=b",
    ".", "..", "A", "AB", "#", "é", "\x00", " ",
]


@st.composite
def near_maps(draw):
    """Map texts whose header lines have the right shape, with small or
    broken dimensions, starts, legends and rows."""
    width, height = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
    col, row = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
    legend = draw(
        st.lists(st.tuples(st.sampled_from("ABL.#"), st.sampled_from(["a", "b", "l", "Bad", ""])), max_size=3)
    )
    rows = draw(st.lists(st.text(alphabet=".ABLx", max_size=5), max_size=5))
    entries = " ".join(f"{char}={obs}" for char, obs in legend)
    return f"map {width} {height}\nstart {col} {row}\nlegend {entries}\n" + "\n".join(rows) + "\n"


map_texts = st.one_of(st.text(), st.lists(st.sampled_from(MAP_TOKENS)).map("".join), near_maps())


@given(map_texts)
@settings(max_examples=400, deadline=None)
def test_load_map_raises_only_map_format_error(text):
    try:
        grid = load_map(text)
    except MapFormatError:
        return
    again = load_map(format_map(grid))
    assert (again.width, again.height, again.start, again.labels) == (
        grid.width, grid.height, grid.start, grid.labels
    )


@given(near_maps())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exits_2_on_every_bad_map(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.map"
        path.write_text(text, encoding="utf-8")
        try:
            load_map(text)
            valid = True
        except MapFormatError:
            valid = False
        code = main(["run", "--map", str(path), "--formula", "F a"])
    if not valid:
        assert code == 2
    else:
        assert code in (0, 1, 2)  # 2 when the map declares no `a`


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: (
        st.lists(children, max_size=5) | st.dictionaries(st.text(max_size=4), children, max_size=5)
    ),
    max_leaves=12,
)  # every list, dict and string is short, so no alphabet has more than 5 names


@st.composite
def near_dfa_docs(draw):
    """The two-consecutive-`a` fixture with one to three random edits: a key
    dropped or replaced, or one transition dropped or changed."""
    doc = json.loads(TWO_A_DFA.read_text())
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["drop", "replace", "drop_transition", "edit_transition"]))
        transitions = doc.get("transitions")
        if edit.endswith("transition") and isinstance(transitions, list) and transitions:
            i = draw(st.integers(0, len(transitions) - 1))
            if edit == "drop_transition":
                del transitions[i]
            elif isinstance(transitions[i], dict):
                transitions[i][draw(st.sampled_from(["from", "to", "letter"]))] = draw(json_values)
        elif doc:
            key = draw(st.sampled_from(sorted(doc)))
            if edit == "drop":
                del doc[key]
            else:
                doc[key] = draw(json_values)
    return doc


@given(st.one_of(json_values, near_dfa_docs()))
@settings(max_examples=400, deadline=None)
def test_dfa_from_json_raises_only_documented_errors(doc):
    try:
        dfa = TotalDfa.from_json_dict(doc)
    except (DfaError, AlphabetError):
        return
    assert TotalDfa.from_json_dict(dfa.to_json_dict()).to_json_dict() == dfa.to_json_dict()


FORMULA_TOKENS = [
    "l", "p", "s", "q", "true", "false", "l0", "F", "U", "!", "&", "|", "(", ")", "X", "G",
    " ", "\n", "\t", "L", "0", "_", "->", "é", "\x00", "FF", "!(", "!true", "F(", "U U",
]


@st.composite
def deep_formulas(draw):
    """Nesting near the parser's depth bound, by parentheses, `F` or `U`."""
    n = draw(st.integers(90, 110))
    shape = draw(st.sampled_from(["paren", "eventually", "until"]))
    if shape == "paren":
        return "(" * n + "l" + ")" * draw(st.sampled_from([n, n - 1]))
    if shape == "eventually":
        return "F " * n + draw(st.sampled_from(["p", ""]))
    return " U ".join(["l"] * n)


formula_texts = st.one_of(
    st.text(), st.lists(st.sampled_from(FORMULA_TOKENS)).map("".join), deep_formulas()
)
RESCUE_ATOMS = ObservationSet(["l", "p", "s"])


def parses(text) -> bool:
    try:
        parse_formula(text, RESCUE_ATOMS)
    except ParseError:
        return False
    return True


@given(formula_texts)
@settings(max_examples=400, deadline=None)
def test_parse_formula_raises_only_parse_error(text):
    parses(text)  # any other exception fails the test; nothing is compiled


@given(formula_texts)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exits_2_on_every_bad_formula(text):
    if parses(text):
        return  # a valid formula would be compiled and run
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["run", "--map", str(MAPS_DIR / "rescue.map"), f"--formula={text}"])
    assert code == 2
    assert err.getvalue().startswith("error:")


valid_formula_texts = st.recursive(
    st.sampled_from(["l", "p", "s", "!l", "!p", "!s", "true"]),
    lambda sub: st.one_of(
        sub.map(lambda a: f"F {a}"),
        st.tuples(sub, st.sampled_from(["&", "|", "U"]), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
    ),
    max_leaves=12,
)


@given(valid_formula_texts)
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_valid_formula_text_compiles_to_an_agreeing_automaton(text):
    phi = parse_formula(text, RESCUE_ATOMS)
    try:
        dfa = compile_dfa(phi, RESCUE_ATOMS)
    except StateLimitError:
        return  # `run` reports this as exit 2
    rng = random.Random(text)
    for _ in range(20):
        word = random_word(rng, RESCUE_ATOMS.names, 6)
        assert dfa.accepts(word) == some_prefix_holds(phi, word), word
