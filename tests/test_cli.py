"""Command-line interface: exit codes, formats, round trips."""

import json
import time

import pytest

from tlfrontier.cli import main
from tlfrontier.env import load_map
from tlfrontier.product import ProductGraph, ProductState, expand
from tlfrontier.render import replay_known_sets
from tlfrontier.scltl import compile_dfa, parse_formula

from helpers import MAPS_DIR, STAY_MAP, TWO_A_DFA

PHI0 = "(!b U a) | ((!a U b) & F c)"
RESCUE = "(!l U (l U (p U ((l | p) U s)))) & F s & (!s U p)"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompile:
    def test_writes_automaton_json(self, tmp_path, capsys):
        out = tmp_path / "dfa.json"
        code, _, _ = run_cli(capsys, "compile", "--formula", "F a", "--alphabet", "a", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["alphabet"] == ["a"]
        assert len(doc["accepting"]) == 1

    def test_prints_to_stdout_without_out(self, capsys):
        code, out, _ = run_cli(capsys, "compile", "--formula", "F a", "--alphabet", "a")
        assert code == 0
        assert json.loads(out)["initial"] == 0

    def test_parse_error_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--formula", "a U", "--alphabet", "a")
        assert code == 2
        assert "error" in err

    def test_missing_alphabet_is_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "compile", "--formula", "F a")
        assert code == 2

    def test_unknown_flag_is_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "compile", "--formula", "F a", "--bogus")
        assert code == 2


class TestCommits:
    def test_reference_formula(self, capsys):
        code, out, _ = run_cli(capsys, "commits", "--formula", PHI0, "--alphabet", "a,b,c")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["commit_states"]) == 1
        state = doc["commit_states"][0]
        assert doc["witnesses"][str(state)] == [["a"]]

    def test_formula_and_dfa_conflict(self, tmp_path, capsys):
        dfa_path = tmp_path / "dfa.json"
        run_cli(capsys, "compile", "--formula", "F a", "--alphabet", "a", "--out", str(dfa_path))
        code, _, err = run_cli(capsys, "commits", "--formula", "F a", "--alphabet", "a", "--dfa", str(dfa_path))
        assert code == 2
        assert "mutually exclusive" in err

    def test_roundtrip_matches_direct_compilation(self, tmp_path, capsys):
        dfa_path = tmp_path / "dfa.json"
        run_cli(capsys, "compile", "--formula", PHI0, "--alphabet", "a,b,c", "--out", str(dfa_path))
        code, via_file, _ = run_cli(capsys, "commits", "--dfa", str(dfa_path))
        assert code == 0
        code, direct, _ = run_cli(capsys, "commits", "--formula", PHI0, "--alphabet", "a,b,c")
        assert code == 0
        assert json.loads(via_file) == json.loads(direct)

    def test_missing_file_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "commits", "--dfa", "/nonexistent.json")
        assert code == 2


class TestRun:
    def test_satisfied_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--map", str(MAPS_DIR / "rescue.map"), "--formula", RESCUE
        )
        assert code == 0
        assert json.loads(out.splitlines()[-1])["verdict"] == "satisfied"

    def test_huge_sensing_radius_runs_like_one_covering_the_map(self, capsys):
        rescue = str(MAPS_DIR / "rescue.map")
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "run", "--map", rescue, "--formula", RESCUE, "--h", "1000000000")
        assert time.perf_counter() - start < 10
        assert (code, out) == run_cli(capsys, "run", "--map", rescue, "--formula", RESCUE, "--h", "38")[:2]

    def test_baseline_unsatisfiable_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--map",
            str(MAPS_DIR / "rescue.map"),
            "--formula",
            RESCUE,
            "--method",
            "baseline",
        )
        assert code == 1
        assert json.loads(out.splitlines()[-1])["verdict"] == "unsatisfiable"

    def test_trace_lines_are_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--map", str(MAPS_DIR / "rescue.map"), "--formula", RESCUE, "--trace"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) > 10
        entry = json.loads(lines[0])
        assert entry["t"] == 0 and entry["phase"] == "explore"

    def test_dump_product_growth(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--map",
            str(MAPS_DIR / "rescue.map"),
            "--formula",
            RESCUE,
            "--dump-product",
        )
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()[:-1]]
        assert all({"t", "nodes", "edges"} <= set(e) for e in lines)

    def test_dump_product_reused_graph_matches_fresh_graphs(self, capsys):
        # the dump reuses one graph and its edge cache across steps; each
        # line must count what a graph built for that step alone holds
        map_path = MAPS_DIR / "rescue.map"
        code, out, _ = run_cli(
            capsys, "run", "--map", str(map_path), "--formula", RESCUE, "--trace", "--dump-product"
        )
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()[:-1]]
        trace = [e for e in lines if "phase" in e]
        dump = [e for e in lines if "nodes" in e]
        assert len(dump) == len(trace) > 10
        grid = load_map(map_path.read_text())
        dfa = compile_dfa(parse_formula(RESCUE, grid.alphabet), grid.alphabet)
        known = replay_known_sets(grid, [tuple(e["cell"]) for e in trace], 3)  # default --h
        for t, (entry, k) in enumerate(zip(trace, known)):
            root = ProductState(tuple(entry["cell"]), entry["dfa"])
            fresh = expand(ProductGraph(grid, dfa, root), k)
            assert dump[t] == {"t": t, "nodes": fresh.node_count(), "edges": fresh.edge_count()}

    @pytest.mark.parametrize("method", ["ours", "baseline"])
    def test_automaton_that_needs_stay(self, capsys, method):
        code, out, err = run_cli(
            capsys,
            "run",
            "--map",
            str(STAY_MAP),
            "--dfa",
            str(TWO_A_DFA),
            "--method",
            method,
            "--trace",
        )
        assert (code, err) == (0, "")
        *trace, summary = [json.loads(l) for l in out.splitlines()]
        assert summary["verdict"] == "satisfied"
        cells = [e["cell"] for e in trace]
        assert cells == [[0, 0], [1, 0], [1, 0]]  # right, then stay

    def test_missing_map_is_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--map", "/nope.map", "--formula", RESCUE)
        assert code == 2

    def test_bad_map_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.map"
        bad.write_text("map 2 2\nstart 0 0\nlegend\n..\n.\n")
        code, _, err = run_cli(capsys, "run", "--map", str(bad), "--formula", "F a")
        assert code == 2

    def test_deeply_nested_formula_is_exit_2(self, capsys):
        formula = "(" * 1200 + "F p" + ")" * 1200
        code, out, err = run_cli(
            capsys, "run", "--map", str(MAPS_DIR / "rescue.map"), "--formula", formula
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: formula nests deeper")
        assert "Traceback" not in err


class TestBench:
    def test_table_and_results_file(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        code, table, _ = run_cli(
            capsys,
            "bench",
            "--size",
            "12",
            "--n-blocks",
            "0",
            "--n-maps",
            "2",
            "--seed",
            "3",
            "--out",
            str(out),
        )
        assert code == 0
        assert "satisfaction" in table
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # 4 records + summary

    def test_determinism_byte_for_byte(self, tmp_path, capsys):
        blobs = []
        for name in ("x.jsonl", "y.jsonl"):
            out = tmp_path / name
            run_cli(
                capsys,
                "bench",
                "--size",
                "12",
                "--n-blocks",
                "0,1",
                "--n-maps",
                "2",
                "--seed",
                "9",
                "--out",
                str(out),
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestRender:
    def test_ascii_frame_written(self, tmp_path, capsys):
        out = tmp_path / "frame.txt"
        code, _, _ = run_cli(
            capsys,
            "render",
            "--map",
            str(MAPS_DIR / "rescue.map"),
            "--formula",
            RESCUE,
            "--format",
            "ascii",
            "--out",
            str(out),
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("step ")
        assert "@" in text

    def test_svg_written(self, tmp_path, capsys):
        out = tmp_path / "frame.svg"
        code, _, _ = run_cli(
            capsys,
            "render",
            "--map",
            str(MAPS_DIR / "rescue.map"),
            "--formula",
            RESCUE,
            "--format",
            "svg",
            "--out",
            str(out),
        )
        assert code == 0
        assert out.read_text().startswith("<svg")


RESCUE_MAP = str(MAPS_DIR / "rescue.map")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--map", RESCUE_MAP, "--formula", "F s", "--h", "0"],
        ["render", "--map", RESCUE_MAP, "--formula", "F s", "--alpha1", "0"],
        ["run", "--map", RESCUE_MAP, "--formula", "F s", "--alpha1", "inf"],
        ["render", "--dfa", str(TWO_A_DFA), "--map", RESCUE_MAP],
        ["render", "--map", RESCUE_MAP, "--formula", "F s", "--frames", "99"],
        ["render", "--map", RESCUE_MAP, "--formula", "F s", "--frames", "-99"],
        ["bench", "--size", "5"],
        ["bench", "--n-blocks", "-1"],
        ["bench", "--n-maps", "0"],
        ["bench", "--methods", "foo"],
        ["bench", "--formula", "F q", "--n-maps", "1"],
        ["run", "--map", RESCUE_MAP, "--formula", "F s", "--alpha3", "400"],
        ["render", "--map", RESCUE_MAP, "--formula", "F s", "--alpha3", "1e10"],
        ["bench", "--size", "10", "--n-maps", "1", "--alpha3", "400"],
        ["run", "--map", RESCUE_MAP, "--formula", "F s", "--alpha1", "1e308"],
        ["render", "--map", RESCUE_MAP, "--formula", "F s", "--alpha2", "1e-308"],
        ["bench", "--size", "10", "--n-maps", "1", "--alpha1", "5e-324", "--alpha2", "1e300"],
    ],
    ids=[
        "run-h-0",
        "render-alpha1-0",
        "run-alpha1-inf",
        "render-undeclared-label",
        "render-frames-99",
        "render-frames-minus-99",
        "bench-size-5",
        "bench-n-blocks-minus-1",
        "bench-n-maps-0",
        "bench-methods-foo",
        "bench-formula-unknown-atom",
        "run-alpha3-400",
        "render-alpha3-1e10",
        "bench-alpha3-400",
        "run-alpha1-1e308",
        "render-alpha2-1e-308",
        "bench-alpha1-5e-324-alpha2-1e300",
    ],
)
def test_bad_input_is_exit_2_without_traceback(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_automaton_file_with_40_names_is_rejected_at_once(tmp_path, capsys):
    # 2^40 letters cannot be enumerated; the transition count gives the file away
    doc = {
        "alphabet": [f"o{i}" for i in range(40)],
        "states": [0],
        "initial": 0,
        "accepting": [],
        "trash": 0,
        "transitions": [{"from": 0, "letter": [], "to": 0}],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "run", "--map", RESCUE_MAP, "--dfa", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "not total" in err


WIDE_NAMES = [f"o{i}" for i in range(40)]


def test_formula_over_40_names_is_rejected_at_once(capsys):
    # 2^40 letters cannot be enumerated; the compiler's budget refuses them first
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "compile", "--formula", "F o0", "--alphabet", ",".join(WIDE_NAMES))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_map_legend_of_40_names_is_rejected_at_once(tmp_path, capsys):
    chars = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789!#$%"
    legend = " ".join(f"{c}={n}" for c, n in zip(chars, WIDE_NAMES))
    path = tmp_path / "wide.map"
    path.write_text(f"map 3 1\nstart 0 0\nlegend {legend}\n.A.\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "run", "--map", str(path), "--formula", "F o0")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
