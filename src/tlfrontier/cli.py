"""Command-line interface.

Exit codes: 0 success, 1 unsatisfiable verdict, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .baseline import run_baseline
from .bench import (
    METHOD_BASELINE,
    METHOD_OURS,
    PHI1,
    BenchConfig,
    run_bench,
    summarize,
    write_results,
)
from .commit import commit_states
from .env import RANDOM_MAP_MIN_SIZE, MapFormatError, MapGenerationError, load_map
from .planner import PlannerConfig, WeightOverflowError, run_episode
from .product import ProductGraph, ProductState, expand
from .render import RenderError, render_trajectory, replay_known_sets
from .scltl import (
    AlphabetError,
    DfaError,
    ObservationSet,
    ParseError,
    StateLimitError,
    TotalDfa,
    compile_dfa,
    parse_formula,
)


class CliError(Exception):
    """Input problem that should terminate with exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line with exit code 2,
    like every other input error."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def _checked(kind, ok, what: str):
    """An argparse type: `kind(text)`, rejected unless `ok(value)`."""

    def parse(text):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{what}, got {text!r}")

    return parse


def _int_list(text: str) -> list:
    return [int(x) for x in text.split(",") if x.strip() != ""]


_positive_float = _checked(float, lambda v: 0 < v < math.inf, "must be a positive finite number")
_positive_int = _checked(int, lambda v: v > 0, "must be a positive integer")
_map_size = _checked(
    int, lambda v: v >= RANDOM_MAP_MIN_SIZE, f"must be an integer of at least {RANDOM_MAP_MIN_SIZE}"
)
_block_counts = _checked(
    _int_list, lambda v: v and min(v) >= 0, "must be a comma list of non-negative integers"
)
_frames = _checked(
    lambda text: text if text in ("last", "all") else _int_list(text),
    bool,
    "must be 'last', 'all' or a comma list of steps",
)
_methods = _checked(
    lambda text: tuple(m.strip() for m in text.split(",") if m.strip()),
    lambda v: v and set(v) <= {METHOD_OURS, METHOD_BASELINE},
    f"must be a comma list of {METHOD_OURS} and {METHOD_BASELINE}",
)


def _planner_config(args) -> PlannerConfig:
    return PlannerConfig(
        alpha1=args.alpha1, alpha2=args.alpha2, alpha3=args.alpha3, h=args.h
    )


def _add_planner_flags(parser):
    parser.add_argument("--alpha1", type=_positive_float, default=1.0)
    parser.add_argument("--alpha2", type=_positive_float, default=20.0)
    parser.add_argument("--alpha3", type=_positive_float, default=1.0)
    parser.add_argument("--h", type=_positive_int, default=3, help="sensing radius in hops")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_dfa_arg(args, alphabet: ObservationSet = None) -> TotalDfa:
    """Resolve the --formula / --dfa pair into an automaton."""
    if args.formula and args.dfa:
        raise CliError("--formula and --dfa are mutually exclusive")
    if args.dfa:
        try:
            return TotalDfa.from_json_dict(json.loads(_read_file(args.dfa)))
        except (json.JSONDecodeError, DfaError, AlphabetError) as exc:
            raise CliError(f"bad automaton file {args.dfa}: {exc}") from exc
    if not args.formula:
        raise CliError("one of --formula or --dfa is required")
    if alphabet is None:
        if not getattr(args, "alphabet", None):
            raise CliError("--alphabet is required with --formula")
        alphabet = _parse_alphabet(args.alphabet)
    try:
        return compile_dfa(parse_formula(args.formula, alphabet), alphabet)
    except (ParseError, StateLimitError, AlphabetError) as exc:
        raise CliError(str(exc)) from exc


def _parse_alphabet(text: str) -> ObservationSet:
    try:
        return ObservationSet([n.strip() for n in text.split(",") if n.strip()])
    except AlphabetError as exc:
        raise CliError(str(exc)) from exc


def _write_or_print(text: str, out: str = None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compile(args) -> int:
    dfa = _load_dfa_arg(args)
    text = json.dumps(dfa.to_json_dict(), indent=2) + "\n"
    _write_or_print(text, args.out)
    return 0


def cmd_commits(args) -> int:
    dfa = _load_dfa_arg(args)
    report = commit_states(dfa)
    sys.stdout.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 0


def _load_map_arg(args):
    try:
        return load_map(_read_file(args.map))
    except MapFormatError as exc:
        raise CliError(f"bad map {args.map}: {exc}") from exc


def _run_method(args):
    """Load the map, the automaton and the planner flags, and run one
    episode of the chosen method; returns `(grid, dfa, cfg, result)`."""
    grid = _load_map_arg(args)
    dfa = _load_dfa_arg(args, alphabet=grid.alphabet)
    cfg = _planner_config(args)
    try:
        if args.method == METHOD_BASELINE:
            result = run_baseline(grid, dfa, cfg)
        else:
            result = run_episode(grid, dfa, cfg=cfg)
    except (AlphabetError, WeightOverflowError) as exc:  # an undeclared map label, a huge --alpha3
        raise CliError(str(exc)) from exc
    return grid, dfa, cfg, result


def cmd_run(args) -> int:
    grid, dfa, cfg, result = _run_method(args)
    if args.trace:
        for entry in result.diagnostics["trace"]:
            sys.stdout.write(json.dumps(entry) + "\n")
    if args.dump_product:
        known = replay_known_sets(grid, result.trajectory, cfg.h)
        states = dfa.run_states(result.word)[1:]  # the state at each trajectory cell
        graph = ProductGraph(grid, dfa, ProductState(result.trajectory[0], states[0]))
        for t, (cell, s) in enumerate(zip(result.trajectory, states)):
            graph.root = graph.node_id(ProductState(cell, s))
            expand(graph, known[t])
            sys.stdout.write(
                json.dumps({"t": t, "nodes": graph.node_count(), "edges": graph.edge_count()})
                + "\n"
            )
    summary = {
        "verdict": result.verdict,
        "steps": result.steps,
        "final_cell": list(result.trajectory[-1]),
        "known": result.diagnostics["trace"][-1]["known"],
    }
    sys.stdout.write(json.dumps(summary) + "\n")
    if args.render:
        timeline = replay_known_sets(grid, result.trajectory, cfg.h)
        text = render_trajectory(grid, timeline, result.trajectory, fmt=args.render)
        _write_or_print(text, args.out)
    return 0 if result.satisfied else 1


def cmd_bench(args) -> int:
    all_records = []
    for n_blocks in args.n_blocks:
        config = BenchConfig(
            size=args.size,
            n_blocks=n_blocks,
            n_maps=args.n_maps,
            base_seed=args.seed,
            formula=args.formula or PHI1,
            methods=args.methods,
            cfg=_planner_config(args),
        )
        try:
            records, _ = run_bench(config)
        except (MapGenerationError, ParseError, StateLimitError, WeightOverflowError) as exc:
            raise CliError(str(exc)) from exc
        all_records.extend(records)
    table, summary = summarize(all_records)
    if args.out:
        write_results(args.out, all_records, summary, include_timings=args.timings)
    sys.stdout.write(table + "\n")
    return 0


def _frame_steps(frames, n: int):
    if frames == "last":
        return None
    if frames == "all":
        return list(range(n))
    return [i if i >= 0 else n + i for i in frames]


def cmd_render(args) -> int:
    grid, dfa, cfg, result = _run_method(args)
    timeline = replay_known_sets(grid, result.trajectory, cfg.h)
    try:
        steps = _frame_steps(args.frames, len(result.trajectory))
        text = render_trajectory(grid, timeline, result.trajectory, fmt=args.format, steps=steps)
    except RenderError as exc:
        raise CliError(str(exc)) from exc
    _write_or_print(text, args.out)
    return 0 if result.satisfied else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tlfrontier",
        description="Temporal-logic-aware frontier-based exploration toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a formula to an automaton JSON file")
    p.add_argument("--formula")
    p.add_argument("--dfa", help="existing automaton file (round-trips it)")
    p.add_argument("--alphabet", help="comma-separated observation names")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("commits", help="list commit states and witness words")
    p.add_argument("--formula")
    p.add_argument("--alphabet")
    p.add_argument("--dfa")
    p.set_defaults(func=cmd_commits)

    p = sub.add_parser("run", help="run one exploration episode on a map")
    p.add_argument("--map", required=True)
    p.add_argument("--formula")
    p.add_argument("--dfa")
    p.add_argument("--method", choices=["ours", "baseline"], default="ours")
    p.add_argument("--trace", action="store_true", help="print per-step JSON lines")
    p.add_argument("--dump-product", action="store_true", help="print product growth JSON lines")
    p.add_argument("--render", choices=["ascii", "svg"], help="render the final frame")
    p.add_argument("--out", help="write the rendering here instead of stdout")
    _add_planner_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="Monte Carlo comparison over random maps")
    p.add_argument("--size", type=_map_size, default=20)
    p.add_argument("--n-blocks", type=_block_counts, default=[5], help="comma list, e.g. 0,5")
    p.add_argument("--n-maps", type=_positive_int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--formula", help="task formula (default: the rescue task)")
    p.add_argument("--methods", type=_methods, default=(METHOD_OURS, METHOD_BASELINE))
    p.add_argument("--out", help="write JSON-lines results here")
    p.add_argument("--timings", action="store_true", help="include wall-clock times in --out")
    _add_planner_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", help="run an episode and render it")
    p.add_argument("--map", required=True)
    p.add_argument("--formula")
    p.add_argument("--dfa")
    p.add_argument("--method", choices=["ours", "baseline"], default="ours")
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.add_argument("--frames", type=_frames, default="last", help="'last', 'all' or a comma list")
    p.add_argument("--out")
    _add_planner_flags(p)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
