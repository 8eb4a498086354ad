"""Temporal-logic-aware frontier-based exploration."""

from .baseline import run_baseline
from .bench import PHI1, BenchConfig, RunRecord, run_bench, summarize, write_results
from .commit import CommitReport, SelfProduct, commit_states, self_product, verify_witness
from .env import (
    ACTIONS,
    GridMap,
    KnownSet,
    MapFormatError,
    MapGenerationError,
    format_map,
    frontiers,
    info_gain,
    load_map,
    random_map,
    sense,
)
from .planner import (
    SATISFIED,
    UNSATISFIABLE,
    EpisodeResult,
    PlannerConfig,
    ScoredFrontier,
    StepLimitError,
    WeightOverflowError,
    frontier_value,
    omega,
    run_episode,
)
from .product import (
    ProductGraph,
    ProductState,
    accepting_reachable,
    expand,
    min_weight_paths,
)
from .render import RenderFrame, render_trajectory, replay_known_sets
from .scltl import (
    ObservationSet,
    ParseError,
    TotalDfa,
    compile_dfa,
    delta_phi,
    is_good_prefix,
    parse_formula,
    progress,
    pruned_distances,
)

__version__ = "0.1.0"
