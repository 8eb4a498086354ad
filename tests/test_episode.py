"""The one episode loop, seen from outside: every output of both methods on
a fixed map set is pinned, and the planner's commit avoidance is checked
on every iteration."""

import hashlib
import json

from tlfrontier import planner
from tlfrontier.baseline import run_baseline
from tlfrontier.bench import PHI1
from tlfrontier.commit import commit_states
from tlfrontier.env import load_map, random_map
from tlfrontier.planner import run_episode
from tlfrontier.product import ProductState
from tlfrontier.scltl import ObservationSet, compile_dfa, parse_formula

from helpers import MAPS_DIR, STAY_MAP, two_consecutive_a

# sha256 of `episode_outputs()`, recorded before the planner and the
# baseline shared one loop. A change to it is a change of results (a
# verdict, a move, a trace line or an iteration record), which must be
# explained.
RECORDED_EPISODE_DIGEST = "b46f8c6833a453444db9518b525b8121c5c28986eb3cf7d5079cab9984457200"


def phi1_task():
    alphabet = ObservationSet(["l", "p", "s"])
    dfa = compile_dfa(parse_formula(PHI1, alphabet), alphabet)
    return dfa, commit_states(dfa)


def digest_cases():
    """(name, grid, dfa, commits): the rescue map, the Stay fixture and
    20x20 maps with 0, 5 and 20 blocks at seeds 0-2."""
    dfa, commits = phi1_task()
    cases = [("rescue", load_map((MAPS_DIR / "rescue.map").read_text()), dfa, commits)]
    stay = two_consecutive_a()
    cases.append(("stay", load_map(STAY_MAP.read_text()), stay, commit_states(stay)))
    for n_blocks in (0, 5, 20):
        for seed in range(3):
            cases.append((f"20x20/{n_blocks}/{seed}", random_map(20, n_blocks, seed), dfa, commits))
    return cases


def episode_record(result) -> dict:
    diagnostics = result.diagnostics
    return {
        "verdict": result.verdict,
        "trajectory": [list(c) for c in result.trajectory],
        "actions": result.actions,
        "word": [sorted(letter) for letter in result.word],
        "trace": diagnostics["trace"],
        "iterations": diagnostics["iterations"],
        "reason": diagnostics.get("reason"),
    }


def episode_outputs() -> str:
    lines = []
    for name, grid, dfa, commits in digest_cases():
        for method, result in (
            ("ours", run_episode(grid, dfa, commits)),
            ("baseline", run_baseline(grid, dfa)),
        ):
            record = {"case": name, "method": method, **episode_record(result)}
            lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def test_episode_outputs_match_recorded_digest():
    digest = hashlib.sha256(episode_outputs().encode()).hexdigest()
    assert digest == RECORDED_EPISODE_DIGEST


def test_commit_chosen_only_when_no_safe_end_is_reachable(monkeypatch):
    """A frontier whose best end is a commit state is chosen only when no
    frontier cell has a reachable (hops > 0) node that is neither commit
    nor trash."""
    dfa, commits = phi1_task()
    unsafe = commits.commit_set | {dfa.trash}
    safe_states = [s for s in dfa.states if s not in unsafe]
    groups = []  # per iteration: did some scored frontier have a safe end?
    plan = planner.ProductPolicy.plan
    score = planner.frontier_value

    def recording_plan(self, ep, fs):
        groups.append(False)
        return plan(self, ep, fs)

    def recording_score(g, cur, x, k, ctx):
        groups[-1] = groups[-1] or any(g.nodes.get(ProductState(x, s), 0) > 0 for s in safe_states)
        return score(g, cur, x, k, ctx)

    monkeypatch.setattr(planner.ProductPolicy, "plan", recording_plan)
    monkeypatch.setattr(planner, "frontier_value", recording_score)

    grids = [load_map((MAPS_DIR / "rescue.map").read_text())]
    grids += [random_map(20, n_blocks, seed) for n_blocks in (5, 20) for seed in range(20)]
    commit_choices = 0
    for grid in grids:
        groups.clear()
        iterations = run_episode(grid, dfa, commits).diagnostics["iterations"]
        assert len(iterations) == len(groups)
        for it, had_safe_end in zip(iterations, groups):
            if it["end_dfa"] in commits.commit_set:
                commit_choices += 1
                assert not had_safe_end, f"commit end chosen over a safe one at {it}"
    assert commit_choices > 0, "no commit choice was exercised"

