"""Monte Carlo harness: determinism, aggregation, verification."""

import hashlib
import json

import pytest

from tlfrontier.bench import (
    PHI1,
    BenchConfig,
    RunRecord,
    run_bench,
    summarize,
    write_results,
)
from tlfrontier.planner import PlannerConfig

# sha256 of the results files of the suites in `test_matches_recorded_digest`
# and `test_matches_recorded_digest_at_size_40`. A change to either is a
# change of results, which must be explained.
RECORDED_DIGEST = "a0008c8a89ed44a346681128d452ea01d91dab4e25f68ddda759b4f13a1b36b7"
RECORDED_DIGEST_SIZE_40 = "8738384761c9ce0031e601d61538cc2bcd139f2939f6d113d18bc32c54af7511"


def small_config(**overrides):
    defaults = dict(size=12, n_blocks=0, n_maps=4, base_seed=100)
    defaults.update(overrides)
    return BenchConfig(**defaults)


class TestRunBench:
    def test_one_record_per_map_and_method(self):
        records, summary = run_bench(small_config())
        assert len(records) == 8
        assert [(r.map_seed, r.method) for r in records] == [
            (100 + i, m) for i in range(4) for m in ("ours", "baseline")
        ]

    def test_records_are_verified_and_satisfied_without_blocks(self):
        records, _ = run_bench(small_config())
        assert all(r.satisfied for r in records)
        assert all(r.steps > 0 for r in records)

    def test_deterministic_across_runs(self):
        a, _ = run_bench(small_config())
        b, _ = run_bench(small_config())
        assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_bench(small_config(methods=("nearest",)))


class TestSummarize:
    def test_single_run(self):
        records = [RunRecord(0, "ours", 0, True, 10, 3)]
        text, data = summarize(records)
        row = data["rows"][0]
        assert row["satisfaction_rate"] == 100.0
        assert row["avg_steps"] == 10.0
        assert "100.00%" in text

    def test_deadlocks_count_toward_average(self):
        records = [
            RunRecord(0, "baseline", 5, True, 10, 3),
            RunRecord(1, "baseline", 5, False, 4, 3),
        ]
        _, data = summarize(records)
        row = data["rows"][0]
        assert row["satisfaction_rate"] == 50.0
        assert row["avg_steps"] == 7.0

    def test_one_row_per_setting_and_method(self):
        records = [
            RunRecord(0, "ours", 0, True, 10, 1),
            RunRecord(0, "baseline", 0, True, 12, 1),
            RunRecord(1, "ours", 5, True, 11, 1),
            RunRecord(1, "baseline", 5, False, 6, 1),
        ]
        text, data = summarize(records)
        keys = [(row["n_blocks"], row["method"]) for row in data["rows"]]
        assert keys == [(0, "baseline"), (0, "ours"), (5, "baseline"), (5, "ours")]
        assert len(text.splitlines()) == 2 + 4

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_conventions_recorded(self):
        _, data = summarize([RunRecord(0, "ours", 0, True, 1, 1)])
        assert "baseline" in data["conventions"]


class TestResultsFile:
    def test_jsonl_layout(self, tmp_path):
        records, summary = run_bench(small_config(n_maps=2))
        out = tmp_path / "results.jsonl"
        write_results(out, records, summary)
        lines = out.read_text().splitlines()
        assert len(lines) == len(records) + 1
        for line in lines[:-1]:
            doc = json.loads(line)
            assert set(doc) == {"map_seed", "method", "n_blocks", "satisfied", "steps"}
        assert "summary" in json.loads(lines[-1])

    def test_byte_identical_across_runs(self, tmp_path):
        config = small_config(n_maps=3)
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            records, summary = run_bench(config)
            path = tmp_path / name
            write_results(path, records, summary)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_matches_recorded_digest(self, tmp_path):
        # the paper's setting at 20x20, as `tlfrontier bench --size 20
        # --n-blocks 0,5,20 --n-maps 5 --out ...` writes it
        records = []
        for n_blocks in (0, 5, 20):
            records.extend(run_bench(BenchConfig(size=20, n_blocks=n_blocks, n_maps=5))[0])
        out = tmp_path / "results.jsonl"
        write_results(out, records, summarize(records)[1])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RECORDED_DIGEST

    def test_matches_recorded_digest_at_size_40(self, tmp_path):
        # longer episodes over larger known sets, as `tlfrontier bench
        # --size 40 --n-blocks 20 --n-maps 3 --out ...` writes them
        records = run_bench(BenchConfig(size=40, n_blocks=20, n_maps=3))[0]
        out = tmp_path / "results.jsonl"
        write_results(out, records, summarize(records)[1])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RECORDED_DIGEST_SIZE_40

    def test_timings_flag_adds_wall_clock(self, tmp_path):
        records, summary = run_bench(small_config(n_maps=1))
        out = tmp_path / "timed.jsonl"
        write_results(out, records, summary, include_timings=True)
        first = json.loads(out.read_text().splitlines()[0])
        assert "wall_ms" in first


class TestDefaults:
    def test_default_formula_is_the_rescue_task(self):
        assert BenchConfig().formula == PHI1

    def test_per_map_seed_offsets(self):
        config = BenchConfig(base_seed=7)
        assert [config.map_seed(i) for i in range(3)] == [7, 8, 9]

    def test_planner_config_embedded(self):
        config = BenchConfig(cfg=PlannerConfig(h=2))
        assert config.cfg.h == 2
