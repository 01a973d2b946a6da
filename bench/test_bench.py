"""Self-test of the benchmark: exact counts, metric names, refusal paths.

    python3 -m pytest bench -q        # one to three minutes on two cores

Not part of the tier-1 suite (pytest's testpaths is ``tests``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import REF_S, Reference, scale, scaled_spans  # noqa: E402
from run import tail  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

LEVEL_TOTALS = {"0": 5, "1": 72, "2": 1020, "3": 15120, "4": 235248}
LEVEL_SHADOWS = {"3": 1890, "4": 14703}


def bench(workload: str, trace: int, seconds: int = 1, cwd: str = ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, env=env,
    )
    return proc


def parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_tail_needs_ten_beyond():
    assert tail([1.0]) == (1.0, 50, 0)
    assert tail([float(i) for i in range(11)]) == (5.0, 50, 5)
    value, pct, beyond = tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90, 10)


def test_scaled_spans_scale_by_the_reference():
    # spans of 1 s and 2 s, the reference at its nominal time, then at twice it
    marks = [(1.0, REF_S), (3.0 + REF_S, REF_S)]
    assert scaled_spans(0.0, REF_S, marks) == pytest.approx((3.0, 3.0))
    slow = [(1.0, 2 * REF_S), (3.0 + 2 * REF_S, 2 * REF_S)]
    assert scaled_spans(0.0, 2 * REF_S, slow) == pytest.approx((3.0 * scale(2 * REF_S), 3.0))
    assert scale(2 * REF_S) == pytest.approx(0.5 ** 0.5)


def test_reference_factor_is_the_median_nearby():
    ref = Reference(iter([0.3, 0.1, 0.2]).__next__)
    ref.sample()
    ref.sample()
    now = ref.times[-1]
    assert ref.factor(now, now) == pytest.approx(scale(0.2))


def test_census_unit_report_is_the_first_levels_of_the_full_one():
    def levels(name):
        with open(os.path.join(HERE, "data", name), encoding="utf-8") as fh:
            return json.load(fh)["levels"]

    assert levels("census_n3.json") == levels("census_n4.json")[:4]


@pytest.fixture(scope="module")
def census_traced():
    return parse(bench("census", 1))


def test_census_exact_counts(census_traced):
    info, result = census_traced
    assert result["correct"] and result["failed"] == 0
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    levels = info["detail"]["levels"]
    assert {n: lv["total"] for n, lv in levels.items()} == LEVEL_TOTALS
    assert {n: levels[n]["shadows"] for n in LEVEL_SHADOWS} == LEVEL_SHADOWS
    v = values(result)
    total = sum(LEVEL_TOTALS.values())
    assert v["census.verdict.split"] == total
    assert v["census.expand.variants"] == total
    assert v["census.verdict.unresolved"] == 0
    assert v["census.dedup.rejected"] == 0
    assert v["census.dedup.calls"] == v["census.search.shadows"]
    assert v["invariants.state_sum.calls"] == 0  # brackets never run in the census
    assert "trace.overhead_s" in v


def test_shard_path_counts(census_traced):
    info, result = census_traced
    detail, v = info["detail"], values(result)
    searched = sum(lv["shadows"] for lv in detail["shard_levels"].values())
    assert v["census.shard.searched_shadows"] == searched
    assert v["census.shard.kept_shadows"] * 2 == searched  # each worker searches everything
    assert v["census.shard.kept_ratio"] == 0.5
    assert {n: lv["total"] for n, lv in detail["shard_levels"].items()} == LEVEL_TOTALS
    assert detail["shard_dedup_rejected"] == 0
    assert detail["shard_verdict_split"] == sum(LEVEL_TOTALS.values())


def test_identify_table_and_names():
    _, result = parse(bench("identify", 1))
    assert result["correct"]
    v = values(result)
    assert v["identify.table.entries"] == 27
    assert v["identify.query.calls"] > 0 and v["census.search.shadows"] == 0


def test_end_to_end_names_match_benchmark_json():
    info, result = parse(bench("cli_session", 0))
    assert result["correct"] and result["attempted"] == 9
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["context"]["TANGLEKIT_BUDGET"] is None
    assert info["detail"]["inputs_pinned"]
    assert len(info["detail"]["setup_samples_s"]) == 9  # one no-op before each command
    assert info["detail"]["reference_ms"]["samples"] == 10  # one before the cycle, one per command
    # forked commands start from the runner's image, so it must stay below theirs
    assert info["context"]["runner_peak_rss_mb"] < values(result)["peak_rss_mb"]


def test_generated_inputs_match_the_pins():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from inputs import GENERATORS, digest, pinned_digest

    for workload, generate in GENERATORS.items():
        for seed in range(10):
            assert digest(generate(seed)) == pinned_digest(workload, seed), (workload, seed)
        assert pinned_digest(workload, 10**6) is None


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("census", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_refuses_a_set_budget():
    env = dict(os.environ, TANGLEKIT_BUDGET="20")
    proc = bench("identify", 0, env=env)
    assert proc.returncode == 2 and "TANGLEKIT_BUDGET" in proc.stderr
