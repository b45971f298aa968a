"""Self-test of the benchmark harness: python3 -m pytest perfbench/test_harness.py

Shows that a nonzero exit and a corrupted artifact each count as a failed
operation, that the printed metric names are those BENCHMARK.json declares,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture
def small_walk(tmp_path, monkeypatch):
    """The walk-mc invocation with few trials, its config written under tmp_path."""
    monkeypatch.setattr(run, "WORK", tmp_path)
    base = workloads.build("walk-mc", 1)
    inv = base.invocations[0]
    config = {**inv.config, "walk": {**inv.config["walk"], "mc_trials": 1000}}
    inv = dataclasses.replace(inv, config=config)
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / f"{inv.out}.json").write_text(json.dumps(config))
    return dataclasses.replace(base, invocations=(inv,))


def test_clean_pass_has_no_failures(small_walk, tmp_path):
    tally = run.Tally()
    run.run_pass(small_walk, tmp_path / "pass", None, tally, False)
    assert (tally.attempted, tally.failed) == (4, 0), tally.messages


def test_nonzero_exit_is_counted(small_walk, tmp_path):
    (tmp_path / "configs" / "walk.json").write_text(json.dumps({"walk": {"bogus": 1}}))
    tally = run.Tally()
    run.run_pass(small_walk, tmp_path / "pass", None, tally, False)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "exited 2" in tally.messages[0]


@pytest.mark.parametrize("pinned", [True, False])
def test_corrupted_artifact_is_counted(small_walk, tmp_path, monkeypatch, pinned):
    """Caught by the golden hash when one is pinned, else by the walk invariant."""
    first = run.run_pass(small_walk, tmp_path / "clean", None, run.Tally(), False)
    inv = small_walk.invocations[0]
    golden = {"walk": {n: workloads.sha256(first.outdirs[0] / n) for n in inv.artifacts}}
    real_invoke = run.invoke

    def corrupting_invoke(argv, *rest):
        result = real_invoke(argv, *rest)
        path = Path(argv[argv.index("--out") + 1]) / "walk.csv"
        path.write_text(path.read_text().replace("true", "false"))
        return result

    monkeypatch.setattr(run, "invoke", corrupting_invoke)
    tally = run.Tally()
    run.run_pass(small_walk, tmp_path / "corrupt", golden if pinned else None, tally, False)
    assert (tally.attempted, tally.failed) == (4, 1)
    expected = "sha256" if pinned else "corrected_matches is false"
    assert tally.messages[0].startswith("walk/walk.csv: ") and expected in tally.messages[0]


def _last_json(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    code, result = _last_json(
        "--workload", "walk-mc", "--seed", "1", "--seconds", "0", "--trace", trace
    )
    assert code == 0 and result is not None
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result = _last_json(
        "--workload", "a1-maxcut-n18", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert code != 0 and result is None
