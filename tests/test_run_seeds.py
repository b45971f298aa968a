"""Run artifact bytes at ten seeds, pinned by sha256.

Each `configs/run_*.json` with n <= 12, and each variant of one below, is
run once per seed 0..9, and `run_summary.json` and `trajectories.csv` must
match the hashes in run_seed_hashes.json.  A golden config pins one seed;
this pins every draw of the control loop, its samples and their printed
digits across many streams.
Regenerate (only after an intended change of output) with

    PYTHONPATH=src python tests/test_run_seeds.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from mdqo.cli import main

ROOT = Path(__file__).resolve().parent.parent
HASHES = Path(__file__).with_name("run_seed_hashes.json")
CONFIGS = (
    "run_maxcut.json",
    "run_maxcut_n12.json",
    "run_mis_feasible.json",
    "run_mis_feasible_n12.json",
    "run_mis_penalty_n12.json",
)
# A variant is a shipped config with some top-level sections replaced.
# run_mis_feasible_n12's graph in the shape of perfbench's a2-mis-n18: the
# threshold half a vertex below the optimum 4 and min_steps_ell = 0, so a
# success returns and every failure scrambles, and a budget in steps.  Each
# trajectory is a chain of scrambles at counts (1, 0), the same chain for
# every trajectory of a run.
VARIANTS = {
    "mis_feasible_n12_scramble_each_failure": (
        "run_mis_feasible_n12.json",
        {
            "criteria": {"threshold_T": 3.5, "min_steps_ell": 0},
            "run": {"algorithm": 2, "budget": {"max_total_steps": 400}, "trajectory_csv": True},
        },
    ),
}
SEEDS = range(10)


def config_path(name: str, tmp: Path) -> Path:
    if name not in VARIANTS:
        return ROOT / "configs" / name
    shipped, sections = VARIANTS[name]
    config = json.loads((ROOT / "configs" / shipped).read_text()) | sections
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(config))
    return path


def run_hashes(name: str, seed: int, tmp: Path) -> dict[str, str]:
    out = tmp / "out"
    config = config_path(name, tmp)
    assert main(["run", "--config", str(config), "--out", str(out), "--seed", str(seed)]) == 0
    return {
        artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
        for artifact in ("run_summary.json", "trajectories.csv")
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CONFIGS + tuple(VARIANTS))
def test_run_bytes_hold_at_seed(name, seed, tmp_path):
    assert run_hashes(name, seed, tmp_path) == json.loads(HASHES.read_text())[name][str(seed)]


if __name__ == "__main__":
    import tempfile

    hashes = {}
    for name in CONFIGS + tuple(VARIANTS):
        hashes[name] = {}
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                hashes[name][str(seed)] = run_hashes(name, seed, Path(tmp))
    HASHES.write_text(json.dumps(hashes, indent=1) + "\n")
