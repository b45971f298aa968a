"""Walk artifact bytes at twenty seeds, pinned by sha256.

`configs/walk_mc.json`'s grid with `mc_trials` set to 20,000 is run once per
seed 0..19, and `walk.csv` and `walk_runs.csv` must match the hashes in
walk_seed_hashes.json.  A golden config pins one seed; this pins the Monte
Carlo's draws, its statistics and their printed digits across many streams.
Regenerate (only after an intended change of output) with

    PYTHONPATH=src python tests/test_walk_seeds.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from mdqo.cli import main

ROOT = Path(__file__).resolve().parent.parent
HASHES = Path(__file__).with_name("walk_seed_hashes.json")
SEEDS = range(20)
TRIALS = 20_000


def walk_hashes(seed: int, tmp: Path) -> dict[str, str]:
    config = json.loads((ROOT / "configs" / "walk_mc.json").read_text())
    config["walk"]["mc_trials"] = TRIALS
    path = tmp / "walk.json"
    path.write_text(json.dumps(config))
    out = tmp / "out"
    assert main(["walk", "--config", str(path), "--out", str(out), "--seed", str(seed)]) == 0
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("walk.csv", "walk_runs.csv")
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_walk_bytes_hold_at_seed(seed, tmp_path):
    assert walk_hashes(seed, tmp_path) == json.loads(HASHES.read_text())[str(seed)]


if __name__ == "__main__":
    import tempfile

    hashes = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            hashes[str(seed)] = walk_hashes(seed, Path(tmp))
    HASHES.write_text(json.dumps(hashes, indent=1) + "\n")
