"""Relabelling oracle: a graph with its vertices permuted gives the same trajectories.

A step draw reads only the state's weight on each cost level, and
relabelling the vertices only permutes which basis states hold a level.  From
a uniform or feasible-uniform start every entry of a level holds the same
float, so each level weight keeps its bits and every draw, criterion and
scramble repeats.  After a mixer the level weights are float sums in permuted
order; equality is observed there, not guaranteed (compare the weights
before suspecting a bug).  The final sample is drawn in index order, which
relabelling permutes, so final_sample and final_cost are not compared.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from mdqo.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# what a trajectory did, as opposed to where its final sample landed
COLUMNS = ("steps", "k0", "k1", "scrambles", "terminal_reason")


def trajectories(config: dict, out: Path) -> list[tuple[str, ...]]:
    out.mkdir()
    path = out / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "trajectories.csv", newline="") as fh:
        return [tuple(row[c] for c in COLUMNS) for row in csv.DictReader(fh)]


def relabelled(config: dict, perm: np.ndarray) -> dict:
    """The config with vertex v (1-indexed) renamed perm[v - 1] + 1."""
    graph = config["problem"]["graph"]
    edges = [[int(perm[u - 1]) + 1, int(perm[v - 1]) + 1] for u, v in graph["edges"]]
    problem = {**config["problem"], "graph": {**graph, "edges": edges}}
    return {**config, "problem": problem}


@pytest.mark.parametrize(
    "name", ["run_maxcut", "run_maxcut_n12", "run_mis_feasible_n12", "run_mis_penalty_n12"]
)
def test_relabelled_graph_gives_the_same_trajectories(name, tmp_path):
    config = json.loads((CONFIGS / f"{name}.json").read_text())
    original = trajectories(config, tmp_path / "original")
    n = config["problem"]["graph"]["n"]
    for seed in (1, 2):
        perm = np.random.default_rng(seed).permutation(n)
        assert not np.array_equal(perm, np.arange(n))
        assert trajectories(relabelled(config, perm), tmp_path / f"perm{seed}") == original
