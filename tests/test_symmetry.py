"""Relabelling oracle: a graph with its vertices permuted gives the same trajectories.

A step draw reads only the state's weight on each cost level, and
relabelling the vertices only permutes which basis states hold a level.  From
a uniform or feasible-uniform start every entry of a level holds the same
float, so each level weight keeps its bits and every draw, criterion and
scramble repeats: algorithm 1 from such a start repeats by construction.  The
transverse-field mixer rotates every qubit alike, so it commutes with
relabelling, and its level weights are float sums in permuted order; equality
is observed there, not guaranteed.  The mis-controlled mixer does not commute
with relabelling: its rotations do not commute with each other and run in
ascending vertex order, so a relabelled graph gets a different mixer, and the
level weights after it move by up to about 1e-2 at n = 5 and 1e-3 at n = 12.
Its runs repeat only where the draws happen to land alike.  The final sample
is drawn in index order, which relabelling permutes, so final_sample and
final_cost are not compared.

A vertex without edges changes no cost; it doubles each level's count and
halves each entry's weight, so the level weights agree to a few ulps (exactly
2^-n per entry only for even n) and the trajectories repeat.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from mdqo import (
    MIS_CONTROLLED,
    Graph,
    MixerSpec,
    ProblemInstance,
    apply_mixer,
    rescaling_from_bounds,
    spectrum_bounds,
    uniform_superposition,
)
from mdqo.cli import CHI_TILDE_UNIT, main
from mdqo.control import prepare_tables, weigh

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


def level_weights(config: dict, mixed: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The levels of the config's cost and the weights on them of its flat start,
    after one mis-controlled mixer of the config's chi_tilde if mixed."""
    problem, graph = config["problem"], config["problem"]["graph"]
    graph = Graph.from_1indexed(graph["n"], [tuple(e) for e in graph["edges"]])
    instance = ProblemInstance(graph, problem["kind"], problem.get("penalty_weight"))
    rescaling = rescaling_from_bounds(spectrum_bounds(instance.cost, "brute-force"))
    tables = prepare_tables(instance, rescaling)
    state = uniform_superposition(graph.n, instance.cost.basis)
    if mixed:
        chi = config["mixer"]["chi_tilde"] * CHI_TILDE_UNIT
        state = apply_mixer(state, MixerSpec(MIS_CONTROLLED, chi, graph))
    return tables.h, weigh(tables, state).w


def test_relabelling_changes_the_mis_controlled_mixer():
    config = json.loads((CONFIGS / "run_mis_feasible_n12.json").read_text())
    perm = np.random.default_rng(2).permutation(config["problem"]["graph"]["n"])
    h, w = level_weights(config, mixed=True)
    h_perm, w_perm = level_weights(relabelled(config, perm), mixed=True)
    assert np.array_equal(h, h_perm)
    assert np.abs(w - w_perm).max() > 1e-4
    # before the mixer the weights keep their bits
    assert np.array_equal(level_weights(config)[1], level_weights(relabelled(config, perm))[1])


@pytest.mark.parametrize("name", ["run_maxcut", "run_maxcut_n12"])
def test_isolated_vertices_give_the_same_trajectories(name, tmp_path):
    config = json.loads((CONFIGS / f"{name}.json").read_text())
    original = trajectories(config, tmp_path / "original")
    h, w = level_weights(config)
    for extra in (1, 2):
        graph = {**config["problem"]["graph"], "n": config["problem"]["graph"]["n"] + extra}
        padded = {**config, "problem": {**config["problem"], "graph": graph}}
        h_padded, w_padded = level_weights(padded)
        assert np.array_equal(h, h_padded)
        np.testing.assert_array_max_ulp(w, w_padded, maxulp=4)
        assert trajectories(padded, tmp_path / f"plus{extra}") == original


def random_graph_config(n: int, kind: str) -> dict:
    """An algorithm-1 run from the uniform start on a seeded graph of about 1.5 n edges."""
    rng = np.random.default_rng(n)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = sorted(rng.choice(len(pairs), size=3 * n // 2, replace=False))
    problem = {"kind": kind, "graph": {"n": n, "edges": [list(pairs[i]) for i in chosen]}}
    if kind == "mis":
        problem["penalty_weight"] = 1.5
    return {
        "problem": problem,
        "rescaling": {"mode": "brute-force"},
        "criteria": {"surplus_L": 6, "reset_R": 3},
        "run": {"algorithm": 1, "budget": {"max_trajectories": 50}, "trajectory_csv": True},
        "seed": n,
    }


@pytest.mark.parametrize("kind", ["maxcut", "mis"])
def test_relabelled_random_graphs_give_the_same_trajectories(kind, tmp_path):
    for n in range(6, 15):
        config = random_graph_config(n, kind)
        original = trajectories(config, tmp_path / f"n{n}")
        perm = np.random.default_rng(n).permutation(n)
        assert not np.array_equal(perm, np.arange(n))
        assert trajectories(relabelled(config, perm), tmp_path / f"n{n}perm") == original
