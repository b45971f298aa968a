"""Workload inputs for the mdqo benchmark, generated from a seed, and the
correctness checks for the artifacts each workload writes.

A workload is a list of CLI invocations.  Every graph is a seeded random
3-regular graph.  Budgets are set in steps
or trajectories, not time, so one pass does about the same work on every seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The seed at which every artifact must match perfbench/golden.json, the
# sha256 hashes written by the seed commit of this benchmark.
DEFAULT_SEED = 0

ARTIFACTS = {
    "run": ("run_summary.json", "trajectories.csv", "run_config.json"),
    "postprocess": (
        "postprocess_density.csv", "postprocess_summary.csv", "postprocess_config.json",
    ),
    "scramble-study": ("scramble_top.csv", "scramble_bottom.csv", "scramble_study_config.json"),
    "walk": ("walk.csv", "walk_runs.csv", "walk_config.json"),
}

TOL = 1e-9


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]  # 0-indexed, u < v

    def config(self) -> dict:
        return {"n": self.n, "edges": [[u + 1, v + 1] for u, v in self.edges]}

    def cut_table(self) -> np.ndarray:
        idx = np.arange(2**self.n, dtype=np.int64)
        cut = np.zeros(2**self.n, dtype=np.int64)
        for u, v in self.edges:
            cut += ((idx >> u) ^ (idx >> v)) & 1
        return cut

    def mis_table(self) -> np.ndarray:
        """Vertex count of each independent set, -1 where an edge is inside the set."""
        idx = np.arange(2**self.n, dtype=np.int64)
        size = np.zeros(2**self.n, dtype=np.int64)
        for u in range(self.n):
            size += (idx >> u) & 1
        for u, v in self.edges:
            size[((idx >> u) & (idx >> v) & 1) == 1] = -1
        return size


def random_graph(rng: np.random.Generator, n: int) -> Graph:
    """A random 3-regular simple graph (pairing model, redrawn until simple).

    Regular degrees keep per-vertex kernel costs, such as the mis-controlled
    mixer's 2^n / 2^(deg + 1) updated rows, the same on every seed.
    """
    while True:
        stubs = rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2)
        edges = {(int(min(u, v)), int(max(u, v))) for u, v in stubs if u != v}
        if len(edges) == len(stubs):
            return Graph(n, tuple(sorted(edges)))


def bits_to_index(text: str) -> int:
    """Inverse of the CLI's bitstring rendering: character u is bit u."""
    return sum(1 << u for u, ch in enumerate(text) if ch == "1")


@dataclass(frozen=True)
class Invocation:
    command: str
    config: dict
    out: str  # output directory name, relative to the pass directory
    check: Callable[[Path], dict[str, list[str]]]  # outdir -> errors per artifact

    @property
    def artifacts(self) -> tuple[str, ...]:
        return ARTIFACTS[self.command]


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # qubits of the largest dense state the workload holds
    invocations: tuple[Invocation, ...]


# ---------------------------------------------------------------------------
# artifact readers and shared checks


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sidecar_errors(path: Path, command: str, seed: int | None) -> list[str]:
    side = json.loads(path.read_text())
    errors = []
    if side.get("command") != command:
        errors.append(f"sidecar command {side.get('command')!r} != {command!r}")
    if seed is not None and side.get("seed") != seed:
        errors.append(f"sidecar seed {side.get('seed')!r} != {seed}")
    return errors


def _run_checks(graph: Graph, kind: str, seed: int):
    """Checks for `mdqo run` artifacts against an independent brute-force oracle."""
    table = graph.cut_table() if kind == "maxcut" else graph.mis_table()
    optimum = int(table.max())

    def check(outdir: Path) -> dict[str, list[str]]:
        summary = json.loads((outdir / "run_summary.json").read_text())
        rows = _rows(outdir / "trajectories.csv")
        s_err: list[str] = []
        t_err: list[str] = []
        steps = [int(r["steps"]) for r in rows]
        costs = [float(r["final_cost"]) for r in rows]
        if summary["total_steps"] != sum(steps):
            s_err.append(f"total_steps {summary['total_steps']} != csv sum {sum(steps)}")
        if summary["trajectories_run"] != len(rows):
            s_err.append(f"trajectories_run {summary['trajectories_run']} != rows {len(rows)}")
        if not rows or summary["best_cost"] != max(costs):
            s_err.append("best_cost is not the largest final_cost")
        if summary["best_cost"] > optimum:
            s_err.append(f"best_cost {summary['best_cost']} exceeds the optimum {optimum}")
        if table[bits_to_index(summary["best_bitstring_text"])] != summary["best_cost"]:
            s_err.append("best_bitstring_text does not have cost best_cost")
        if summary["seed"] != seed:
            s_err.append(f"summary seed {summary['seed']} != {seed}")
        for r in rows:
            x = bits_to_index(r["final_sample"])
            if kind == "mis" and table[x] < 0:
                t_err.append(f"row {r['index']}: sample {r['final_sample']} is not independent")
            elif table[x] != float(r["final_cost"]):
                t_err.append(f"row {r['index']}: final_cost {r['final_cost']} != {table[x]}")
            if r["terminal_reason"] not in ("threshold", "surplus", "ceiling", "reset"):
                t_err.append(f"row {r['index']}: unknown reason {r['terminal_reason']!r}")
            if r["scrambles"] == "0" and int(r["steps"]) != int(r["k0"]) + int(r["k1"]):
                t_err.append(f"row {r['index']}: steps != k0 + k1 without scrambles")
        return {
            "run_summary.json": s_err,
            "trajectories.csv": t_err[:5],
            "run_config.json": _sidecar_errors(outdir / "run_config.json", "run", seed),
        }

    return check


def _postprocess_check(graph: Graph):
    optimum = int(graph.cut_table().max())

    def check(outdir: Path) -> dict[str, list[str]]:
        rows = _rows(outdir / "postprocess_density.csv")
        d_err = []
        for col in [c for c in rows[0] if c.startswith("p_")]:
            total = sum(float(r[col]) for r in rows)
            if abs(total - 1.0) > TOL:
                d_err.append(f"column {col} sums to {total!r}")
        summary = {r["state"]: float(r["H"]) for r in _rows(outdir / "postprocess_summary.csv")}
        s_err = []
        if abs(summary["uniform"] - len(graph.edges) / 2) > TOL:
            s_err.append(f"<H> of the uniform state {summary['uniform']} != m/2")
        # Reweighting by the increasing factor sin(c + pi/4) cannot lower <H>.
        chain = [summary["uniform"], summary["qaoa1"]] + [
            summary[k] for k in sorted(k for k in summary if k.startswith("qaoa1_k1_"))
        ]
        if any(b < a - TOL for a, b in zip(chain, chain[1:])) or chain[-1] > optimum + TOL:
            s_err.append(f"<H> chain {chain} is not nondecreasing up to {optimum}")
        return {
            "postprocess_density.csv": d_err,
            "postprocess_summary.csv": s_err,
            "postprocess_config.json": _sidecar_errors(
                outdir / "postprocess_config.json", "postprocess", None
            ),
        }

    return check


def _scramble_check(graph: Graph):
    m = len(graph.edges)

    def in_range(path: Path) -> list[str]:
        for r in _rows(path):
            for key, val in r.items():
                if key.startswith("H_") and not -TOL <= float(val) <= m + TOL:
                    return [f"{key} = {val} lies outside [0, {m}]"]
        return []

    def check(outdir: Path) -> dict[str, list[str]]:
        return {
            "scramble_top.csv": in_range(outdir / "scramble_top.csv"),
            "scramble_bottom.csv": in_range(outdir / "scramble_bottom.csv"),
            "scramble_study_config.json": _sidecar_errors(
                outdir / "scramble_study_config.json", "scramble-study", None
            ),
        }

    return check


def _walk_check(seed: int):
    return lambda outdir: _walk_errors(outdir, seed)


def _walk_errors(outdir: Path, seed: int) -> dict[str, list[str]]:
    w_err = []
    rows = _rows(outdir / "walk.csv")
    for r in rows:
        if r["R"] and r["corrected_matches"] != "true":
            w_err.append(f"p={r['p']} L={r['L']} R={r['R']}: corrected_matches is false")
    if not any(r["R"] for r in rows):
        w_err.append("no reset rows to check")
    r_err = []
    for r in _rows(outdir / "walk_runs.csv"):
        if not float(r["expected"]) >= int(r["L"]):
            r_err.append(f"p={r['p']} L={r['L']}: expected {r['expected']} < L")
    return {
        "walk.csv": w_err,
        "walk_runs.csv": r_err,
        "walk_config.json": _sidecar_errors(outdir / "walk_config.json", "walk", seed),
    }


# ---------------------------------------------------------------------------
# the four workloads


def _a1(seed: int) -> Workload:
    # Algorithm 1 only measures: weak steps dominate, no mixer is ever applied.
    graph = random_graph(np.random.default_rng([seed, 1]), 18)
    config = {
        "problem": {"kind": "maxcut", "graph": graph.config()},
        "rescaling": {"mode": "brute-force", "name": "tight"},
        "criteria": {"surplus_L": 12, "reset_R": 4},
        "initial_state": {"kind": "uniform"},
        "run": {
            "algorithm": 1,
            "budget": {"max_total_steps": 600},
            "trajectory_csv": True,
        },
        "seed": seed,
    }
    inv = Invocation("run", config, "run", _run_checks(graph, "maxcut", seed))
    return Workload("a1-maxcut-n18", 18, (inv,))


def _a2(seed: int) -> Workload:
    # The threshold sits just below the optimum with min_steps_ell = 0, so a
    # success ends a trajectory and every failure scrambles: short
    # trajectories, one dense sample each, and a mixer pass per failure.
    # The budget is in steps: the failure count is random, and a fixed step
    # count leaves only the scramble/sample trade-off to vary with it.
    graph = random_graph(np.random.default_rng([seed, 2]), 18)
    optimum = int(graph.mis_table().max())
    config = {
        "problem": {"kind": "mis", "graph": graph.config()},
        "rescaling": {"mode": "brute-force", "name": "tight"},
        "criteria": {"threshold_T": optimum - 0.5, "min_steps_ell": 0},
        "initial_state": {"kind": "feasible-uniform"},
        "mixer": {"kind": "mis-controlled", "chi_tilde": 4},
        "run": {
            "algorithm": 2,
            "budget": {"max_total_steps": 400},
            "trajectory_csv": True,
        },
        "seed": seed,
    }
    inv = Invocation("run", config, "run", _run_checks(graph, "mis", seed))
    return Workload("a2-mis-n18", 18, (inv,))


def _studies(seed: int) -> Workload:
    # Closed-form paths only: the depth-1 grid search, analytic_state at
    # large counts and mixers on fixed states; no weak step, no control loop.
    # A 3-regular graph needs an even n: the grid search runs at n = 10 with
    # resolution 128, the same O(res^2 4^n) work as n = 11 at resolution 64.
    rng = np.random.default_rng([seed, 3])
    small = random_graph(rng, 10)
    large = random_graph(rng, 18)
    post = {
        "problem": {"kind": "maxcut", "graph": small.config()},
        "postprocess": {"grid_resolution": 128, "k1": [1, 2, 3], "bound": "tight"},
    }
    scramble = {
        "problem": {"kind": "maxcut", "graph": large.config()},
        "scramble": {
            "start_counts": [50, 160],
            "bound": "tight",
            "mixer_kind": "transverse-field",
            "top": {
                "k1_grid": {"start": 0, "stop": 100, "step": 5},
                "chi_tilde": [1, 2, 3, 4, 5, 6],
            },
            "bottom": {
                "surplus_grid": {"start": 0, "stop": 100, "step": 5},
                "chi_tilde": 3,
                "k0_tilde": [0, 1, 2, 3],
            },
        },
    }
    return Workload(
        "studies",
        18,
        (
            Invocation("postprocess", post, "postprocess", _postprocess_check(small)),
            Invocation("scramble-study", scramble, "scramble", _scramble_check(large)),
        ),
    )


def _walk_mc(seed: int) -> Workload:
    # The shipped walk_mc grid with twice the trials: analysis only, no statevector.
    config = {
        "walk": {
            "p": [0.65, 0.75, 0.85, 0.95],
            "L": [1, 2, 5],
            "R": [1, 5, None],
            "mc_trials": 400000,
            "mc_step_cap": 100000000,
            "include_run_rule": True,
        },
        "seed": seed,
    }
    return Workload("walk-mc", 0, (Invocation("walk", config, "walk", _walk_check(seed)),))


BUILDERS = {
    "a1-maxcut-n18": _a1,
    "a2-mis-n18": _a2,
    "studies": _studies,
    "walk-mc": _walk_mc,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_invocation(
    inv: Invocation, outdir: Path, golden: dict[str, str] | None
) -> dict[str, list[str]]:
    """Errors per expected artifact: missing file, golden-hash mismatch, invariants.

    A check that raises (unparseable file, missing column) counts as an error
    of the artifact it was checking.
    """
    errors: dict[str, list[str]] = {}
    for name in inv.artifacts:
        path = outdir / name
        errors[name] = []
        if not path.is_file():
            errors[name] = ["missing"]
        elif golden is not None and (digest := sha256(path)) != golden.get(name):
            errors[name] = [f"sha256 {digest} != golden {golden.get(name)}"]
    if all(errors[name] != ["missing"] for name in inv.artifacts):
        try:
            for name, errs in inv.check(outdir).items():
                errors[name] += errs
        except (ValueError, KeyError, IndexError, TypeError, json.JSONDecodeError) as exc:
            errors[inv.artifacts[0]].append(f"check raised {exc!r}")
    return errors

