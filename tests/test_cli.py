"""End-to-end tests of the command-line entry point and its artifacts."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mdqo import ProblemInstance, bitstring_to_index, feasible, feasible_mask
from mdqo.cli import CHI_TILDE_UNIT, main
from mdqo.mixers import optimize_qaoa1
from mdqo.problems import Graph, driving_hamiltonian

G5_BLOCK = {
    "n": 5,
    "edges": [[1, 2], [2, 3], [3, 4], [1, 3], [2, 4], [2, 5]],
}
G5 = Graph.from_1indexed(5, [tuple(e) for e in G5_BLOCK["edges"]])


def test_cli_import_loads_no_scipy():
    import mdqo

    src = str(Path(mdqo.__file__).resolve().parent.parent)
    code = "import sys, mdqo.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_counts_maxcut(tmp_path):
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": G5_BLOCK},
            "sweep": {
                "k0": [0, 50],
                "bounds": ["tight", "loose"],
                "surplus_grid": {"values": [30, 60, 120, 200]},
            },
        },
    )
    out = tmp_path / "out"
    assert main(["sweep-counts", "--config", str(config), "--out", str(out)]) == 0

    rows = read_csv(out / "sweep_counts.csv")
    assert [row["L"] for row in rows] == ["30", "60", "120", "200"]
    tight = [float(row["H_maxcut_tight_k0_0"]) for row in rows]
    loose = [float(row["H_maxcut_loose_k0_0"]) for row in rows]
    assert tight == sorted(tight)
    assert abs(5.0 - tight[-1]) < 0.05
    for t, l in zip(tight, loose):
        assert l >= t
    for row in rows:
        for key, value in row.items():
            if key.startswith("p1_"):
                assert 0.5 < float(value) <= 1.0
    assert "H_maxcut_loose_k0_50" in rows[0]

    sidecar = json.loads((out / "sweep_counts_config.json").read_text())
    epsilons = {e["name"]: e["epsilon"] for e in sidecar["resolved"]["rescalings"]}
    assert epsilons["tight"] == pytest.approx(math.pi / 20)
    assert epsilons["loose"] == pytest.approx(math.pi / 24)


def test_sweep_counts_mis_feasible_dominates_penalized(tmp_path):
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "mis", "graph": G5_BLOCK},
            "sweep": {
                "k0": [0],
                "bounds": ["tight"],
                "surplus_grid": [30, 200],
                "penalty_weights": [3],
            },
        },
    )
    out = tmp_path / "out"
    assert main(["sweep-counts", "--config", str(config), "--out", str(out)]) == 0

    rows = read_csv(out / "sweep_counts.csv")
    feasible_h = [float(row["H_feasible_tight_k0_0"]) for row in rows]
    penalized_h = [float(row["H_penalized_lam3_tight_k0_0"]) for row in rows]
    assert abs(3.0 - feasible_h[-1]) < 0.05
    for f, p in zip(feasible_h, penalized_h):
        assert f >= p
    assert all(float(row["P_penalized_lam3_tight_k0_0"]) >= 0.0 for row in rows)

    sidecar = json.loads((out / "sweep_counts_config.json").read_text())
    by_variant = {e["variant"]: e for e in sidecar["resolved"]["rescalings"]}
    assert by_variant["feasible"]["epsilon"] == pytest.approx(math.pi / 12)
    assert by_variant["penalized_lam3"]["s"] == 13.0
    assert by_variant["penalized_lam3"]["t"] == 3.0
    assert by_variant["penalized_lam3"]["epsilon"] == pytest.approx(math.pi / 64)


def test_sweep_counts_huge_counts_leak_no_warning(tmp_path):
    from test_golden import ROOT

    payload = json.loads((ROOT / "configs" / "maxcut_sweep.json").read_text())
    payload["sweep"].update(k0=[10**308], surplus_grid=[0])
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep-counts", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "sweep_counts.csv").read_text().splitlines()[1] == "0,0,0.5,0,0.5"


def test_postprocess_artifacts(tmp_path):
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": G5_BLOCK},
            "postprocess": {"grid_resolution": 64},
        },
    )
    out = tmp_path / "out"
    assert main(["postprocess", "--config", str(config), "--out", str(out)]) == 0

    density = read_csv(out / "postprocess_density.csv")
    assert [row["cost"] for row in density] == ["0", "1", "2", "3", "4", "5"]
    assert float(density[0]["p_uniform"]) == pytest.approx(2 / 32)
    for label in ("p_uniform", "p_qaoa1", "p_qaoa1_k1_3"):
        assert sum(float(row[label]) for row in density) == pytest.approx(1.0)

    summary = {row["state"]: float(row["H"]) for row in read_csv(out / "postprocess_summary.csv")}
    assert summary["uniform"] == pytest.approx(3.0)
    assert summary["qaoa1"] > 3.0
    assert summary["qaoa1_k1_1"] > summary["qaoa1"]
    assert summary["qaoa1_k1_2"] > summary["qaoa1_k1_1"]
    assert summary["qaoa1_k1_3"] > summary["qaoa1_k1_2"]

    sidecar = json.loads((out / "postprocess_config.json").read_text())
    assert set(sidecar["resolved"]["qaoa1"]) == {"gamma", "beta", "grid_resolution"}


def test_scramble_study_artifacts(tmp_path):
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": G5_BLOCK},
            "scramble": {
                "start_counts": [50, 160],
                "top": {"k1_grid": [0, 100]},
                "bottom": {"surplus_grid": [0, 50], "k0_tilde": [0, 1]},
            },
        },
    )
    out = tmp_path / "out"
    assert main(["scramble-study", "--config", str(config), "--out", str(out)]) == 0

    top = read_csv(out / "scramble_top.csv")
    assert [row["k1_tilde"] for row in top] == ["0", "100"]
    assert float(top[0]["H_baseline"]) == pytest.approx(2.0, abs=0.1)
    final = top[1]
    for ct in range(1, 7):
        assert float(final[f"H_chi_{ct}"]) > float(final["H_baseline"])

    bottom = read_csv(out / "scramble_bottom.csv")
    assert list(bottom[0]) == [
        "L_tilde", "H_k0_0", "H_baseline_k0_0", "H_k0_1", "H_baseline_k0_1",
    ]
    assert [row["L_tilde"] for row in bottom] == ["0", "50"]


@pytest.fixture
def study_work(monkeypatch):
    """Count the mixer calls, continuations and dense states of scramble-study.

    The continuations are counted under mdqo.cli and under the name that
    analytic_state calls, so the start state's own base counts too.
    """
    import mdqo.cli
    from mdqo import weak_measurement

    apply_mixer, continuation = mdqo.cli.apply_mixer, weak_measurement.continuation
    work = {"chis": [], "bases": [], "states": []}

    def counted_mixer(state, spec):
        work["chis"].append(spec.chi)
        return apply_mixer(state, spec)

    def counted_continuation(state0, c):
        at, base = continuation(state0, c), len(work["bases"])
        work["bases"].append(state0)

        def counted(counts):
            work["states"].append((base, counts.k0, counts.k1))
            return at(counts)

        return counted

    monkeypatch.setattr(mdqo.cli, "apply_mixer", counted_mixer)
    monkeypatch.setattr(mdqo.cli, "continuation", counted_continuation)
    monkeypatch.setattr(weak_measurement, "continuation", counted_continuation)
    return work


def test_scramble_study_does_each_piece_of_work_once(tmp_path, study_work):
    config = Path(__file__).resolve().parent.parent / "configs" / "scramble.json"
    assert main(["scramble-study", "--config", str(config), "--out", str(tmp_path)]) == 0
    # one mixer call per distinct chi_tilde: the bottom panel's 3 is in the top's 1..6
    assert len(study_work["chis"]) == len(set(study_work["chis"])) == 6
    # one base each: the uniform state the start comes from, the start, six mixed
    assert len({id(base) for base in study_work["bases"]}) == len(study_work["bases"]) == 8
    # the start, 21 top rows of 7 columns and 21 bottom rows of 8, less the
    # 42 bottom k0_tilde = 0 cells that repeat top cells
    states = study_work["states"]
    assert len(states) == len(set(states)) == 1 + 21 * 7 + 21 * 8 - 42


def test_scramble_study_mixes_a_bottom_chi_the_top_lacks(tmp_path, study_work):
    top = {"k1_grid": [0, 40, 80], "chi_tilde": [1, 2]}
    bottom = {"surplus_grid": [0, 30], "chi_tilde": 5, "k0_tilde": [0, 2]}
    panels = {
        "both": {"top": top, "bottom": bottom}, "top": {"top": top}, "bottom": {"bottom": bottom},
    }
    for name, panel in panels.items():
        scramble = {"start_counts": [50, 160], **panel}
        payload = {"problem": {"kind": "maxcut", "graph": G5_BLOCK}, "scramble": scramble}
        config = write_config(tmp_path, payload, f"{name}.json")
        assert main(["scramble-study", "--config", str(config), "--out", str(tmp_path / name)]) == 0
        if name == "both":
            assert sorted(study_work["chis"]) == [ct * CHI_TILDE_UNIT for ct in (1, 2, 5)]
    for panel in ("top", "bottom"):
        csv_name = f"scramble_{panel}.csv"
        assert (tmp_path / "both" / csv_name).read_bytes() == (tmp_path / panel / csv_name).read_bytes()


def test_scramble_study_holds_one_mixed_base_at_a_time(tmp_path, monkeypatch):
    # every mixed base, and its amplitudes, is gone before the next mixer
    # call, so the traced peak is a fixed number of 2**n states, whatever
    # the number of chi_tilde values: 6.66 states here, against 12.58 when
    # every base lived to the end of the command
    import mdqo.cli

    n = 14
    edges = [[u + 1, (u + 1) % n + 1] for u in range(n)] + [[u + 1, u + 8] for u in range(7)]
    scramble = {
        "start_counts": [50, 160],
        "top": {"k1_grid": {"start": 0, "stop": 100, "step": 5}, "chi_tilde": [1, 2, 3, 4, 5, 6]},
        "bottom": {"surplus_grid": {"start": 0, "stop": 100, "step": 5}, "k0_tilde": [0, 1, 2, 3]},
    }
    payload = {"problem": {"kind": "maxcut", "graph": {"n": n, "edges": edges}}, "scramble": scramble}
    config = write_config(tmp_path, payload)
    apply_mixer, mixed = mdqo.cli.apply_mixer, []

    def tracked_mixer(state, spec):
        assert all(ref() is None for ref in mixed)
        out = apply_mixer(state, spec)
        mixed.extend((weakref.ref(out), weakref.ref(out.amps)))
        return out

    monkeypatch.setattr(mdqo.cli, "apply_mixer", tracked_mixer)
    tracemalloc.start()
    try:
        assert main(["scramble-study", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mixed) == 2 * 6
    assert all(ref() is None for ref in mixed)
    assert peak < 8 * 2**n * np.dtype(np.complex128).itemsize


def test_scramble_study_reports_the_first_failing_cell_in_row_order(tmp_path, caplog):
    # cells are computed base by base but fail in the order the rows read
    # them: the top panel's first row, before the bottom panel's k0 = 1e308
    scramble = {
        "start_counts": [0, 0],
        "bound": PATH_BOUND,
        "top": {"k0_tilde": 10**308, "k1_grid": [0, 7], "chi_tilde": [2, 5]},
        "bottom": {"surplus_grid": [0, 9], "chi_tilde": 4, "k0_tilde": [0, 10**308]},
    }
    for panels, counts in ((("top", "bottom"), "(1e+308, 0)"), (("bottom",), "(1e+308, 1e+308)")):
        payload = {"problem": PATH_PROBLEM, "scramble": {
            key: value for key, value in scramble.items() if key not in ("top", "bottom") or key in panels
        }}
        config = write_config(tmp_path, payload)
        out = tmp_path / "-".join(panels)
        caplog.clear()
        assert main(["scramble-study", "--config", str(config), "--out", str(out)]) == 2
        [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert message.endswith(f"vanish on the state support for counts {counts}")
        assert list(out.iterdir()) == []


def test_scramble_study_failing_cell_stops_before_any_file_is_written(
    tmp_path, caplog, monkeypatch
):
    # a clean top panel is not written when a bottom cell vanishes
    import mdqo.cli

    written = []
    monkeypatch.setattr(mdqo.cli._Artifacts, "write", lambda self, name, text: written.append(name))
    scramble = {
        "start_counts": [0, 0],
        "bound": PATH_BOUND,
        "top": {"k1_grid": [0, 7], "chi_tilde": [2, 5]},
        "bottom": {"surplus_grid": [0, 9], "chi_tilde": 4, "k0_tilde": [10**308]},
    }
    config = write_config(tmp_path, {"problem": PATH_PROBLEM, "scramble": scramble})
    assert main(["scramble-study", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message.endswith("vanish on the state support for counts (1e+308, 1e+308)")
    assert written == []


def test_run_deterministic_zero_steps(tmp_path):
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": G5_BLOCK},
            "rescaling": {"mode": "brute-force"},
            "criteria": {"ceiling_KT": 0},
            "initial_state": {"kind": "basis", "bitstring": "10011"},
            "run": {"algorithm": 1, "budget": {"max_trajectories": 3}},
            "seed": 4,
        },
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0

    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["best_cost"] == 5.0
    assert summary["best_bitstring"] == 25
    assert summary["best_bitstring_text"] == "10011"
    assert summary["total_steps"] == 0
    assert summary["trajectories_run"] == 3
    assert summary["cost_histogram"] == {"5": 3}
    assert summary["seed"] == 4


def test_run_histogram_counts_every_trajectory(tmp_path):
    # penalised MIS costs such as 1.4 and 1.4000000000000004 print alike
    from test_golden import ROOT

    payload = json.loads((ROOT / "configs" / "run_maxcut.json").read_text())
    payload["problem"].update(kind="mis", penalty_weight=0.6)
    payload["criteria"] = {"ceiling_KT": 3}
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0

    summary = json.loads((out / "run_summary.json").read_text())
    rows = read_csv(out / "trajectories.csv")
    assert summary["trajectories_run"] == len(rows) == 200
    assert summary["cost_histogram"] == Counter(row["final_cost"] for row in rows)
    assert sum(summary["cost_histogram"].values()) == 200


def test_run_qaoa1_start_uses_the_grid_optimum(tmp_path):
    payload = {
        "problem": {"kind": "maxcut", "graph": G5_BLOCK},
        "rescaling": {"mode": "brute-force"},
        "criteria": {"surplus_L": 5},
        "initial_state": {"kind": "qaoa1", "grid_resolution": 16},
        "run": {"algorithm": 1, "budget": {"max_trajectories": 3}},
        "seed": 2,
    }
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0

    params = optimize_qaoa1(driving_hamiltonian(ProblemInstance(G5, "maxcut")), 16)
    echo = json.loads((out / "run_config.json").read_text())["resolved"]["initial_state"]
    assert echo == {"kind": "qaoa1", "grid_resolution": 16,
                    "gamma": params.gamma, "beta": params.beta}


def test_run_mixer_prepared_mis_start_stays_feasible(tmp_path):
    payload = {
        "problem": {"kind": "mis", "graph": G5_BLOCK},
        "rescaling": {"mode": "brute-force"},
        "criteria": {"surplus_L": 5},
        "initial_state": {"kind": "mixer-prepared", "chi0": 0.4},
        "run": {"algorithm": 1, "budget": {"max_trajectories": 30}, "trajectory_csv": True},
        "seed": 3,
    }
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0

    instance = ProblemInstance(G5, "mis")
    rows = read_csv(out / "trajectories.csv")
    assert len(rows) == 30
    for row in rows:
        assert feasible(instance, bitstring_to_index(row["final_sample"]))


def test_run_rerun_is_byte_identical(tmp_path):
    payload = {
        "problem": {"kind": "maxcut", "graph": G5_BLOCK},
        "rescaling": {"mode": "brute-force"},
        "criteria": {"surplus_L": 10, "reset_R": 3},
        "run": {
            "algorithm": 1,
            "budget": {"max_trajectories": 5},
            "trajectory_csv": True,
        },
        "seed": 7,
    }
    config = write_config(tmp_path, payload)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
    for name in ("run_summary.json", "trajectories.csv", "run_config.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    summary = json.loads((out_a / "run_summary.json").read_text())
    assert summary["trajectories_run"] == 5
    assert sum(summary["cost_histogram"].values()) == 5


def test_run_thread_count_does_not_change_output(tmp_path):
    payload = {
        "problem": {"kind": "maxcut", "graph": G5_BLOCK},
        "rescaling": {"mode": "brute-force"},
        "criteria": {"surplus_L": 12},
        "run": {"algorithm": 1, "budget": {"max_trajectories": 8}},
        "seed": 21,
    }
    config = write_config(tmp_path, payload)
    out_a = tmp_path / "serial"
    out_b = tmp_path / "parallel"
    assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(
        ["run", "--config", str(config), "--out", str(out_b), "--threads", "2"]
    ) == 0
    assert (out_a / "run_summary.json").read_bytes() == (
        out_b / "run_summary.json"
    ).read_bytes()


def test_run_seed_flag_overrides_config(tmp_path):
    payload = {
        "problem": {"kind": "maxcut", "graph": G5_BLOCK},
        "rescaling": {"mode": "brute-force"},
        "criteria": {"surplus_L": 8},
        "run": {"algorithm": 1, "budget": {"max_trajectories": 2}},
        "seed": 1,
    }
    config = write_config(tmp_path, payload)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
    assert (
        main(["run", "--config", str(config), "--out", str(out_b), "--seed", "2"]) == 0
    )
    a = json.loads((out_a / "run_summary.json").read_text())
    b = json.loads((out_b / "run_summary.json").read_text())
    assert a["seed"] == 1
    assert b["seed"] == 2


def test_run_feasible_mis_trajectories(tmp_path):
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "mis", "graph": G5_BLOCK},
            "rescaling": {"mode": "brute-force"},
            "criteria": {"threshold_T": 2.9, "ceiling_KT": 40, "min_steps_ell": 6},
            "initial_state": {"kind": "feasible-uniform"},
            "mixer": {"kind": "mis-controlled", "chi_tilde": 4},
            "run": {
                "algorithm": 2,
                "budget": {"max_trajectories": 50},
                "trajectory_csv": True,
            },
            "seed": 12,
        },
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0

    instance = ProblemInstance(G5, "mis")
    rows = read_csv(out / "trajectories.csv")
    assert len(rows) == 50
    for row in rows:
        assert feasible(instance, bitstring_to_index(row["final_sample"]))
        assert int(row["final_cost"].split(".")[0]) <= 3

    sidecar = json.loads((out / "run_config.json").read_text())
    assert sidecar["resolved"]["rescaling"]["epsilon"] == pytest.approx(math.pi / 12)


@pytest.fixture
def builds(monkeypatch):
    """The (name, n) of every build_mis, count_independent_sets and penalize
    call, n the vertex count of its graph or cost."""
    import mdqo.problems

    calls = []
    for name in ("build_mis", "count_independent_sets", "penalize"):
        def counted(first, *args, original=getattr(mdqo.problems, name), name=name):
            calls.append((name, first.n))
            return original(first, *args)

        monkeypatch.setattr(mdqo.problems, name, counted)
    return calls


def test_run_builds_mis_tables_once_before_the_loop(tmp_path, builds):
    # The driving cost, the feasible-uniform start, the control loop's level
    # table and the mixer share one build on the run's graph: the independent
    # sets in feasible-subspace mode, which builds no dense table, and the
    # dense tables with a penalty weight, penalised once.
    payload = {
        "problem": {"kind": "mis", "graph": G5_BLOCK},
        "rescaling": {"mode": "brute-force"},
        "criteria": {"threshold_T": 2.9, "ceiling_KT": 40},
        "initial_state": {"kind": "feasible-uniform"},
        "mixer": {"kind": "mis-controlled", "chi_tilde": 4},
        "run": {"algorithm": 2, "budget": {"max_trajectories": 3}},
        "seed": 1,
    }
    penalised = _with(payload, ["problem", "penalty_weight"], 2.0)
    for config, built in (
        (payload, ["count_independent_sets"]), (penalised, ["build_mis", "penalize"])
    ):
        builds.clear()
        path = write_config(tmp_path, config)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert builds == [(name, 5) for name in built]


def test_penalty_sweep_builds_each_graph_table_once(tmp_path, builds):
    # the feasible variant and the three penalty weights read one graph: one
    # count of its independent sets and one dense MIS build, whatever lam, and
    # one penalised cost per lam, whatever the number of bounds
    from test_golden import ROOT

    config = ROOT / "configs" / "mis_sweep_lambdas.json"
    assert main(["sweep-counts", "--config", str(config), "--out", str(tmp_path)]) == 0
    want = [("build_mis", 12), ("count_independent_sets", 12)] + [("penalize", 12)] * 3
    assert sorted(builds) == want


def test_transverse_field_scrambles_build_no_subspace(tmp_path, builds):
    # a transverse field keeps the full basis of an edgeless graph without
    # index pairs, so its scrambles build no table on a transient graph
    payload = {
        "problem": {"kind": "mis", "graph": {"n": 4, "edges": []}},
        "rescaling": {"mode": "brute-force"},
        "criteria": {"threshold_T": 3.9, "ceiling_KT": 30, "min_steps_ell": 2},
        "initial_state": {"kind": "uniform"},
        "mixer": {"kind": "transverse-field", "chi_tilde": 3},
        "run": {"algorithm": 2, "budget": {"max_trajectories": 40}, "trajectory_csv": True},
        "seed": 5,
    }
    path = write_config(tmp_path, payload)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "trajectories.csv")
    assert sum(int(row["scrambles"]) for row in rows) >= 3
    assert builds == [("count_independent_sets", 4)]


def test_penalised_feasible_uniform_start_bytes():
    # the dense feasible-uniform start keeps the bytes of the construction it
    # replaced: the mask cast to complex, then divided by the root of its count
    import mdqo.cli

    for i in range(40):
        n = 1 + i % 12
        rng = np.random.default_rng([n, i, 7])
        graph = Graph(
            n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4)
        )
        instance = ProblemInstance(graph, "mis", penalty_weight=2.0)
        state = mdqo.cli._initial_state({"kind": "feasible-uniform"}, instance)
        mask = feasible_mask(instance)
        amps = mask.astype(np.complex128)
        amps /= math.sqrt(int(mask.sum()))
        assert state.basis is None and state.amps.tobytes() == amps.tobytes()


def test_feasible_uniform_start_rejected_for_maxcut(tmp_path, caplog):
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": G5_BLOCK},
            "rescaling": {"mode": "brute-force"},
            "criteria": {"threshold_T": 2.0},
            "initial_state": {"kind": "feasible-uniform"},
            "run": {"algorithm": 1, "budget": {"max_trajectories": 1}},
            "seed": 0,
        },
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "initial_state: feasibility is defined for MIS instances only" in caplog.text


def test_walk_artifacts(tmp_path):
    config = write_config(
        tmp_path,
        {
            "walk": {
                "p": [0.75, 0.5],
                "L": [2],
                "R": [1, None],
                "mc_trials": 5000,
                "mc_step_cap": 50000,
            },
            "seed": 3,
        },
    )
    out = tmp_path / "out"
    assert main(["walk", "--config", str(config), "--out", str(out)]) == 0

    rows = {(row["p"], row["R"]): row for row in read_csv(out / "walk.csv")}
    canonical = rows[("0.75", "1")]
    assert float(canonical["exact"]) == pytest.approx(28 / 9, abs=1e-9)
    assert float(canonical["closed_printed"]) == pytest.approx(12.0)
    assert float(canonical["closed_corrected"]) == pytest.approx(28 / 9, abs=1e-9)
    assert canonical["printed_matches"] == "false"
    assert canonical["corrected_matches"] == "true"
    assert canonical["mc_within_3sigma"] == "true"
    assert canonical["mc_capped"] == "0"

    no_reset = rows[("0.75", "")]
    assert float(no_reset["exact"]) == pytest.approx(4.0)
    assert float(no_reset["bound"]) == pytest.approx(4.0)
    assert no_reset["closed_printed"] == ""

    symmetric = rows[("0.5", "")]
    assert symmetric["exact"] == ""
    assert symmetric["bound"] == ""
    assert int(symmetric["mc_capped"]) > 0
    assert symmetric["mc_within_3sigma"] == ""

    runs = {row["p"]: row for row in read_csv(out / "walk_runs.csv")}
    assert float(runs["0.75"]["expected"]) == pytest.approx(28 / 9)
    assert float(runs["0.5"]["expected"]) == pytest.approx(6.0)
    assert runs["0.75"]["mc_within_3sigma"] == "true"


def test_walk_without_monte_carlo_needs_no_seed(tmp_path):
    config = write_config(tmp_path, {"walk": {"p": [0.8], "L": [3]}})
    out = tmp_path / "out"
    assert main(["walk", "--config", str(config), "--out", str(out)]) == 0
    rows = read_csv(out / "walk.csv")
    assert rows[0]["mc_mean"] == ""


def test_walk_monte_carlo_requires_seed(tmp_path):
    config = write_config(tmp_path, {"walk": {"p": [0.8], "L": [3], "mc_trials": 10}})
    assert main(["walk", "--config", str(config), "--out", str(tmp_path)]) == 2


def test_walk_run_rule_with_an_underflowing_denominator_is_infinite(tmp_path):
    # (1 - p) p^L underflows to 0 from L = 2585 on at p = 0.75
    config = write_config(
        tmp_path, {"walk": {"p": [0.75], "L": [5000], "R": [None], "include_run_rule": True}}
    )
    out = tmp_path / "out"
    assert main(["walk", "--config", str(config), "--out", str(out)]) == 0
    [row] = read_csv(out / "walk_runs.csv")
    assert row["expected"] == "inf"
    assert read_csv(out / "walk.csv")[0]["exact"] == "10000"


def test_walk_closed_form_with_underflowing_powers_is_finite(tmp_path):
    # 0.6^1500 and 0.4^1500 both underflow to 0; (p/q)^200 = 99^200 overflows
    config = write_config(tmp_path, {"walk": {"p": [0.6, 0.99], "L": [3, 200], "R": [1, 1500]}})
    out = tmp_path / "out"
    assert main(["walk", "--config", str(config), "--out", str(out)]) == 0
    rows = {(row["p"], row["L"], row["R"]): row for row in read_csv(out / "walk.csv")}
    assert rows[("0.6", "3", "1500")]["closed_corrected"] == "15"
    assert rows[("0.6", "3", "1500")]["corrected_matches"] == "true"
    assert rows[("0.99", "200", "1")]["closed_printed"] == "inf"
    assert rows[("0.99", "200", "1")]["corrected_matches"] == "true"


def test_walk_reset_time_at_large_depths_and_targets(tmp_path):
    config = write_config(tmp_path, {"walk": {"p": [0.75], "L": [2, 10**20], "R": [1, 100000]}})
    out = tmp_path / "out"
    assert main(["walk", "--config", str(config), "--out", str(out)]) == 0
    rows = {(row["L"], row["R"]): row for row in read_csv(out / "walk.csv")}
    assert float(rows[("2", "100000")]["exact"]) == pytest.approx(4.0, rel=1e-12)
    assert float(rows[("100000000000000000000", "1")]["exact"]) == pytest.approx(2e20, rel=1e-12)


def test_walk_reset_time_below_one_half(tmp_path):
    # the true time at p = 0.01, L = 200, R = 1 is about 99^200, past the float range
    config = write_config(tmp_path, {"walk": {"p": [0.01, 0.3], "L": [200, 20], "R": [1, 5]}})
    out = tmp_path / "out"
    assert main(["walk", "--config", str(config), "--out", str(out)]) == 0
    rows = {(row["p"], row["L"], row["R"]): row for row in read_csv(out / "walk.csv")}
    assert rows[("0.01", "200", "1")]["exact"] == "inf"
    assert rows[("0.01", "200", "1")]["printed_matches"] == "false"
    assert rows[("0.3", "20", "5")]["corrected_matches"] == "true"


def test_run_requires_seed(tmp_path):
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": G5_BLOCK},
            "rescaling": {"mode": "brute-force"},
            "criteria": {"surplus_L": 5},
            "run": {"algorithm": 1, "budget": {"max_trajectories": 1}},
        },
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2


def test_unknown_key_rejected(tmp_path):
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": G5_BLOCK},
            "sweep": {"k0": [0], "bounds": ["tight"], "surplus_grid": [1]},
            "typo_key": 1,
        },
    )
    assert main(["sweep-counts", "--config", str(config), "--out", str(tmp_path)]) == 2


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["sweep-counts", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_oversized_integer_literal_rejected(tmp_path, caplog):
    path = tmp_path / "big.json"
    path.write_text('{"walk": {"p": [0.8], "L": [' + "9" * 5000 + "]}}")
    assert main(["walk", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert "is not valid JSON" in message


def test_config_file_not_utf8_rejected(tmp_path, caplog):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"walk": {"p": [0.8], "L": [3]}, "note": "\xe9"}')
    assert main(["walk", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message.startswith(f"config error: cannot read config file {path}: 'utf-8' codec")


def test_missing_config_file_rejected(tmp_path):
    assert (
        main(["walk", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        == 2
    )


def test_unknown_bound_shorthand_rejected(tmp_path):
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": G5_BLOCK},
            "sweep": {"k0": [0], "bounds": ["medium"], "surplus_grid": [1]},
        },
    )
    assert main(["sweep-counts", "--config", str(config), "--out", str(tmp_path)]) == 2


def test_mixer_chi_exclusivity_rejected(tmp_path):
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": G5_BLOCK},
            "rescaling": {"mode": "brute-force"},
            "criteria": {"threshold_T": 2.0, "ceiling_KT": 10},
            "mixer": {"kind": "transverse-field", "chi": 0.3, "chi_tilde": 2},
            "run": {"algorithm": 2, "budget": {"max_trajectories": 1}},
            "seed": 0,
        },
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2


def test_threshold_incompatible_with_rescaling_rejected(tmp_path):
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": G5_BLOCK},
            "rescaling": {"mode": "brute-force"},
            "criteria": {"threshold_T": 6.0},
            "run": {"algorithm": 1, "budget": {"max_trajectories": 1}},
            "seed": 0,
        },
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2


def test_unreachable_criteria_exit_with_config_code(tmp_path, caplog):
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": G5_BLOCK},
            "rescaling": {"mode": "brute-force"},
            "criteria": {"surplus_L": 100000},
            "run": {
                "algorithm": 1,
                "budget": {"max_trajectories": 1},
                "max_steps_per_trajectory": 50,
            },
            "seed": 1,
        },
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message.startswith(
        "config error: run: no return criterion fired within 50 steps; "
    )
    assert "\n" not in message
    assert list(out.iterdir()) == []


def test_nonpositive_thread_count_rejected(tmp_path):
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": G5_BLOCK},
            "rescaling": {"mode": "brute-force"},
            "criteria": {"surplus_L": 5},
            "run": {"algorithm": 1, "budget": {"max_trajectories": 1}},
            "seed": 0,
        },
    )
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv + ["--threads", "0"]) == 2


def test_run_record_diagnostics_key_rejected(tmp_path, caplog):
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": G5_BLOCK},
            "rescaling": {"mode": "brute-force"},
            "criteria": {"surplus_L": 5},
            "run": {
                "algorithm": 1,
                "budget": {"max_trajectories": 1},
                "record_diagnostics": True,
            },
            "seed": 0,
        },
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "unknown key run.record_diagnostics" in caplog.text


def test_oversized_instance_exits_with_capacity_code(tmp_path):
    edges = [[i, i + 1] for i in range(1, 30)]
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": {"n": 30, "edges": edges}},
            "sweep": {"k0": [0], "bounds": ["loose"], "surplus_grid": [1]},
        },
    )
    assert main(["sweep-counts", "--config", str(config), "--out", str(tmp_path)]) == 3


def test_run_scramble_support_leak_exits_with_config_code(tmp_path, caplog, compute_stubs):
    # a transverse-field scramble would leak feasible-subspace MIS onto
    # infeasible strings whose rescaled cost exceeds pi/4: the mixer is
    # rejected with the config, before any compute
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "mis", "graph": G5_BLOCK},
            "rescaling": {"mode": "brute-force"},
            "criteria": {"threshold_T": 2.5},
            "initial_state": {"kind": "feasible-uniform"},
            "mixer": {"kind": "transverse-field", "chi": 0.4},
            "run": {"algorithm": 2, "budget": {"max_trajectories": 20}},
            "seed": 0,
        },
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message == (
        "config error: mixer: transverse-field puts amplitude on infeasible strings, so it "
        "cannot scramble feasible-subspace MIS (give problem.penalty_weight)"
    )
    assert list(out.iterdir()) == []
    assert compute_stubs == []


def test_run_above_dense_cap_exits_with_capacity_code(tmp_path, caplog):
    edges = [[i, i + 1] for i in range(1, 21)]
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": {"n": 21, "edges": edges}},
            "rescaling": {"mode": "brute-force"},
            "criteria": {"surplus_L": 5},
            "run": {"algorithm": 1, "budget": {"max_trajectories": 1}},
            "seed": 0,
        },
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 3
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message.startswith("capacity error: n=21 exceeds the dense-table cap of 20")
    assert "\n" not in message
    assert list(out.iterdir()) == []


def test_feasible_run_past_the_dense_cap(tmp_path):
    # the shipped n = 28 run keeps its states on the 199,576 independent
    # sets: a single 2**28-entry array would take 256 MiB as a mask and
    # 4 GiB as amplitudes
    import tracemalloc

    from test_golden import ROOT

    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["run", "--config", str(ROOT / "configs" / "run_mis_feasible_n28.json"),
                     "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**26
    config = json.loads((ROOT / "configs" / "run_mis_feasible_n28.json").read_text())
    graph = Graph.from_1indexed(28, config["problem"]["graph"]["edges"])
    instance = ProblemInstance(graph, "mis")
    rows = read_csv(out / "trajectories.csv")
    assert len(rows) == 200
    for row in rows:
        x = bitstring_to_index(row["final_sample"])
        assert feasible(instance, x)
        assert float(row["final_cost"]) == x.bit_count()


def test_feasible_sweep_past_the_dense_cap(tmp_path):
    # a feasible-only sweep keeps its states on the independent sets, as run
    # does, so the n = 28 graph builds no 2**28-entry array
    import tracemalloc

    from test_golden import ROOT

    graph = json.loads((ROOT / "configs" / "run_mis_feasible_n28.json").read_text())
    config = write_config(
        tmp_path,
        {
            "problem": graph["problem"],
            "sweep": {"k0": [0, 5], "bounds": ["tight", "loose"], "surplus_grid": [0, 10, 40]},
        },
    )
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["sweep-counts", "--config", str(config), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**26
    rows = read_csv(out / "sweep_counts.csv")
    assert [row["L"] for row in rows] == ["0", "10", "40"]
    for k0 in (0, 5):
        tight = [float(row[f"H_feasible_tight_k0_{k0}"]) for row in rows]
        assert tight == sorted(tight) and tight[-1] <= 12.0  # the largest set has 12 vertices
        assert all(0.5 < float(row[f"p1_feasible_tight_k0_{k0}"]) <= 1.0 for row in rows)


def test_subspace_past_its_cap_exits_with_capacity_code(tmp_path, caplog):
    # an edgeless graph at n = 25 has 2**25 independent sets, past the
    # subspace cap: they are counted, never listed
    import tracemalloc

    graph_path = tmp_path / "graph.txt"
    graph_path.write_text("n 25\n")
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "mis", "graph": {"path": str(graph_path)}},
            "rescaling": {"mode": "brute-force"},
            "criteria": {"threshold_T": 20},
            "initial_state": {"kind": "feasible-uniform"},
            "mixer": {"kind": "mis-controlled", "chi": 0.3},
            "run": {"algorithm": 2, "budget": {"max_trajectories": 1}},
            "seed": 0,
        },
    )
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["run", "--config", str(config), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message == (
        "capacity error: the 25-vertex graph has 33554432 independent sets, "
        "past the subspace cap of 16777216"
    )
    assert list(out.iterdir()) == []
    assert peak < 2**20


@pytest.mark.parametrize(
    "initial, mixer",
    [
        ({"kind": "uniform"}, "transverse-field"),
        ({"kind": "qaoa1", "grid_resolution": 3}, "mis-controlled"),
        ({"kind": "basis", "bitstring": "0110"}, "transverse-field"),
        ({"kind": "mixer-prepared", "chi0": 0.5}, "mis-controlled"),
    ],
)
def test_edgeless_feasible_run_matches_the_dense_run(tmp_path, initial, mixer):
    # every string of an edgeless graph is an independent set: a uniform or
    # qaoa1 start and a transverse-field mixer stay in the subspace, and the
    # run writes what the dense run with a zero penalty writes
    payload = {
        "problem": {"kind": "mis", "graph": {"n": 4, "edges": []}},
        "rescaling": {"mode": "brute-force"},
        "criteria": {"threshold_T": 3.9, "ceiling_KT": 30, "min_steps_ell": 2},
        "initial_state": initial,
        "mixer": {"kind": mixer, "chi_tilde": 3},
        "run": {"algorithm": 2, "budget": {"max_trajectories": 40}, "trajectory_csv": True},
        "seed": 5,
    }
    dense = _with(payload, ["problem", "penalty_weight"], 0.0)
    for name, config in (("subspace", payload), ("dense", dense)):
        path = write_config(tmp_path, config, f"{name}.json")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
    for artifact in ("run_summary.json", "trajectories.csv"):
        subspace = (tmp_path / "subspace" / artifact).read_bytes()
        assert subspace == (tmp_path / "dense" / artifact).read_bytes()
    assert any(row["scrambles"] != "0" for row in read_csv(tmp_path / "dense" / "trajectories.csv"))


def test_inline_edgeless_graph_runs_as_its_file(tmp_path, caplog):
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text("n 4\n")
    payload = {
        "problem": {"kind": "mis", "graph": {"n": 4, "edges": []}},
        "rescaling": {"mode": "brute-force"},
        "criteria": {"threshold_T": 3.9, "ceiling_KT": 30, "min_steps_ell": 2},
        "mixer": {"kind": "mis-controlled", "chi_tilde": 3},
        "run": {"algorithm": 2, "budget": {"max_trajectories": 20}, "trajectory_csv": True},
        "seed": 5,
    }
    from_file = _with(payload, ["problem", "graph"], {"path": str(graph_path)})
    for name, config in (("inline", payload), ("file", from_file)):
        path = write_config(tmp_path, config, f"{name}.json")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
    for artifact in ("run_summary.json", "trajectories.csv"):
        inline = (tmp_path / "inline" / artifact).read_bytes()
        assert inline == (tmp_path / "file" / artifact).read_bytes()
    # edgeless MaxCut has a constant cost, inline as from a file
    for name, config in (("inline", payload), ("file", from_file)):
        path = write_config(tmp_path, _with(config, ["problem", "kind"], "maxcut"), "maxcut.json")
        caplog.clear()
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "maxcut")]) == 2
        [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert message.endswith("is not positive: constant cost function"), name


def test_ceiling_zero_needs_a_trajectory_cap(tmp_path):
    # ceiling_KT = 0 returns every trajectory before its first step, so a
    # budget of steps alone never runs out; the subprocess's timeout turns a
    # regression into a failure instead of a hang
    import mdqo

    src = str(Path(mdqo.__file__).resolve().parent.parent)
    payload = _with(RUN, ["criteria"], {"ceiling_KT": 0})
    config = write_config(tmp_path, _with(payload, ["run", "budget"], {"max_total_steps": 10}))
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "mdqo", "run", "--config", str(config), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "ERROR config error: run: ceiling_KT = 0 returns every trajectory at 0 steps: "
        "cap max_trajectories"
    ]
    assert not out.exists() or list(out.iterdir()) == []
    # a trajectory cap ends the same run
    capped = write_config(tmp_path, _with(payload, ["run", "budget"], {"max_trajectories": 3}))
    assert main(["run", "--config", str(capped), "--out", str(out)]) == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert (summary["trajectories_run"], summary["total_steps"]) == (3, 0)


def test_graph_file_input(tmp_path):
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text(
        "n 5\n# benchmark graph\n1 2\n2 3\n3 4\n1 3\n2 4\n2 5\n"
    )
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "maxcut", "graph": {"path": str(graph_path)}},
            "postprocess": {"grid_resolution": 16, "k1": [1]},
        },
    )
    out = tmp_path / "out"
    assert main(["postprocess", "--config", str(config), "--out", str(out)]) == 0
    summary = {row["state"]: float(row["H"]) for row in read_csv(out / "postprocess_summary.csv")}
    assert summary["uniform"] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# config checks run before any compute

COMPUTE_ENTRIES = (
    "outer_loop",
    "optimize_qaoa1",
    "analytic_state",
    "weigh",
    "apply_mixer",
    "walk_monte_carlo",
    "expected_steps_surplus_bound",
    "expected_steps_with_reset_closed_form",
    "expected_steps_run",
)


class ComputeReached(Exception):
    """Raised by a stubbed compute entry point of mdqo.cli."""


@pytest.fixture
def compute_stubs(monkeypatch):
    import mdqo.cli

    calls = []

    def stub(name):
        def stubbed(*args, **kwargs):
            calls.append(name)
            raise ComputeReached(name)

        return stubbed

    for name in COMPUTE_ENTRIES:
        monkeypatch.setattr(mdqo.cli, name, stub(name))
    return calls


DELETE = object()


def _with(payload, path, value):
    """A deep copy of payload with the entry at path (keys and indices) replaced or deleted."""
    out = json.loads(json.dumps(payload))
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


SCRAMBLE = {
    "problem": {"kind": "maxcut", "graph": G5_BLOCK},
    "scramble": {
        "start_counts": [50, 160],
        "top": {"k1_grid": [0, 5], "k0_tilde": 0},
        "bottom": {"surplus_grid": {"start": 0, "stop": 10}, "k0_tilde": [0, 1]},
    },
}
RUN = {
    "problem": {"kind": "maxcut", "graph": G5_BLOCK},
    "rescaling": {"mode": "brute-force"},
    "criteria": {"surplus_L": 5},
    "run": {"algorithm": 1, "budget": {"max_trajectories": 1}},
    "seed": 0,
}
WALK_MC = {"walk": {"p": [0.8], "L": [3], "mc_trials": 10}, "seed": 1}
POSTPROCESS = {"problem": {"kind": "maxcut", "graph": G5_BLOCK}, "postprocess": {}}
SWEEP = {
    "problem": {"kind": "maxcut", "graph": G5_BLOCK},
    "sweep": {"k0": [0, 5], "bounds": ["tight"], "surplus_grid": [0, 10]},
}
RUN_MAXCUT = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "run_maxcut.json").read_text()
)

BAD_CONFIGS = {
    # a second --config overrides the written one
    "missing config file": (
        "walk", WALK_MC, ["--config", "/nonexistent.json"],
        "config error: cannot read config file /nonexistent.json: "
        "[Errno 2] No such file or directory: '/nonexistent.json'",
    ),
    "run without return criteria": (
        "run", _with(RUN_MAXCUT, ["criteria"], {}), [],
        "config error: criteria: at least one return criterion must be enabled",
    ),
    "run graph with a self-loop": (
        "run",
        _with(RUN_MAXCUT, ["problem", "graph", "edges"],
              RUN_MAXCUT["problem"]["graph"]["edges"] + [[3, 3]]),
        [],
        "config error: problem.graph: self-loop at vertex 2",
    ),
    "run step cap below 1": (
        "run", _with(RUN, ["run", "max_steps_per_trajectory"], -3), [],
        "run.max_steps_per_trajectory must be at least 1, got -3",
    ),
    "run step cap of 0": (
        "run", _with(RUN, ["run", "max_steps_per_trajectory"], 0), [],
        "run.max_steps_per_trajectory must be at least 1, got 0",
    ),
    "run step cap below 1 under a ceiling of 0": (
        "run",
        _with(_with(RUN, ["criteria"], {"ceiling_KT": 0}), ["run", "max_steps_per_trajectory"], -3),
        [],
        "run.max_steps_per_trajectory must be at least 1, got -3",
    ),
    "scramble start count": (
        "scramble-study", _with(SCRAMBLE, ["scramble", "start_counts"], [-1, 160]), [],
        "scramble.start_counts[0] must be nonnegative, got -1",
    ),
    "scramble top k0": (
        "scramble-study", _with(SCRAMBLE, ["scramble", "top", "k0_tilde"], -2), [],
        "scramble.top.k0_tilde must be nonnegative, got -2",
    ),
    "scramble top k1 grid": (
        "scramble-study", _with(SCRAMBLE, ["scramble", "top", "k1_grid"], [0, -5]), [],
        "scramble.top.k1_grid[1] must be nonnegative, got -5",
    ),
    "scramble bottom k0": (
        "scramble-study", _with(SCRAMBLE, ["scramble", "bottom", "k0_tilde"], [0, -1]), [],
        "scramble.bottom.k0_tilde[1] must be nonnegative, got -1",
    ),
    "scramble bottom surplus grid": (
        "scramble-study",
        _with(SCRAMBLE, ["scramble", "bottom", "surplus_grid", "start"], -10),
        [],
        "scramble.bottom.surplus_grid.start must be nonnegative, got -10",
    ),
    "walk negative cli seed": ("walk", WALK_MC, ["--seed", "-3"], "--seed must be nonnegative"),
    "run negative cli seed": ("run", RUN, ["--seed", "-1"], "--seed must be nonnegative"),
    "config seed": ("run", _with(RUN, ["seed"], -4), [], "seed must be nonnegative, got -4"),
    "graph path type": (
        "postprocess", _with(POSTPROCESS, ["problem", "graph"], {"path": 5}), [],
        "problem.graph.path must be a string, got 5",
    ),
    "graph edges not a list": (
        "postprocess", _with(POSTPROCESS, ["problem", "graph", "edges"], {}), [],
        "problem.graph.edges must be a list",
    ),
    "edge endpoint": (
        "postprocess", _with(POSTPROCESS, ["problem", "graph", "edges", 1], ["2", 3]), [],
        "problem.graph.edges[1][0] must be an integer, got '2'",
    ),
    "user bound": (
        "run",
        _with(RUN, ["rescaling"], {"mode": "user-supplied", "bounds": [0, "5"]}),
        [],
        "rescaling.bounds[1] must be a finite number, got '5'",
    ),
    "qaoa1 resolution": (
        "run",
        _with(RUN, ["initial_state"], {"kind": "qaoa1", "grid_resolution": "64"}),
        [],
        "initial_state.grid_resolution must be an integer, got '64'",
    ),
    "postprocess k1": (
        "postprocess", _with(POSTPROCESS, ["postprocess"], {"k1": [1, -1]}), [],
        "postprocess.k1[1] must be nonnegative, got -1",
    ),
    "postprocess resolution": (
        "postprocess", _with(POSTPROCESS, ["postprocess"], {"grid_resolution": 1}), [],
        "postprocess.grid_resolution must be at least 2, got 1",
    ),
    "sweep k0": (
        "sweep-counts", _with(SWEEP, ["sweep", "k0"], [0, -1]), [],
        "sweep.k0[1] must be nonnegative, got -1",
    ),
    "walk model after valid rows": (
        "walk", _with(WALK_MC, ["walk", "L"], [3, 0]), [], "walk: L must be at least 1, got 0",
    ),
    "walk L past the float range": (
        "walk", _with(WALK_MC, ["walk", "L"], [3, 10**400]), [],
        "walk.L[1] must be a finite number, got 1000",
    ),
    "walk R past the float range": (
        "walk", _with(WALK_MC, ["walk", "R"], [1, 10**400]), [],
        "walk.R[1] must be a finite number, got 1000",
    ),
    "sweep k0 past the float range": (
        "sweep-counts", _with(SWEEP, ["sweep", "k0"], [0, 4 * 10**308]), [],
        "sweep.k0[1] must be a finite number, got 4000",
    ),
    "sweep k1 past the float range": (
        "sweep-counts",
        _with(_with(SWEEP, ["sweep", "k0"], [10**308]), ["sweep", "surplus_grid"], [0, 10**308]),
        [],
        "k1 = sweep.k0 + sweep.surplus_grid must be a finite number, got 2000",
    ),
    "postprocess k1 past the float range": (
        "postprocess", _with(POSTPROCESS, ["postprocess"], {"k1": [4 * 10**308]}), [],
        "postprocess.k1[0] must be a finite number, got 4000",
    ),
    "scramble start count past the float range": (
        "scramble-study", _with(SCRAMBLE, ["scramble", "start_counts"], [4 * 10**308, 0]), [],
        "scramble.start_counts[0] must be a finite number, got 4000",
    ),
    "scramble top k0 past the float range": (
        "scramble-study", _with(SCRAMBLE, ["scramble", "top", "k0_tilde"], 4 * 10**308), [],
        "scramble.top.k0_tilde must be a finite number, got 4000",
    ),
    "scramble top k1 grid past the float range": (
        "scramble-study", _with(SCRAMBLE, ["scramble", "top", "k1_grid"], [0, 4 * 10**308]), [],
        "scramble.top.k1_grid[1] must be a finite number, got 4000",
    ),
    "scramble bottom k1 past the float range": (
        "scramble-study",
        _with(
            _with(SCRAMBLE, ["scramble", "bottom", "k0_tilde"], [0, 10**308]),
            ["scramble", "bottom", "surplus_grid"],
            [0, 10**308],
        ),
        [],
        "k1 = scramble.bottom.k0_tilde + scramble.bottom.surplus_grid must be a finite number",
    ),
    "run algorithm 3": (
        "run", _with(RUN, ["run", "algorithm"], 3), [],
        "run.algorithm must be one of (1, 2), got 3",
    ),
    "walk p": (
        "walk", _with(WALK_MC, ["walk", "p"], [0.8, 1.5]), [], "walk: p must lie in (0, 1]",
    ),
    "trajectory csv flag": (
        "run", _with(RUN, ["run", "trajectory_csv"], "yes"), [],
        "run.trajectory_csv must be a boolean, got 'yes'",
    ),
    "adaptive threshold before a qaoa1 start": (
        "run",
        _with(
            _with(RUN, ["initial_state"], {"kind": "qaoa1"}),
            ["run", "adaptive_threshold"],
            True,
        ),
        [],
        "run: adaptive_threshold requires threshold_T to be set",
    ),
    "threshold out of range before a qaoa1 start": (
        "run",
        _with(
            _with(RUN, ["initial_state"], {"kind": "qaoa1"}),
            ["criteria"],
            {"threshold_T": 10.0, "ceiling_KT": 5},
        ),
        [],
        "run: rescaled threshold E(T) = 1.5707963267948966 falls outside [0, pi/4]; "
        "threshold_T = 10.0 is incompatible with this rescaling",
    ),
    "algorithm 2 without a threshold": (
        "run",
        _with(
            _with(RUN, ["run", "algorithm"], 2), ["mixer"], {"kind": "transverse-field", "chi": 0.3}
        ),
        [],
        "run: the scrambling condition requires threshold_T",
    ),
    "user bounds violated by the spectrum": (
        "run",
        _with(RUN, ["rescaling"], {"mode": "user-supplied", "bounds": [0, 3]}),
        [],
        "bound 'user-supplied': user bounds (-0.0, 3.0) are violated by the spectrum [0.0, 5.0]",
    ),
    "user bounds with a negative s violated by the spectrum": (
        "run",
        _with(RUN, ["rescaling"], {"mode": "user-supplied", "bounds": [-1, 5]}),
        [],
        "bound 'user-supplied': user bounds (1.0, 5.0) are violated by the spectrum [0.0, 5.0]",
    ),
    "surplus delta without surplus_L": (
        "run",
        _with(_with(RUN, ["criteria"], {"ceiling_KT": 5}), ["run", "surplus_delta"], 1),
        [],
        "run: surplus_delta requires surplus_L to be set",
    ),
    "zero total-step budget": (
        "run", _with(RUN, ["run", "budget"], {"max_total_steps": 0}), [],
        "run: max_total_steps must be positive",
    ),
    "unreadable graph file": (
        "run", _with(RUN, ["problem", "graph"], {"path": "no-such-graph.txt"}), [],
        "cannot read graph file: [Errno 2] No such file or directory: 'no-such-graph.txt'",
    ),
    "non-finite number": (
        "sweep-counts",
        _with(
            _with(SWEEP, ["problem", "kind"], "mis"), ["sweep", "penalty_weights"], [math.nan]
        ),
        [],
        "sweep.penalty_weights[0] must be a finite number, got nan",
    ),
    "penalty weight times the edge count past the float range": (
        "run",
        _with(_with(RUN, ["problem", "kind"], "mis"), ["problem", "penalty_weight"], 1e308),
        [],
        "problem: penalty_weight 1e+308 times the edge count 6 is not a finite float",
    ),
    "swept penalty weight times the edge count past the float range": (
        "sweep-counts",
        _with(
            _with(SWEEP, ["problem", "kind"], "mis"), ["sweep", "penalty_weights"], [3, 1e308]
        ),
        [],
        "sweep.penalty_weights[1]: penalty_weight 1e+308 times the edge count 6 is not a finite",
    ),
    "int past the float range": (
        "run", _with(RUN, ["criteria", "threshold_T"], 10**400), [],
        "criteria.threshold_T must be a finite number, got 1000",
    ),
    "walk step cap": (
        "walk", _with(WALK_MC, ["walk", "mc_step_cap"], -1), [],
        "walk.mc_step_cap must be at least 10, got -1",
    ),
    "walk step cap below trials": (
        "walk", _with(WALK_MC, ["walk", "mc_step_cap"], 5), [],
        "walk.mc_step_cap must be at least 10, got 5",
    ),
    # the last --out wins: a file, and a path under one, cannot be made directories
    "--out an existing file": (
        "walk", WALK_MC, ["--out", os.devnull],
        "--out: cannot create output directory: [Errno 17] File exists",
    ),
    "--out under a file": (
        "walk", WALK_MC, ["--out", os.path.join(os.devnull, "sub")],
        "--out: cannot create output directory: [Errno 20] Not a directory",
    ),
    "mixer chi_tilde past the float range": (
        "run",
        _with(
            _with(RUN, ["run", "algorithm"], 2),
            ["mixer"],
            {"kind": "transverse-field", "chi_tilde": 10**400},
        ),
        [],
        "mixer.chi_tilde must be a finite number, got 1000",
    ),
    "scramble top chi_tilde past the float range": (
        "scramble-study", _with(SCRAMBLE, ["scramble", "top", "chi_tilde"], [1, 10**400]), [],
        "scramble.top.chi_tilde[1] must be a finite number, got 1000",
    ),
    "scramble bottom chi_tilde past the float range": (
        "scramble-study", _with(SCRAMBLE, ["scramble", "bottom", "chi_tilde"], -(10**400)), [],
        "scramble.bottom.chi_tilde must be a finite number, got -1000",
    ),
    "int that float() rounds past the float range": (
        "run", _with(RUN, ["criteria", "threshold_T"], 2**1024 - 2**970), [],
        "criteria.threshold_T must be a finite number, got 1797",
    ),
    "basis bitstring length": (
        "run", _with(RUN, ["initial_state"], {"kind": "basis", "bitstring": "1001"}), [],
        "initial_state.bitstring must be 5 characters 0 or 1",
    ),
    "algorithm 2 without a mixer": (
        "run", _with(RUN, ["run", "algorithm"], 2), [],
        "missing required key mixer (algorithm 2 needs one)",
    ),
    "scramble without panels": (
        "scramble-study", _with(SCRAMBLE, ["scramble"], {"start_counts": [50, 160]}), [],
        "scramble: at least one of top/bottom panels is required",
    ),
    "qaoa1 start in feasible-subspace mode": (
        "run", _with(_with(RUN, ["problem", "kind"], "mis"), ["initial_state"], {"kind": "qaoa1"}),
        [],
        "initial_state: qaoa1 puts amplitude on infeasible strings",
    ),
    "uniform start in feasible-subspace mode": (
        "run", _with(RUN, ["problem", "kind"], "mis"), [],
        "initial_state: uniform puts amplitude on infeasible strings",
    ),
    "basis start off the independent sets": (
        "run",
        _with(
            _with(RUN, ["problem", "kind"], "mis"),
            ["initial_state"],
            {"kind": "basis", "bitstring": "11000"},
        ),
        [],
        "initial_state.bitstring 11000 is not an independent set",
    ),
    "transverse-field mixer in feasible-subspace mode": (
        "run",
        _with(
            _with(
                _with(_with(RUN, ["problem", "kind"], "mis"), ["run", "algorithm"], 2),
                ["mixer"],
                {"kind": "transverse-field", "chi": 0.3},
            ),
            ["initial_state"],
            {"kind": "feasible-uniform"},
        ),
        [],
        "mixer: transverse-field puts amplitude on infeasible strings",
    ),
    "mixer-prepared maxcut": (
        "run", _with(RUN, ["initial_state"], {"kind": "mixer-prepared", "chi0": 0.3}), [],
        "initial_state: mixer-prepared applies to MIS instances",
    ),
    "top-level array": ("walk", [WALK_MC], [], "top-level config must be a JSON object"),
    "key of another initial-state kind": (
        "run", _with(RUN, ["initial_state"], {"kind": "uniform", "grid_resolution": 16}), [],
        "unknown key initial_state.grid_resolution",
    ),
    "mixer under algorithm 1": (
        "run", _with(RUN, ["mixer"], {"kind": "transverse-field", "chi": 0.3}), [],
        "unknown key mixer",
    ),
    "bounds of a computed rescaling": (
        "run", _with(RUN, ["rescaling", "bounds"], [0, 5]), [], "unknown key rescaling.bounds",
    ),
    "grid values and range": (
        "scramble-study",
        _with(SCRAMBLE, ["scramble", "bottom", "surplus_grid", "values"], [0, 5]),
        [],
        "unknown key scramble.bottom.surplus_grid.start",
    ),
    "maxcut sweep variants": (
        "sweep-counts", _with(SWEEP, ["sweep", "variants"], ["feasible"]), [],
        "unknown key sweep.variants",
    ),
    "penalty weights of an unpenalised sweep": (
        "sweep-counts",
        _with(
            _with(
                _with(SWEEP, ["problem", "kind"], "mis"), ["sweep", "variants"], ["feasible"]
            ),
            ["sweep", "penalty_weights"],
            [3],
        ),
        [],
        "unknown key sweep.penalty_weights",
    ),
    "walk step cap without trials": (
        "walk", _with(WALK_MC, ["walk"], {"p": [0.8], "L": [3], "mc_step_cap": 50}), [],
        "unknown key walk.mc_step_cap",
    ),
    "walk key typo": (
        "walk", _with(WALK_MC, ["walk", "mc_trial"], 10), [], "unknown key walk.mc_trial",
    ),
    "postprocess key typo": (
        "postprocess", _with(POSTPROCESS, ["postprocess", "bounds"], "tight"), [],
        "unknown key postprocess.bounds",
    ),
    "problem penalty weight of a sweep": (
        "sweep-counts",
        _with(
            _with(SWEEP, ["problem", "kind"], "mis"), ["problem", "penalty_weight"], 7.0
        ),
        [],
        "unknown key problem.penalty_weight",
    ),
    "postprocess of feasible-subspace MIS": (
        "postprocess", _with(POSTPROCESS, ["problem", "kind"], "mis"), [],
        "config error: postprocess: the depth-1 ansatz puts amplitude on infeasible strings, "
        "so it cannot study feasible-subspace MIS (give problem.penalty_weight)",
    ),
    "scramble study of feasible-subspace MIS": (
        "scramble-study", _with(SCRAMBLE, ["problem", "kind"], "mis"), [],
        "config error: scramble: the uniform start puts amplitude on infeasible strings, "
        "so it cannot study feasible-subspace MIS (give problem.penalty_weight)",
    ),
    "dishonest coefficient bound": (
        "sweep-counts",
        {
            "problem": {"kind": "mis", "graph": {"n": 4, "edges": [[1, 2], [2, 3]]}},
            "sweep": {
                "k0": [0],
                "bounds": ["loose"],
                "surplus_grid": [0],
                "penalty_weights": [3],
                "variants": ["penalized"],
            },
        },
        [],
        "bound 'loose': rescaled cost leaves [0, pi/4]",
    ),
    # a repeated column name would hold two columns of different data
    "sweep penalty weights that print alike": (
        "sweep-counts",
        _with(_with(SWEEP, ["problem", "kind"], "mis"), ["sweep", "penalty_weights"],
              [0.1, 0.1000001]),
        [],
        "config error: output column H_penalized_lam0.1_tight_k0_0 would repeat",
    ),
    "sweep bounds of one name": (
        "sweep-counts",
        _with(SWEEP, ["sweep", "bounds"], ["tight", {"name": "tight", "mode": "coefficient-sum"}]),
        [],
        "config error: output column H_maxcut_tight_k0_0 would repeat",
    ),
    "sweep repeated k0": (
        "sweep-counts", _with(SWEEP, ["sweep", "k0"], [0, 5, 0]), [],
        "config error: output column H_maxcut_tight_k0_0 would repeat",
    ),
    "postprocess repeated k1": (
        "postprocess", _with(POSTPROCESS, ["postprocess", "k1"], [1, 2, 1]), [],
        "config error: output column p_qaoa1_k1_1 would repeat",
    ),
    "scramble repeated chi_tilde": (
        "scramble-study", _with(SCRAMBLE, ["scramble", "top", "chi_tilde"], [1, 2, 1]), [],
        "config error: output column H_chi_1 would repeat",
    ),
    "scramble repeated k0_tilde": (
        "scramble-study", _with(SCRAMBLE, ["scramble", "bottom", "k0_tilde"], [0, 1, 0]), [],
        "config error: output column H_k0_0 would repeat",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_before_compute(case, tmp_path, caplog, compute_stubs):
    command, payload, flags, expected = BAD_CONFIGS[case]
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), *flags]) == 2
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message.startswith("config error: ")
    assert expected in message
    assert "\n" not in message
    assert not out.exists() or list(out.iterdir()) == []
    assert compute_stubs == []


# counts whose closed-form weights overflow on every level: bounds far below
# the spectrum put each rescaled cost of the path 1-2-3 near pi/4
PATH_BOUND = {"name": "u", "mode": "user-supplied", "bounds": [100, 2]}
PATH_PROBLEM = {"kind": "maxcut", "graph": {"n": 3, "edges": [[1, 2], [2, 3]]}}
DEGENERATE_STUDIES = {
    "sweep-counts": {
        "problem": PATH_PROBLEM,
        "sweep": {"k0": [10**308], "bounds": [PATH_BOUND], "surplus_grid": [0]},
    },
    "scramble-study": {
        "problem": PATH_PROBLEM,
        "scramble": {
            "start_counts": [10**308, 10**308], "bound": PATH_BOUND, "top": {"k1_grid": [0]},
        },
    },
}


@pytest.mark.parametrize("command", sorted(DEGENERATE_STUDIES))
def test_degenerate_study_counts_exit_with_config_code(command, tmp_path, caplog):
    config = write_config(tmp_path, DEGENERATE_STUDIES[command])
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message.startswith("config error: all modulation weights vanish on the state support")
    assert "\n" not in message and len(message) < 200
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, artifact", [("walk", "walk.csv"), ("run", "run_summary.json")])
def test_unwritable_artifact_exits_with_config_code(command, artifact, tmp_path, caplog):
    config = write_config(tmp_path, {"walk": WALK_MC, "run": RUN}[command])
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)  # a directory where the artifact goes
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message.startswith(f"config error: --out: cannot write {artifact}: [Errno 21] ")
    assert "\n" not in message


def test_failed_artifact_write_removes_the_earlier_artifacts(tmp_path, caplog):
    # run writes run_summary.json before trajectories.csv: a run leaves all
    # its artifacts or none, and removes none that an earlier run wrote
    config = write_config(tmp_path, RUN_MAXCUT)
    earlier = tmp_path / "earlier"
    assert main(["run", "--config", str(config), "--out", str(earlier)]) == 0
    names = ["run_config.json", "run_summary.json", "trajectories.csv"]
    assert sorted(p.name for p in earlier.iterdir()) == names
    out = tmp_path / "out"
    (out / "trajectories.csv").mkdir(parents=True)
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message.startswith("config error: --out: cannot write trajectories.csv: [Errno 21] ")
    assert "\n" not in message
    assert [p.name for p in out.iterdir()] == ["trajectories.csv"]
    assert sorted(p.name for p in earlier.iterdir()) == names


def test_default_walk_step_cap_below_trials_exits_before_compute(
    tmp_path, caplog, compute_stubs, monkeypatch
):
    import mdqo.cli

    # the default cap is checked like a given one: patched down to 5, it is below 10 trials
    monkeypatch.setattr(mdqo.cli, "MC_STEP_CAP", 5)
    config = write_config(tmp_path, WALK_MC)
    out = tmp_path / "out"
    assert main(["walk", "--config", str(config), "--out", str(out)]) == 2
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message == "config error: walk.mc_step_cap must be at least 10, got 5"
    assert not out.exists() or list(out.iterdir()) == []
    assert compute_stubs == []


@pytest.mark.parametrize(
    "command, payload", [("postprocess", POSTPROCESS), ("scramble-study", SCRAMBLE)]
)
def test_edgeless_feasible_studies_run(tmp_path, command, payload):
    # every string of an edgeless graph is an independent set, so the dense
    # study states stay feasible
    payload = _with(payload, ["problem"], {"kind": "mis", "graph": {"n": 4, "edges": []}})
    if command == "postprocess":
        payload["postprocess"] = {"grid_resolution": 8}
    config = write_config(tmp_path, payload)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "command, payload",
    [
        ("postprocess", _with(POSTPROCESS, ["postprocess"], {"grid_resolution": 200000})),
        ("run", _with(RUN, ["initial_state"], {"kind": "qaoa1", "grid_resolution": 200000})),
    ],
)
def test_grid_past_its_cap_exits_before_compute(command, payload, tmp_path, caplog, compute_stubs):
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 3
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message == (
        "capacity error: the depth-1 grid at n=5 and resolution 200000 needs "
        "resolution * max(resolution, 2**n) = 40000000000, past the grid cap of 16777216"
    )
    assert not out.exists() or list(out.iterdir()) == []
    assert compute_stubs == []


MUTATIONS = (DELETE, -1, "x", {}, [], 0.5, None)


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path
        return
    for key, child in items:
        yield from _leaf_paths(child, (*path, key))


def test_mutated_shipped_configs_end_cleanly_or_reach_compute(tmp_path, caplog, compute_stubs):
    # Every leaf of every shipped config, deleted or replaced, either exits
    # 0/2/3 or reaches a compute entry point; nothing else escapes.
    from test_golden import COMMANDS, ROOT

    cases = 0
    for name, command in sorted(COMMANDS.items()):
        shipped = json.loads((ROOT / "configs" / name).read_text())
        for path in _leaf_paths(shipped):
            for mutation in MUTATIONS:
                config = write_config(tmp_path, _with(shipped, path, mutation))
                caplog.clear()
                try:
                    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
                except ComputeReached:
                    continue
                finally:
                    cases += 1
                assert code in (0, 2, 3), (name, path, mutation)
                if code:
                    errors = [r for r in caplog.records if r.levelname == "ERROR"]
                    assert len(errors) == 1, (name, path, mutation)
    assert cases > 1000
