"""End-to-end tests of the command-line entry point and its artifacts."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

from mdqo import ProblemInstance, bitstring_to_index, feasible
from mdqo.cli import main
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


def test_run_builds_mis_tables_once_before_the_loop(tmp_path, monkeypatch):
    # The driving Hamiltonian, the feasible support, the feasible-uniform
    # start and the control loop's level table all share one build.
    import mdqo.control
    import mdqo.problems

    builds = []
    original = mdqo.problems.build_mis

    def counted(graph):
        builds.append(graph.n)
        return original(graph)

    monkeypatch.setattr(mdqo.problems, "build_mis", counted)
    mdqo.problems.instance_tables.cache_clear()
    mdqo.control.prepare_tables.cache_clear()
    config = write_config(
        tmp_path,
        {
            "problem": {"kind": "mis", "graph": G5_BLOCK},
            "rescaling": {"mode": "brute-force"},
            "criteria": {"threshold_T": 2.9, "ceiling_KT": 40},
            "initial_state": {"kind": "feasible-uniform"},
            "mixer": {"kind": "mis-controlled", "chi_tilde": 4},
            "run": {"algorithm": 2, "budget": {"max_trajectories": 3}},
            "seed": 1,
        },
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert builds == [5]


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


def test_walk_past_the_exact_solver_cap_exits_with_capacity_code(tmp_path, caplog, compute_stubs):
    config = write_config(tmp_path, {"walk": {"p": [0.75], "L": [2], "R": [1, 10**400]}})
    out = tmp_path / "out"
    assert main(["walk", "--config", str(config), "--out", str(out)]) == 3
    [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert message.startswith("capacity error: the reset walk at p=0.75 needs R + L - 1 = 1000")
    assert message.endswith("unknowns, past the exact solver's cap of 4096")
    assert compute_stubs == []
    assert not out.exists() or list(out.iterdir()) == []


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


def test_run_scramble_support_leak_exits_with_config_code(tmp_path, caplog):
    # a transverse-field scramble leaks feasible-subspace MIS onto infeasible
    # strings whose rescaled cost exceeds pi/4
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
    assert message.startswith(
        "config error: run: rescaled cost must lie in [0, pi/4] on the state support; "
    )
    assert "\n" not in message
    assert list(out.iterdir()) == []


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

BAD_CONFIGS = {
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
    "non-finite number": (
        "sweep-counts",
        _with(
            _with(SWEEP, ["problem", "kind"], "mis"), ["sweep", "penalty_weights"], [math.nan]
        ),
        [],
        "sweep.penalty_weights[0] must be a finite number, got nan",
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
