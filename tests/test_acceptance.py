"""Acceptance suite: one test per numbered release criterion, tolerances pinned.

Each test is an end-to-end check of a headline guarantee on the 5-vertex
benchmark graph, exercised through the public API (criterion 11 through the
CLI).  Criterion 9 pins the initial slope of <H>_phi(eps) to the value
derived from the branch weight sin^2(pi/4 + eps H) = 1/2 + eps H + O(eps^3):
<H>_phi = <H> + 2 Var(H) eps - 4 <H> Var(H) eps^2 + O(eps^3), so the slope at
the first grid point eps0 is 2 Var(H) - 8 <H> Var(H) eps0 + O(eps0^2).
"""

import json
import math

import numpy as np
import pytest

from conftest import G5_EDGES_1INDEXED, random_state
from mdqo import (
    MIS_CONTROLLED,
    TRANSVERSE_FIELD,
    CriteriaConfig,
    MixerSpec,
    OutcomeCounts,
    ProblemInstance,
    WalkModel,
    analytic_state,
    apply_mixer,
    apply_rescaling,
    epsilon_sweep,
    expectation,
    expected_steps_run,
    expected_steps_surplus_bound,
    expected_steps_with_reset_closed_form,
    expected_steps_with_reset_exact,
    feasible,
    optimize_qaoa1,
    penalize,
    posterior_state,
    qaoa1_state,
    rescaling_from_bounds,
    run_algorithm2,
    spectrum_bounds,
    subspace_cost,
    success_probability,
    trajectory_rng,
    uniform_superposition,
    walk_monte_carlo,
)
from mdqo.cli import main as cli_main

G5_BLOCK = {"n": 5, "edges": [list(edge) for edge in G5_EDGES_1INDEXED]}


def test_criterion_01_success_probability_floor(c_tight):
    for seed in range(1000):
        state = random_state(seed)
        p1 = success_probability(state, c_tight)
        mean_c = expectation(state, c_tight)
        assert p1 >= 0.5 + (2.0 / math.pi) * mean_c - 1e-12
        assert p1 > 0.5


def test_criterion_02_success_count_monotonicity(uniform5, c_tight, maxcut_h):
    for k0 in (0, 10, 50):
        costs = []
        probs = []
        for k1 in range(151):
            state, _ = analytic_state(uniform5, c_tight, OutcomeCounts(k0, k1))
            costs.append(expectation(state, maxcut_h))
            probs.append(success_probability(state, c_tight))
        assert np.all(np.diff(costs) >= -1e-10)
        assert np.all(np.diff(probs) >= -1e-10)


def test_criterion_03_heavy_measurement_marker(uniform5, c_tight, maxcut_h):
    state, _ = analytic_state(uniform5, c_tight, OutcomeCounts(50, 160))
    assert expectation(state, maxcut_h) == pytest.approx(2.0, abs=0.1)
    assert success_probability(state, c_tight) == pytest.approx(0.794, abs=0.01)


def test_criterion_04_loose_bound_dominates(uniform5, c_tight, c_loose, maxcut_h):
    for k1 in (30, 60, 120):
        counts = OutcomeCounts(0, k1)
        tight_state, _ = analytic_state(uniform5, c_tight, counts)
        loose_state, _ = analytic_state(uniform5, c_loose, counts)
        assert expectation(loose_state, maxcut_h) >= expectation(tight_state, maxcut_h)


def test_criterion_05_outcome_order_invariance(uniform5, c_tight):
    reference, _ = analytic_state(uniform5, c_tight, OutcomeCounts(7, 13))
    outcomes = np.array([0] * 7 + [1] * 13)
    rng = np.random.default_rng(55)
    for _ in range(100):
        rng.shuffle(outcomes)
        state = uniform5
        for b in outcomes:
            state, _ = posterior_state(state, c_tight, int(b))
        assert np.max(np.abs(state.amps - reference.amps)) <= 1e-10


def test_criterion_06_constrained_modes(g5, mis_pair, uniform5):
    # feasible mode lives on the independent sets, penalised mode on all strings
    mis_h, violations = mis_pair
    feas_h = subspace_cost(g5)
    feas_rescaling = rescaling_from_bounds(spectrum_bounds(feas_h, "brute-force"))
    c_feas = apply_rescaling(feas_rescaling, feas_h)
    feas_uniform = uniform_superposition(5, feas_h.basis)

    h_pen = penalize(mis_h, violations, 3.0)
    pen_bounds = spectrum_bounds(h_pen, "brute-force")
    assert (pen_bounds.s, pen_bounds.t) == (13.0, 3.0)
    c_pen = apply_rescaling(rescaling_from_bounds(pen_bounds), h_pen)

    saturated, _ = analytic_state(feas_uniform, c_feas, OutcomeCounts(0, 200))
    assert abs(expectation(saturated, feas_h) - 3.0) < 0.05

    for k0 in (0, 10, 50):
        for k1 in (0, 10, 30, 60, 120, 200):
            counts = OutcomeCounts(k0, k1)
            feas_state, _ = analytic_state(feas_uniform, c_feas, counts)
            pen_state, _ = analytic_state(uniform5, c_pen, counts)
            assert expectation(feas_state, feas_h) >= expectation(pen_state, h_pen) - 1e-12

    instance = ProblemInstance(g5, "mis")
    criteria = CriteriaConfig(threshold_T=2.9, ceiling_KT=40, min_steps_ell=6)
    mixer = MixerSpec(MIS_CONTROLLED, 4 * math.pi / 28, g5)
    worst_penalty = 0.0
    for index in range(10_000):
        traj = run_algorithm2(
            instance,
            feas_rescaling,
            feas_uniform,
            criteria,
            mixer,
            trajectory_rng(606, index),
            record_diagnostics=True,
        )
        assert feasible(instance, traj.final_sample)
        for record in traj.diagnostics:
            if record.penalty_expectation > worst_penalty:
                worst_penalty = record.penalty_expectation
    assert worst_penalty < 1e-12


def test_criterion_07_scramble_escape(uniform5, c_tight, maxcut_h):
    start, _ = analytic_state(uniform5, c_tight, OutcomeCounts(50, 160))
    continuation = OutcomeCounts(0, 100)
    no_scramble, _ = analytic_state(start, c_tight, continuation)
    baseline = expectation(no_scramble, maxcut_h)
    for chi_tilde in range(1, 7):
        mixed = apply_mixer(start, MixerSpec(TRANSVERSE_FIELD, chi_tilde * math.pi / 28))
        escaped, _ = analytic_state(mixed, c_tight, continuation)
        assert expectation(escaped, maxcut_h) > baseline


def test_criterion_08_walk_analytics():
    canonical = WalkModel(0.75, 2, 1)
    exact = expected_steps_with_reset_exact(canonical)
    assert exact == pytest.approx(28.0 / 9.0, abs=1e-9)

    mc = walk_monte_carlo(canonical, 1_000_000, np.random.default_rng(88))
    assert mc.capped == 0
    assert abs(mc.mean - exact) <= 3 * mc.stderr

    run_expected = expected_steps_run(0.75, 2)
    mc_run = walk_monte_carlo(
        WalkModel(0.75, 2), 1_000_000, np.random.default_rng(89), rule="consecutive"
    )
    assert abs(mc_run.mean - run_expected) <= 3 * mc_run.stderr

    closed = expected_steps_with_reset_closed_form(canonical)
    assert not closed.printed_matches
    assert closed.corrected_matches

    for p in (0.55, 0.65, 0.75, 0.85, 0.95):
        for L in (1, 2, 5, 10, 20):
            for R in (1, 2, 5, 10):
                model = WalkModel(p, L, R)
                value = expected_steps_with_reset_exact(model)
                assert value <= expected_steps_surplus_bound(p, L) + 1e-9
                closed = expected_steps_with_reset_closed_form(model)
                assert closed.corrected_matches
                assert abs(closed.corrected - value) <= 1e-9 * max(1.0, abs(value))
                gap = abs(closed.printed - closed.corrected)
                if gap > 1e-6 * max(1.0, abs(closed.corrected)):
                    assert not closed.printed_matches


def test_criterion_09_sweep_initial_slope(uniform5, maxcut_h):
    grid = np.linspace(math.pi / 2000, math.pi / 20, 100)
    sweep = epsilon_sweep(uniform5, maxcut_h, grid)
    assert np.all(np.diff(sweep.p1) >= -1e-12)
    probs = uniform5.probabilities()
    mean_h = float(np.sum(probs * maxcut_h.values))
    var_h = float(np.sum(probs * (maxcut_h.values - mean_h) ** 2))
    eps0 = grid[0]
    expected = 2.0 * var_h - 8.0 * mean_h * var_h * eps0
    slope = sweep.slope[0]
    assert slope == pytest.approx(expected, rel=0.01), (
        f"slope at eps0 = {eps0:.6f} is {slope:.4f}; the "
        f"expansion <H>_phi = <H> + 2 Var(H) eps - 4 <H> Var(H) eps^2 + O(eps^3) "
        f"gives 2 Var(H) - 8 <H> Var(H) eps0 = {expected:.4f} "
        f"(<H> = {mean_h:.4f}, Var(H) = {var_h:.4f})"
    )


def test_criterion_10_postprocessing_gain(c_tight, maxcut_h):
    params = optimize_qaoa1(maxcut_h, 256)
    state = qaoa1_state(maxcut_h, params)
    previous = expectation(state, maxcut_h)
    assert previous > 3.0
    for k1 in (1, 2, 3):
        boosted, _ = analytic_state(state, c_tight, OutcomeCounts(0, k1))
        current = expectation(boosted, maxcut_h)
        assert current > previous
        previous = current


def test_criterion_11_rerun_byte_identical(tmp_path):
    payload = {
        "problem": {"kind": "maxcut", "graph": G5_BLOCK},
        "rescaling": {"mode": "brute-force"},
        "criteria": {"surplus_L": 12, "reset_R": 4},
        "run": {
            "algorithm": 1,
            "budget": {"max_trajectories": 6},
            "trajectory_csv": True,
        },
        "seed": 111,
    }
    config = tmp_path / "run.json"
    config.write_text(json.dumps(payload))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["run", "--config", str(config), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(config), "--out", str(out_b)]) == 0
    for name in ("run_summary.json", "trajectories.csv", "run_config.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
