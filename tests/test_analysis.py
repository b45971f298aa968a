"""Tests for the run-length walk analytics and the rescaling sweep."""

import math

import numpy as np
import pytest

from mdqo import (
    WalkModel,
    basis_state,
    epsilon_sweep,
    expected_steps_run,
    expected_steps_surplus_bound,
    expected_steps_with_reset_closed_form,
    expected_steps_with_reset_exact,
    success_prob_derivative,
    uniform_superposition,
    walk_monte_carlo,
)
from mdqo.analysis import EXACT_SOLVER_CAP, check_exact_size
from mdqo.errors import CapacityError
from mdqo.problems import DiagonalHamiltonian


def test_run_rule_expected_steps():
    assert expected_steps_run(0.5, 1) == pytest.approx(2.0)
    assert expected_steps_run(0.5, 2) == pytest.approx(6.0)
    assert expected_steps_run(0.75, 1) == pytest.approx(4.0 / 3.0)
    assert expected_steps_run(1.0, 7) == 7.0
    # (1 - p) p^L is subnormal up to L = 2584 at p = 0.75 and 0 from 2585 on
    assert math.isfinite(expected_steps_run(0.75, 2462))
    assert expected_steps_run(0.75, 2584) == math.inf
    assert expected_steps_run(0.75, 2585) == math.inf
    with pytest.raises(ValueError):
        expected_steps_run(0.5, 0)
    with pytest.raises(ValueError):
        expected_steps_run(0.0, 3)
    with pytest.raises(ValueError):
        expected_steps_run(1.2, 3)


def test_surplus_drift_bound():
    assert expected_steps_surplus_bound(0.75, 2) == pytest.approx(4.0)
    assert expected_steps_surplus_bound(1.0, 9) == pytest.approx(9.0)
    assert expected_steps_surplus_bound(0.501, 500) == pytest.approx(250_000.0)
    with pytest.raises(ValueError):
        expected_steps_surplus_bound(0.5, 2)
    with pytest.raises(ValueError):
        expected_steps_surplus_bound(0.3, 2)
    with pytest.raises(ValueError):
        expected_steps_surplus_bound(1.1, 2)


def test_reset_walk_exact_reference_value():
    assert expected_steps_with_reset_exact(WalkModel(0.75, 2, 1)) == pytest.approx(
        28.0 / 9.0, abs=1e-12
    )


def test_reset_walk_exact_single_step_case():
    # L = 1, R = 1 restarts on every failure, so absorption is geometric
    for p in (0.2, 0.5, 0.75, 0.9):
        assert expected_steps_with_reset_exact(WalkModel(p, 1, 1)) == pytest.approx(
            1.0 / p, abs=1e-10
        )


def test_reset_walk_exact_deep_reset_approaches_free_walk():
    value = expected_steps_with_reset_exact(WalkModel(0.75, 2, 60))
    assert value == pytest.approx(4.0, rel=1e-6)


def test_reset_walk_exact_monotone_in_reset_depth():
    values = [
        expected_steps_with_reset_exact(WalkModel(0.75, 5, r)) for r in range(1, 12)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < expected_steps_surplus_bound(0.75, 5)


def test_reset_walk_requires_reset_depth():
    with pytest.raises(ValueError):
        expected_steps_with_reset_exact(WalkModel(0.75, 2))
    with pytest.raises(ValueError):
        expected_steps_with_reset_closed_form(WalkModel(0.75, 2))
    with pytest.raises(ValueError):
        WalkModel(0.75, 2, 0)
    with pytest.raises(ValueError):
        WalkModel(0.0, 2, 1)


def test_exact_solver_size_cap():
    assert check_exact_size(WalkModel(0.75, 2, EXACT_SOLVER_CAP - 1)) == EXACT_SOLVER_CAP
    with pytest.raises(CapacityError, match="R \\+ L - 1 = 4097 unknowns"):
        expected_steps_with_reset_exact(WalkModel(0.75, 3, EXACT_SOLVER_CAP - 1))
    with pytest.raises(CapacityError):
        expected_steps_with_reset_closed_form(WalkModel(0.75, 2, 10**400))


def test_closed_form_overflowing_ratio_is_infinite():
    # (p/q)^200 = 99^200 and (q/p)^200 overflow the float range
    steep = expected_steps_with_reset_closed_form(WalkModel(0.99, 200, 1))
    assert steep.printed == math.inf
    assert steep.corrected_matches
    shallow = expected_steps_with_reset_closed_form(WalkModel(0.01, 200, 1))
    assert shallow.corrected == math.inf
    assert not shallow.corrected_matches


def test_closed_form_variants_reference_point():
    result = expected_steps_with_reset_closed_form(WalkModel(0.75, 2, 1))
    assert result.exact == pytest.approx(28.0 / 9.0, abs=1e-12)
    assert result.corrected == pytest.approx(28.0 / 9.0, abs=1e-12)
    assert result.printed == pytest.approx(12.0, abs=1e-12)
    assert result.corrected_matches
    assert not result.printed_matches


def test_closed_form_symmetric_walk_limit():
    result = expected_steps_with_reset_closed_form(WalkModel(0.5, 3, 2))
    assert result.corrected == 15.0
    assert result.exact == pytest.approx(15.0, abs=1e-9)
    assert math.isinf(result.printed)
    assert result.corrected_matches
    assert not result.printed_matches


def test_closed_form_certain_success():
    result = expected_steps_with_reset_closed_form(WalkModel(1.0, 6, 3))
    assert result.printed == 6.0
    assert result.corrected == 6.0
    assert result.exact == pytest.approx(6.0, abs=1e-12)


def test_closed_form_single_reset_corollary():
    # R = 1 reduces the correction to q / (p - q)^2 (1 - (q/p)^L)
    for p in (0.55, 0.7, 0.85, 0.95):
        for L in (1, 3, 8):
            q = 1.0 - p
            result = expected_steps_with_reset_closed_form(WalkModel(p, L, 1))
            direct = L / (p - q) - q / (p - q) ** 2 * (1.0 - (q / p) ** L)
            assert result.corrected == pytest.approx(direct, rel=1e-12)
            assert result.corrected_matches


def test_closed_form_grid_against_exact_solver():
    printed_ok = printed_bad = 0
    for p in (0.55, 0.65, 0.75, 0.85, 0.95):
        q = 1.0 - p
        for L in (1, 2, 5, 10, 20):
            for R in (1, 2, 5, 10):
                result = expected_steps_with_reset_closed_form(WalkModel(p, L, R))
                assert result.corrected_matches, (p, L, R)
                bound = expected_steps_surplus_bound(p, L)
                assert result.exact <= bound + 1e-9, (p, L, R)
                correction = R * q**R / ((p - q) * (p**R - q**R))
                gap = correction * ((p / q) ** L - (q / p) ** L)
                if gap > 1e-6 * max(1.0, result.exact):
                    assert not result.printed_matches, (p, L, R)
                    printed_bad += 1
                elif gap < 1e-10 * max(1.0, result.exact):
                    assert result.printed_matches, (p, L, R)
                    printed_ok += 1
    assert printed_bad > 50
    assert printed_ok > 0


def test_monte_carlo_certain_success_is_exact():
    result = walk_monte_carlo(WalkModel(1.0, 4, 1), 100, np.random.default_rng(0))
    assert result.mean == 4.0
    assert result.stderr == 0.0
    assert result.completed == 100
    assert not result.cap_hit


def test_monte_carlo_matches_reset_walk_expectation():
    model = WalkModel(0.75, 2, 1)
    result = walk_monte_carlo(model, 200_000, np.random.default_rng(7))
    assert result.capped == 0
    expected = expected_steps_with_reset_exact(model)
    assert abs(result.mean - expected) <= 3.0 * result.stderr + 1e-12


def test_monte_carlo_consecutive_rule_matches_run_formula():
    result = walk_monte_carlo(
        WalkModel(0.6, 3), 100_000, np.random.default_rng(11), rule="consecutive"
    )
    assert result.capped == 0
    assert abs(result.mean - expected_steps_run(0.6, 3)) <= 3.0 * result.stderr


def test_monte_carlo_no_reset_plain_walk():
    result = walk_monte_carlo(WalkModel(0.8, 3), 100_000, np.random.default_rng(5))
    assert result.capped == 0
    assert abs(result.mean - 3.0 / 0.6) <= 3.0 * result.stderr


def test_monte_carlo_cap_reports_unfinished_walks():
    # downward drift without reset leaves a positive fraction of walks running
    result = walk_monte_carlo(
        WalkModel(0.4, 5), 50, np.random.default_rng(2), max_total_steps=20_000
    )
    assert result.cap_hit
    assert result.capped > 0
    assert result.completed + result.capped == 50
    assert math.isfinite(result.mean)


def test_monte_carlo_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        walk_monte_carlo(WalkModel(0.75, 2, 1), 0, rng)
    with pytest.raises(ValueError):
        walk_monte_carlo(WalkModel(0.75, 2, 1), 10, rng, rule="run")
    for cap in (0, -1):
        with pytest.raises(ValueError, match="max_total_steps"):
            walk_monte_carlo(WalkModel(0.75, 2, 1), 10, rng, max_total_steps=cap)


def test_sweep_eigenstate_has_flat_cost(maxcut_h):
    state = basis_state(5, 2)  # a single vertex cut of size 4
    grid = np.linspace(0.01, math.pi / 16, 25)
    sweep = epsilon_sweep(state, maxcut_h, grid)
    np.testing.assert_allclose(sweep.h_phi, 4.0, atol=1e-9)
    np.testing.assert_allclose(sweep.slope, 0.0, atol=1e-9)
    np.testing.assert_allclose(sweep.covariance, 0.0, atol=1e-12)
    assert np.all(np.diff(sweep.p1) > 0)
    np.testing.assert_allclose(
        sweep.p1, np.sin(math.pi / 4 + 4.0 * grid) ** 2, atol=1e-12
    )


def test_sweep_uniform_cut_state(maxcut_h, uniform5):
    grid = np.linspace(0.002, math.pi / 20, 80)
    sweep = epsilon_sweep(uniform5, maxcut_h, grid)
    assert np.all(np.diff(sweep.p1) > 0)
    assert np.all(sweep.h_phi > 3.0)
    # the last grid point is the tight rescaling; the gain has already turned over
    assert sweep.covariance[-1] < 0
    peak = int(np.argmax(sweep.h_phi))
    assert 0 < peak < grid.size - 1
    assert sweep.slope[peak - 1] > 0 > sweep.slope[peak + 1]


def test_sweep_slope_matches_quotient_rule(maxcut_h, uniform5):
    grid = np.array([0.05, 0.1, math.pi / 24])
    sweep = epsilon_sweep(uniform5, maxcut_h, grid)
    probs = uniform5.probabilities()
    values = maxcut_h.values
    for i, eps in enumerate(grid):
        weights = np.sin(math.pi / 4 + eps * values) ** 2
        p1 = np.sum(probs * weights)
        q_num = np.sum(probs * values * weights)
        dq = np.sum(probs * values**2 * np.cos(2 * eps * values))
        dp1 = np.sum(probs * values * np.cos(2 * eps * values))
        analytic = (dq * p1 - q_num * dp1) / p1**2
        assert sweep.slope[i] == pytest.approx(analytic, rel=1e-5)


def test_sweep_slope_small_eps_limit_is_twice_variance(maxcut_h, uniform5):
    # cut variance of the uniform state is 3/2, so the slope tends to 3
    grid = np.array([1e-5, 2e-5])
    sweep = epsilon_sweep(uniform5, maxcut_h, grid)
    assert sweep.slope[0] == pytest.approx(3.0, abs=1e-3)
    # the first-order correction in eps is -8 <H> Var(H) = -36
    wider = epsilon_sweep(uniform5, maxcut_h, np.array([1e-4, 1e-3, 1e-2]))
    deviations = (wider.slope - 3.0) / wider.grid
    assert deviations[0] == pytest.approx(-36.0, rel=0.01)


def test_success_prob_derivative(maxcut_h, uniform5):
    assert success_prob_derivative(uniform5, maxcut_h, 0.0) == pytest.approx(3.0)
    eps = math.pi / 24
    delta = 1e-7
    values = maxcut_h.values
    probs = uniform5.probabilities()

    def p1(e):
        return float(np.sum(probs * np.sin(math.pi / 4 + e * values) ** 2))

    fd = (p1(eps + delta) - p1(eps - delta)) / (2 * delta)
    assert success_prob_derivative(uniform5, maxcut_h, eps) == pytest.approx(
        fd, rel=1e-6
    )


def test_sweep_grid_validation(maxcut_h, uniform5):
    with pytest.raises(ValueError):
        epsilon_sweep(uniform5, maxcut_h, np.array([0.0, 0.1]))
    with pytest.raises(ValueError):
        epsilon_sweep(uniform5, maxcut_h, np.array([0.1, math.pi / 20 + 0.01]))
    with pytest.raises(ValueError):
        epsilon_sweep(uniform5, maxcut_h, np.array([0.1, 0.05]))
    with pytest.raises(ValueError):
        epsilon_sweep(uniform5, maxcut_h, np.array([[0.1]]))


def test_sweep_requires_nonnegative_cost_on_support():
    h = DiagonalHamiltonian(2, [-0.5, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        epsilon_sweep(uniform_superposition(2), h, np.array([0.1]))
    # the negative value sits off the support here, so the sweep is legal
    sweep = epsilon_sweep(basis_state(2, 2), h, np.array([0.1]))
    assert sweep.h_phi[0] == pytest.approx(2.0)


def test_sweep_dimension_mismatch(maxcut_h):
    with pytest.raises(ValueError):
        epsilon_sweep(uniform_superposition(4), maxcut_h, np.array([0.1]))
