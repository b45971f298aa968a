"""Tests for the run-length walk analytics and the rescaling sweep."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from mdqo import (
    StateVector,
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
from mdqo.problems import DiagonalHamiltonian, Graph, build_maxcut, subspace_cost


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


def test_reset_walk_exact_large_inputs():
    # a deep reset leaves the free walk's L / (2p - 1)
    for R in (10**6, 10**300):
        assert expected_steps_with_reset_exact(WalkModel(0.75, 2, R)) == pytest.approx(
            4.0, rel=1e-12
        )
    # p = 1/2 gives L (L + R); unscaled sums U_R ~ R^2 / 2 would overflow here
    assert expected_steps_with_reset_exact(WalkModel(0.5, 1, 10**200)) == pytest.approx(
        1e200, rel=1e-12
    )
    assert expected_steps_with_reset_exact(WalkModel(0.5, 10**6, 10**6)) == pytest.approx(
        2e12, rel=1e-12
    )
    for p in (0.75, 0.25):
        expected = exact_reset_steps(p, 1000, 1000)
        value = expected_steps_with_reset_exact(WalkModel(p, 1000, 1000))
        if expected > sys.float_info.max:
            assert value == math.inf, p
        else:
            assert value == pytest.approx(float(expected), rel=1e-12), p
    # the true times, about 99^200 and 999^200, pass the float range
    assert expected_steps_with_reset_exact(WalkModel(0.01, 200, 1)) == math.inf
    assert expected_steps_with_reset_exact(WalkModel(0.001, 200, 200)) == math.inf


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


def exact_reset_steps(p: float, L: int, R: int) -> Fraction:
    """E_0 of the reset walk in rational arithmetic, from first differences.

    With D_j = E_j - E_{j+1}, the recurrence E_j = 1 + p E_{j+1} + q E_{j-1}
    reads p D_j = 1 + q D_{j-1} for j = -R+1, ..., L-1; E_{-R} = E_0 gives
    sum_{j=-R}^{-1} D_j = 0, and E_L = 0 gives E_0 = sum_{j=0}^{L-1} D_j.
    Each D_j is kept as a + b x in the unknown x = D_{-R}.
    """
    p = Fraction(p)
    q = 1 - p
    diffs = [(Fraction(0), Fraction(1))]  # D_{-R}, D_{-R+1}, ..., D_{L-1}
    for _ in range(L + R - 1):
        a, b = diffs[-1]
        diffs.append(((1 + q * a) / p, q * b / p))
    x = -sum(a for a, _ in diffs[:R]) / sum(b for _, b in diffs[:R])
    return sum(a + b * x for a, b in diffs[R:])


def test_reset_walk_against_rational_recurrence():
    assert exact_reset_steps(0.75, 2, 1) == Fraction(28, 9)
    grid = (1, 2, 5, 20, 60)
    cells = [
        (p, L, R)
        for p in (0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49, 0.5, 0.51, 0.55, 0.65, 0.75, 0.85, 0.95, 0.99)
        for L in grid
        for R in grid
    ]
    # the last time below the float range at p = 0.05, R = 5 (4.4e307) and the first past it
    cells += [(0.05, 240, 5), (0.05, 241, 5)]
    for p, L, R in cells:
        expected = exact_reset_steps(p, L, R)
        result = expected_steps_with_reset_closed_form(WalkModel(p, L, R))
        if expected > sys.float_info.max:
            assert result.exact == math.inf, (p, L, R)
            continue
        assert result.exact == pytest.approx(float(expected), rel=1e-12), (p, L, R)
        assert result.corrected == pytest.approx(float(expected), rel=1e-12), (p, L, R)
        assert result.corrected_matches, (p, L, R)


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


def test_sweep_pairs_a_state_and_a_cost_on_one_basis(g5, mis_pair):
    cost = subspace_cost(g5)
    on_basis = uniform_superposition(5, cost.basis)
    for state, h in ((on_basis, mis_pair[0]), (uniform_superposition(5), cost)):
        with pytest.raises(ValueError, match="^basis mismatch: the state and the Hamiltonian"):
            epsilon_sweep(state, h, np.array([0.01]))
        with pytest.raises(ValueError, match="^basis mismatch: the state and the Hamiltonian"):
            success_prob_derivative(state, h, 0.01)
    # the flat state on the independent sets is the dense flat feasible state
    sweep = epsilon_sweep(on_basis, cost, np.array([0.01, 0.02]))
    np.testing.assert_allclose(sweep.p1, [0.51454158, 0.52905989], rtol=1e-8)
    mask = np.zeros(32)
    mask[cost.basis] = 1.0
    dense = StateVector(5, mask / np.sqrt(cost.basis.size))
    reference = epsilon_sweep(dense, mis_pair[0], np.array([0.01, 0.02]))
    np.testing.assert_allclose(sweep.p1, reference.p1, rtol=1e-14)
    np.testing.assert_allclose(sweep.h_phi, reference.h_phi, rtol=1e-14)
    assert success_prob_derivative(on_basis, cost, 0.01) == pytest.approx(
        success_prob_derivative(dense, mis_pair[0], 0.01), rel=1e-14
    )


LONG = np.longdouble


def _per_entry(state, h, eps):
    """p1, <H>_phi, its slope by the quotient rule, the covariance and d p1 / d eps,
    summed entry by entry in long double."""
    probs = state.probabilities().astype(LONG)
    v = h.values.astype(LONG)
    s = np.sin(LONG(math.pi) / 4 + LONG(eps) * v) ** 2
    c = np.cos(2 * LONG(eps) * v)
    p1, num = np.sum(probs * s), np.sum(probs * v * s)
    dp1, dnum = np.sum(probs * v * c), np.sum(probs * v**2 * c)
    mean = np.sum(probs * v)
    return {
        "p1": p1,
        "h_phi": num / p1,
        "slope": (dnum * p1 - num * dp1) / p1**2,
        "covariance": np.sum(probs * (v - mean) * c),
        "covariance_scale": np.sum(probs * np.abs(v - mean)),
        "dp1": dp1,
        "dp1_scale": np.sum(probs * np.abs(v)),
    }


def _random_maxcut(n, rng):
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < 0.5]
    return build_maxcut(Graph(n, tuple(pairs) or ((0, 1),)))


def _sweep_cases(maxcut_h, uniform5):
    """(state, cost, grid): the README graph's uniform state and random states at n = 3..12."""
    rng = np.random.default_rng(24)
    yield uniform5, maxcut_h, np.linspace(math.pi / 1000, math.pi / 20, 50)
    for n in range(3, 13):
        h = _random_maxcut(n, rng)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        grid = np.linspace(1e-4, math.pi / (4 * h.values.max()), 7)
        yield StateVector(n, amps / np.sqrt(np.sum(np.abs(amps) ** 2))), h, grid


@pytest.mark.skipif(np.finfo(LONG).eps > 1e-18, reason="long double is no wider than double")
def test_sweep_slope_matches_quotient_rule(maxcut_h, uniform5):
    for state, h, grid in _sweep_cases(maxcut_h, uniform5):
        sweep = epsilon_sweep(state, h, grid)
        for eps, slope in zip(grid, sweep.slope):
            assert abs(slope - _per_entry(state, h, eps)["slope"]) <= 1e-12, (state.n, eps)


def _moment_cases(g5, maxcut_h):
    """States with zero entries, basis states, and states on the independent sets."""
    rng = np.random.default_rng(7)
    h = DiagonalHamiltonian(3, [-0.5, 1.0, 2.0, 2.0, 0.25, 3.0, 1.0, 0.0])
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps[[0, 3, 5]] = 0.0  # the negative entry and a whole level off the support
    yield StateVector(3, amps / np.sqrt(np.sum(np.abs(amps) ** 2))), h
    for index in (0, 2, 13):
        yield basis_state(5, index), maxcut_h
    cost = subspace_cost(g5)
    amps = rng.normal(size=cost.basis.size) + 1j * rng.normal(size=cost.basis.size)
    amps[1] = 0.0
    yield StateVector(5, amps / np.sqrt(np.sum(np.abs(amps) ** 2)), cost.basis), cost
    yield basis_state(5, 1, cost.basis), cost


def test_sweep_moments_match_per_entry_sums(g5, maxcut_h):
    for state, h in _moment_cases(g5, maxcut_h):
        support = state.probabilities() > 0
        upper = math.pi / (4 * max(h.values[support].max(), 1.0))
        grid = np.linspace(upper / 9, upper, 9)
        sweep = epsilon_sweep(state, h, grid)
        for i, eps in enumerate(grid):
            ref = _per_entry(state, h, eps)
            assert sweep.p1[i] == pytest.approx(float(ref["p1"]), rel=1e-14, abs=0)
            assert sweep.h_phi[i] == pytest.approx(float(ref["h_phi"]), rel=1e-14, abs=0)
            # the covariance and d p1 / d eps cross 0 (cos 2 eps v = 0 at the
            # tight end for a basis state): relative to the size of their terms
            for got, name in (
                (sweep.covariance[i], "covariance"),
                (success_prob_derivative(state, h, eps), "dp1"),
            ):
                assert abs(got - float(ref[name])) <= 1e-14 * float(ref[f"{name}_scale"])
