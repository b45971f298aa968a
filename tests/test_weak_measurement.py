"""Tests for the weak-measurement primitive and the aggregated analytic state."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdqo import (
    DegenerateCountsError,
    OutcomeCounts,
    ZeroBranchError,
    amplitude_modulation,
    analytic_state,
    basis_state,
    expectation,
    peak_position,
    posterior_state,
    success_probability,
    weak_step,
)
from mdqo.problems import (
    DiagonalHamiltonian,
    apply_rescaling,
    feasible_mask,
    rescaling_from_bounds,
    spectrum_bounds,
    subspace_cost,
)
from mdqo.statevector import StateVector, uniform_superposition

from conftest import random_state, rescaled_table


def test_outcome_counts_validation():
    c = OutcomeCounts(3, 7)
    assert c.total == 10
    assert c.surplus == 4
    with pytest.raises(ValueError):
        OutcomeCounts(-1, 0)


def test_success_probability_eigenstate(c_tight):
    for x in (0, 6, 17):
        c = c_tight.values[x]
        expected = math.sin(c + math.pi / 4) ** 2
        assert success_probability(basis_state(5, x), c_tight) == pytest.approx(expected)
    # zero-cost eigenstate sits exactly at the fair coin
    assert success_probability(basis_state(5, 0), c_tight) == pytest.approx(0.5)


def test_success_probability_uniform_formula(uniform5, c_tight):
    direct = np.mean(np.sin(c_tight.values + math.pi / 4) ** 2)
    p1 = success_probability(uniform5, c_tight)
    assert p1 == pytest.approx(direct, abs=1e-12)
    assert 0.5 < p1 < 1.0


def test_success_probability_rejects_unrescaled(maxcut_h, uniform5):
    with pytest.raises(ValueError):
        success_probability(uniform5, maxcut_h)


def test_out_of_range_cost_allowed_off_support(c_tight):
    # an out-of-range value only matters where the state has amplitude
    values = c_tight.values.copy()
    values[7] = 1.3  # > pi/4
    broken = DiagonalHamiltonian(5, values)
    state = basis_state(5, 6)
    assert success_probability(state, broken) == pytest.approx(
        math.sin(broken.values[6] + math.pi / 4) ** 2
    )
    with pytest.raises(ValueError):
        success_probability(basis_state(5, 7), broken)


def test_posterior_eigenstate(c_tight):
    state = basis_state(5, 9)
    post, prob = posterior_state(state, c_tight, 1)
    np.testing.assert_allclose(np.abs(post.amps), np.abs(state.amps), atol=1e-14)
    assert prob == pytest.approx(math.sin(c_tight.values[9] + math.pi / 4) ** 2)


def test_branch_probabilities_sum_to_one(c_tight):
    state = random_state(5)
    _, p0 = posterior_state(state, c_tight, 0)
    _, p1 = posterior_state(state, c_tight, 1)
    assert p0 + p1 == pytest.approx(1.0, abs=1e-12)
    assert p1 == pytest.approx(success_probability(state, c_tight), abs=1e-12)


def test_branch_operators_commute(uniform5, c_tight):
    fail_first, _ = posterior_state(uniform5, c_tight, 0)
    a, _ = posterior_state(fail_first, c_tight, 1)
    succeed_first, _ = posterior_state(uniform5, c_tight, 1)
    b, _ = posterior_state(succeed_first, c_tight, 0)
    assert np.max(np.abs(a.amps - b.amps)) < 1e-12


def test_success_improves_cost(uniform5, c_tight, maxcut_h):
    post, _ = posterior_state(uniform5, c_tight, 1)
    assert expectation(post, maxcut_h) > 3.0


def test_zero_branch_error(c_tight):
    # the maximal-cut eigenstate has c = pi/4; its failure branch is impossible
    with pytest.raises(ZeroBranchError):
        posterior_state(basis_state(5, 0b00110), c_tight, 0)
    with pytest.raises(ValueError):
        posterior_state(basis_state(5, 0), c_tight, 2)


def test_weak_step_certain_success(c_tight):
    rng = np.random.default_rng(0)
    for _ in range(20):
        b, state = weak_step(basis_state(5, 0b00110), c_tight, rng)
        assert b == 1
        assert state.amps[0b00110] != 0


def test_weak_step_fair_coin(c_tight):
    rng = np.random.default_rng(7)
    flips = [weak_step(basis_state(5, 0), c_tight, rng)[0] for _ in range(4000)]
    # binomial(4000, 1/2): 4 sigma is ~0.032
    assert abs(np.mean(flips) - 0.5) < 0.032


def test_weak_step_matches_success_probability(uniform5, c_tight):
    p1 = success_probability(uniform5, c_tight)
    rng = np.random.default_rng(21)
    n = 20_000
    hits = sum(weak_step(uniform5, c_tight, rng)[0] for _ in range(n))
    sigma = math.sqrt(p1 * (1 - p1) / n)
    assert abs(hits / n - p1) < 3 * sigma


def reference_log_norm(state, c, counts):
    """0.5 log sum_x |psi_x|^2 A_x^2, summed exactly by math.fsum."""
    terms = (
        abs(a) ** 2 * amplitude_modulation(float(cx), counts) ** 2
        for a, cx in zip(state.amps, c.values)
    )
    return 0.5 * math.log(math.fsum(terms))


def test_analytic_state_zero_counts(uniform5, c_tight):
    counts = OutcomeCounts(0, 0)
    state, log_norm = analytic_state(uniform5, c_tight, counts)
    np.testing.assert_allclose(state.amps, uniform5.amps)
    assert log_norm == pytest.approx(0.0, abs=1e-14)
    assert abs(log_norm - reference_log_norm(uniform5, c_tight, counts)) < 1e-12


def test_analytic_state_equals_sequential_posteriors(uniform5, c_tight):
    rng = np.random.default_rng(13)
    outcomes = [0] * 4 + [1] * 9
    rng.shuffle(outcomes)
    state = uniform5
    log_norm = 0.0
    for b in outcomes:
        state, prob = posterior_state(state, c_tight, b)
        log_norm += 0.5 * math.log(prob)
    counts = OutcomeCounts(4, 9)
    direct, direct_log = analytic_state(uniform5, c_tight, counts)
    assert np.max(np.abs(direct.amps - state.amps)) < 1e-10
    assert direct_log == pytest.approx(log_norm, abs=1e-9)
    assert abs(direct_log - reference_log_norm(uniform5, c_tight, counts)) < 1e-12


def test_analytic_state_marker(uniform5, c_tight, maxcut_h):
    counts = OutcomeCounts(50, 160)
    state, log_norm = analytic_state(uniform5, c_tight, counts)
    assert abs(log_norm - reference_log_norm(uniform5, c_tight, counts)) < 1e-12
    assert expectation(state, maxcut_h) == pytest.approx(2.0, abs=0.1)
    assert success_probability(state, c_tight) == pytest.approx(0.794, abs=0.01)


def test_analytic_state_survives_huge_counts(uniform5, c_tight, maxcut_h):
    # direct products of 2000 factors would underflow; log-space must not
    state, log_norm = analytic_state(uniform5, c_tight, OutcomeCounts(0, 2000))
    assert np.isfinite(state.amps).all()
    assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12
    assert math.isfinite(log_norm) and log_norm < 0
    assert expectation(state, maxcut_h) == pytest.approx(5.0, abs=1e-6)


def test_degenerate_counts_raise_without_a_warning():
    # cos(pi/2)**(10**308) overflows the log weight to -inf and -inf - -inf is NaN;
    # both stay inside analytic_state, which reports the error itself
    c = DiagonalHamiltonian(2, [0.0, 0.3, math.pi / 4, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateCountsError, match="vanish"):
            analytic_state(basis_state(2, 2), c, OutcomeCounts(10**308, 0))


def test_analytic_state_nonuniform_start(c_tight):
    start = random_state(17)
    via_two = analytic_state(
        analytic_state(start, c_tight, OutcomeCounts(2, 3))[0],
        c_tight,
        OutcomeCounts(1, 4),
    )[0]
    direct = analytic_state(start, c_tight, OutcomeCounts(3, 7))[0]
    assert np.max(np.abs(np.abs(via_two.amps) - np.abs(direct.amps))) < 1e-10


def test_amplitude_modulation_examples():
    assert amplitude_modulation(0.1, OutcomeCounts(0, 0)) == 1.0
    assert amplitude_modulation(math.pi / 4, OutcomeCounts(0, 1)) == pytest.approx(1.0)
    assert amplitude_modulation(0.0, OutcomeCounts(1, 1)) == pytest.approx(0.5)


def test_peak_position_examples():
    assert peak_position(OutcomeCounts(4, 4)) == 0.0
    assert peak_position(OutcomeCounts(0, 3)) == pytest.approx(math.pi / 4)
    assert peak_position(OutcomeCounts(10, 20)) == pytest.approx(0.5 * math.asin(1 / 3))
    with pytest.raises(ValueError):
        peak_position(OutcomeCounts(0, 0))


def test_half_angle_identity_cross_check(c_tight):
    # 1 + sin 2x = 2 sin^2(pi/4 + x): the p1 formula equals the branch norm
    state = random_state(29)
    _, branch_prob = posterior_state(state, c_tight, 1)
    assert success_probability(state, c_tight) == pytest.approx(branch_prob, abs=1e-12)
    xs = np.linspace(0, math.pi / 4, 101)
    np.testing.assert_allclose(1 + np.sin(2 * xs), 2 * np.sin(math.pi / 4 + xs) ** 2, atol=1e-14)


# module-level tables for the hypothesis properties (fixtures don't mix with @given)
from mdqo import Graph, apply_rescaling, build_maxcut, rescaling_from_bounds, spectrum_bounds
from conftest import G5_EDGES_1INDEXED

_H5 = build_maxcut(Graph.from_1indexed(5, G5_EDGES_1INDEXED))
_C5 = apply_rescaling(rescaling_from_bounds(spectrum_bounds(_H5, "brute-force")), _H5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_success_floor(seed):
    state = random_state(seed)
    p1 = success_probability(state, _C5)
    mean_c = float(np.sum(state.probabilities() * _C5.values))
    assert p1 >= 0.5 + (2 / math.pi) * mean_c - 1e-12
    assert p1 > 0.5


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_success_monotonicity(seed):
    state = random_state(seed)
    post, _ = posterior_state(state, _C5, 1)
    assert success_probability(post, _C5) >= success_probability(state, _C5) - 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_cost_improvement_identity(seed):
    state = random_state(seed)
    post, _ = posterior_state(state, _C5, 1)
    before = expectation(state, _H5)
    after = expectation(post, _H5)
    assert after >= before - 1e-12
    probs = state.probabilities()
    sin2c = np.sin(2 * _C5.values)
    p1 = success_probability(state, _C5)
    predicted = (
        float(np.sum(probs * _H5.values * sin2c)) - before * float(np.sum(probs * sin2c))
    ) / (2 * p1)
    assert after - before == pytest.approx(predicted, abs=1e-10)


def test_closed_forms_keep_the_basis(g5, mis_pair, mis_instance):
    cost = subspace_cost(g5)
    r = rescaling_from_bounds(spectrum_bounds(cost, "brute-force"))
    c = apply_rescaling(r, cost)
    state0 = uniform_superposition(5, cost.basis)
    # the dense reference: the same state and cost on all 32 strings, the
    # infeasible ones at zero amplitude and rescaled past pi/4
    mask = feasible_mask(mis_instance)
    dense0 = StateVector(5, mask / np.sqrt(mask.sum()))
    dense_c = rescaled_table(r, mis_pair[0])
    counts = OutcomeCounts(3, 11)
    state, log_norm = analytic_state(state0, c, counts)
    reference, reference_log_norm = analytic_state(dense0, dense_c, counts)
    assert state.basis is cost.basis
    np.testing.assert_allclose(state.amps, reference.amps[mask], rtol=1e-14, atol=0)
    assert log_norm == pytest.approx(reference_log_norm, rel=1e-14)
    p1 = success_probability(state, c)
    assert p1 == pytest.approx(success_probability(reference, dense_c), rel=1e-15)
    for b in (0, 1):
        post, prob = posterior_state(state, c, b)
        post_reference, prob_reference = posterior_state(reference, dense_c, b)
        assert post.basis is cost.basis
        np.testing.assert_allclose(post.amps, post_reference.amps[mask], rtol=1e-14, atol=0)
        assert prob == pytest.approx(prob_reference, rel=1e-14)
    b, stepped = weak_step(state, c, np.random.default_rng(3))
    assert stepped.basis is cost.basis
    assert b == weak_step(reference, dense_c, np.random.default_rng(3))[0]


def test_closed_forms_reject_a_cost_on_another_basis(g5, mis_pair):
    cost = subspace_cost(g5)
    c = apply_rescaling(rescaling_from_bounds(spectrum_bounds(cost, "brute-force")), cost)
    on_basis = uniform_superposition(5, cost.basis)
    dense_c = DiagonalHamiltonian(5, np.zeros(32))
    calls = [
        lambda state, cost: analytic_state(state, cost, OutcomeCounts(1, 2)),
        success_probability,
        lambda state, cost: posterior_state(state, cost, 1),
        lambda state, cost: weak_step(state, cost, np.random.default_rng(0)),
    ]
    message = "basis mismatch: the state and the cost live on different bases"
    for call in calls:
        for state, table in ((on_basis, dense_c), (uniform_superposition(5), c)):
            with pytest.raises(ValueError) as info:
                call(state, table)
            assert str(info.value) == message
