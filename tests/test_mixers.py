"""Tests for mixers, the connectivity check, and the depth-1 ansatz."""

import math

import numpy as np
import pytest

from mdqo import (
    MIS_CONTROLLED,
    TRANSVERSE_FIELD,
    AnsatzParams,
    CapacityError,
    Graph,
    MixerSpec,
    ProblemInstance,
    apply_mixer,
    basis_state,
    expectation,
    feasible_initial_state,
    feasible_mask,
    optimize_qaoa1,
    qaoa1_state,
    uniform_superposition,
)
from mdqo.problems import DiagonalHamiltonian

from conftest import random_state

# Feasible-subspace dimension cap for the dense connectivity check.
CONNECTIVITY_DIM_CAP = 4096


def mixer_connectivity_check(spec: MixerSpec, instance: ProblemInstance) -> bool:
    """Whether repeated mixer application connects every feasible pair.

    Builds the mixer matrix restricted to the feasible basis and accumulates
    nonzero entries of its powers up to the feasible dimension; true iff every
    ordered pair (including the diagonal) becomes reachable.
    """
    if instance.kind == "mis":
        mask = feasible_mask(instance)
    else:
        mask = np.ones(2**instance.graph.n, dtype=bool)
    basis = np.flatnonzero(mask)
    dim = basis.size
    if dim > CONNECTIVITY_DIM_CAP:
        raise CapacityError(
            f"feasible dimension {dim} exceeds connectivity-check cap {CONNECTIVITY_DIM_CAP}"
        )
    if dim <= 1:
        return True
    cols = []
    for x in basis:
        out = apply_mixer(basis_state(instance.graph.n, int(x)), spec)
        cols.append(out.amps[basis])
    mat = np.column_stack(cols)
    reachable = np.abs(mat) > 1e-12
    power = mat
    for _ in range(dim - 1):
        if reachable.all():
            return True
        power = mat @ power
        reachable |= np.abs(power) > 1e-12
    return bool(reachable.all())


def test_mixer_spec_validation(g5):
    with pytest.raises(ValueError):
        MixerSpec("xy", 0.1)
    with pytest.raises(ValueError):
        MixerSpec(TRANSVERSE_FIELD, math.nan)
    with pytest.raises(ValueError):
        MixerSpec(MIS_CONTROLLED, 0.1)  # graph missing
    MixerSpec(MIS_CONTROLLED, 0.1, g5)


@pytest.mark.parametrize("kind", [TRANSVERSE_FIELD, MIS_CONTROLLED])
def test_chi_zero_is_identity(g5, kind):
    state = random_state(4)
    spec = MixerSpec(kind, 0.0, g5 if kind == MIS_CONTROLLED else None)
    out = apply_mixer(state, spec)
    np.testing.assert_allclose(out.amps, state.amps, atol=1e-15)


def test_transverse_half_pi_flips(g5):
    out = apply_mixer(basis_state(5, 0), MixerSpec(TRANSVERSE_FIELD, math.pi / 2))
    assert out.probabilities()[0b11111] == pytest.approx(1.0)


def test_mixer_unitarity(g5):
    state = random_state(9)
    for spec in (
        MixerSpec(TRANSVERSE_FIELD, 0.77),
        MixerSpec(MIS_CONTROLLED, 0.77, g5),
    ):
        out = apply_mixer(state, spec)
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


def test_mis_mixer_preserves_feasibility(g5, mis_instance):
    mask = feasible_mask(mis_instance)
    out = apply_mixer(basis_state(5, 0), MixerSpec(MIS_CONTROLLED, 0.6, g5))
    assert np.all(out.amps[~mask] == 0)
    # single application from the empty set reaches exactly the single-vertex openings
    support = np.flatnonzero(np.abs(out.amps) > 1e-12)
    assert 0 in support
    assert set(support) <= set(np.flatnonzero(mask))


def test_mis_mixer_feasibility_random_graphs():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(3, 8))
        edges = tuple(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        )
        g = Graph(n, edges)
        inst = ProblemInstance(g, "mis")
        mask = feasible_mask(inst)
        # random feasible-supported state
        amps = np.zeros(2**n, dtype=complex)
        amps[mask] = rng.normal(size=int(mask.sum())) + 1j * rng.normal(size=int(mask.sum()))
        amps /= np.linalg.norm(amps)
        from mdqo import StateVector

        state = StateVector(n, amps)
        out = apply_mixer(state, MixerSpec(MIS_CONTROLLED, 0.9, g))
        assert np.all(out.amps[~mask] == 0)


def test_connectivity_transverse_maxcut(g5):
    inst = ProblemInstance(g5, "maxcut")
    assert mixer_connectivity_check(MixerSpec(TRANSVERSE_FIELD, 0.3), inst)
    assert not mixer_connectivity_check(MixerSpec(TRANSVERSE_FIELD, 0.0), inst)
    # chi = pi/2 is a global bit flip: a permutation, not a mixer
    assert not mixer_connectivity_check(MixerSpec(TRANSVERSE_FIELD, math.pi / 2), inst)


def test_connectivity_mis_controlled(g5, mis_instance):
    assert mixer_connectivity_check(
        MixerSpec(MIS_CONTROLLED, math.pi / 4, g5), mis_instance
    )
    assert not mixer_connectivity_check(MixerSpec(MIS_CONTROLLED, 0.0, g5), mis_instance)


def test_qaoa1_zero_angles_is_uniform(maxcut_h):
    state = qaoa1_state(maxcut_h, AnsatzParams(0.0, 0.0))
    np.testing.assert_allclose(state.amps, uniform_superposition(5).amps)


def test_qaoa1_beta_is_not_a_global_phase(maxcut_h):
    base = qaoa1_state(maxcut_h, AnsatzParams(0.5, 0.0))
    mixed = qaoa1_state(maxcut_h, AnsatzParams(0.5, 0.7))
    assert expectation(mixed, maxcut_h) != pytest.approx(expectation(base, maxcut_h), abs=1e-6)


def test_optimize_qaoa1_beats_uniform(maxcut_h):
    params = optimize_qaoa1(maxcut_h, 64)
    value = expectation(qaoa1_state(maxcut_h, params), maxcut_h)
    assert value > 3.0


def test_optimize_qaoa1_matches_independent_evaluation(maxcut_h):
    params = optimize_qaoa1(maxcut_h, 32)
    best = expectation(qaoa1_state(maxcut_h, params), maxcut_h)
    grid = [math.pi * i / 32 for i in range(32)]
    brute = max(
        expectation(qaoa1_state(maxcut_h, AnsatzParams(g, b)), maxcut_h)
        for g in grid
        for b in grid
    )
    assert best == pytest.approx(brute, abs=1e-9)


def test_optimize_qaoa1_deterministic_on_constant_cost():
    flat = DiagonalHamiltonian(3, np.full(8, 2.0))
    params = optimize_qaoa1(flat, 8)
    assert expectation(qaoa1_state(flat, params), flat) == pytest.approx(2.0)
    assert optimize_qaoa1(flat, 8) == params
    with pytest.raises(ValueError):
        optimize_qaoa1(flat, 1)


@pytest.mark.parametrize("n, resolution", [(1, 2), (2, 5), (3, 8)])
def test_optimize_qaoa1_tie_break_on_zero_cost(n, resolution):
    # Every grid value is exactly 0.0, so the smallest pair (0, 0) must win.
    zero = DiagonalHamiltonian(n, np.zeros(2**n))
    assert optimize_qaoa1(zero, resolution) == AnsatzParams(0.0, 0.0)


@pytest.mark.parametrize("resolution", [4, 8])
def test_optimize_qaoa1_tie_break_on_symmetric_cost(resolution):
    # For H = diag(1, -1), <H> = sin(2 beta) sin(2 gamma) peaks at both
    # (pi/4, pi/4) and (3pi/4, 3pi/4); the grid values tie exactly, and the
    # lexicographically smaller pair must win.
    z = DiagonalHamiltonian(1, np.array([1.0, -1.0]))
    quarter = math.pi * (resolution // 4) / resolution
    assert optimize_qaoa1(z, resolution) == AnsatzParams(quarter, quarter)


def test_feasible_initial_state(g5, mis_instance, mis_pair):
    _, p = mis_pair
    assert np.array_equal(
        feasible_initial_state(g5, 0.0).amps, basis_state(5, 0).amps
    )
    state = feasible_initial_state(g5, math.pi / 4)
    assert expectation(state, p) == pytest.approx(0.0, abs=1e-12)
    assert int(np.sum(np.abs(state.amps) > 1e-12)) > 1
