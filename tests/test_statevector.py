"""Tests for the statevector operations and cost statistics, dense and on a basis."""

import math
import tracemalloc

import numpy as np
import pytest

from mdqo import (
    MIS_CONTROLLED,
    TRANSVERSE_FIELD,
    Graph,
    MixerSpec,
    OutcomeCounts,
    ProblemInstance,
    StateVector,
    analytic_state,
    apply_mixer,
    apply_controlled_x_rotation,
    apply_diagonal_phase,
    apply_x_rotation_all,
    basis_state,
    bitstring_to_index,
    build_maxcut,
    build_mis,
    cost_distribution,
    expectation,
    index_to_bitstring,
    penalize,
    rescaling_from_bounds,
    sample_bitstring,
    spectrum_bounds,
    uniform_superposition,
)
from mdqo.control import _materialise, prepare_tables, weigh
from mdqo.problems import DiagonalHamiltonian
from mdqo.statevector import GROUP_TOL

from conftest import random_state


def test_uniform_superposition():
    state = uniform_superposition(5)
    np.testing.assert_allclose(state.amps, np.full(32, 1 / math.sqrt(32)))


def test_uniform_superposition_makes_its_amplitudes_once():
    # one complex array and the basis check, against two arrays when the
    # amplitudes were copied into the state; numpy reports its buffers to
    # tracemalloc, and a read-only int64 basis is shared, not copied
    n = 16
    basis = np.arange(0, 2**n, 2)
    basis.setflags(write=False)
    for b, size in ((None, 2**n), (basis, basis.size)):
        tracemalloc.start()
        try:
            state = uniform_superposition(n, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 16 * size
        assert state.amps.tobytes() == np.full(size, 1 / math.sqrt(size), dtype=complex).tobytes()
        assert not state.amps.flags.writeable
    with pytest.raises(ValueError, match="strictly increasing"):
        uniform_superposition(3, [2, 1])


def test_basis_state_and_bit_convention():
    state = basis_state(3, 0b101)
    assert state.amps[5] == 1.0
    assert index_to_bitstring(0b101, 3) == "101"
    assert index_to_bitstring(25, 5) == "10011"
    assert bitstring_to_index("10011") == 25
    for x in range(8):
        assert bitstring_to_index(index_to_bitstring(x, 3)) == x


def test_bitstring_rendering_is_the_per_bit_rule():
    # character u is bit u of x, for the n low bits of any int (two's
    # complement below 0), and bitstring_to_index reads those bits back
    def per_bit(x, n):
        return "".join(str((x >> u) & 1) for u in range(n))

    cases = [(x, 10) for x in range(2**10)]
    cases += [(x, 63) for x in (0, 2**63 - 1, 0x5555_5555_5555_5555, -1)]
    for x, n in cases:
        bits = index_to_bitstring(x, n)
        assert bits == per_bit(x, n)
        assert bitstring_to_index(bits) == x & (2**n - 1)
    assert index_to_bitstring(5, 0) == per_bit(5, 0) == ""


def test_bitstring_validation():
    with pytest.raises(ValueError):
        bitstring_to_index("10a")
    with pytest.raises(ValueError):
        basis_state(2, 4)


def test_norm_validation():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0]))


def test_diagonal_phase_values(maxcut_h, uniform5):
    gamma = 0.37
    out = apply_diagonal_phase(uniform5, maxcut_h, gamma)
    np.testing.assert_allclose(
        out.amps, uniform5.amps * np.exp(-1j * gamma * maxcut_h.values), atol=1e-14
    )


def test_diagonal_phases_compose(maxcut_h, uniform5):
    a = apply_diagonal_phase(apply_diagonal_phase(uniform5, maxcut_h, 0.3), maxcut_h, 0.5)
    b = apply_diagonal_phase(uniform5, maxcut_h, 0.8)
    assert np.max(np.abs(a.amps - b.amps)) < 1e-12


def test_diagonal_phase_dimension_mismatch(maxcut_h):
    with pytest.raises(ValueError):
        apply_diagonal_phase(uniform_superposition(4), maxcut_h, 0.1)


def test_x_rotation_inverse():
    state = random_state(11)
    back = apply_x_rotation_all(apply_x_rotation_all(state, 0.81), -0.81)
    assert np.max(np.abs(back.amps - state.amps)) < 1e-12


def test_x_rotation_half_pi_flips_everything():
    out = apply_x_rotation_all(basis_state(5, 0), math.pi / 2)
    probs = out.probabilities()
    assert probs[31] == pytest.approx(1.0)


def test_x_rotation_single_qubit_matrix():
    beta = 0.4
    out = apply_x_rotation_all(basis_state(1, 0), beta)
    np.testing.assert_allclose(
        out.amps, [math.cos(beta), -1j * math.sin(beta)], atol=1e-15
    )


def test_controlled_rotation_blocked_by_occupied_control():
    # control qubit 1 is set, so the target rotation must not fire
    state = basis_state(2, 0b10)
    out = apply_controlled_x_rotation(state, 0, (1,), 0.9)
    np.testing.assert_allclose(out.amps, state.amps)
    # with the control clear it acts as a plain rotation on qubit 0
    out2 = apply_controlled_x_rotation(basis_state(2, 0), 0, (1,), 0.9)
    assert abs(out2.amps[1]) == pytest.approx(math.sin(0.9))


def test_controlled_rotation_validation():
    state = basis_state(2, 0)
    with pytest.raises(ValueError):
        apply_controlled_x_rotation(state, 0, (0,), 0.5)
    with pytest.raises(ValueError):
        apply_controlled_x_rotation(state, 2, (), 0.5)
    with pytest.raises(ValueError):
        apply_controlled_x_rotation(state, 0, (5,), 0.5)


def test_controlled_rotation_unitary():
    state = random_state(7, n=4)
    out = apply_controlled_x_rotation(state, 2, (0, 3), 1.1)
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


def test_expectation_examples(maxcut_h, mis_pair, uniform5):
    assert expectation(uniform5, maxcut_h) == pytest.approx(3.0)
    assert expectation(basis_state(5, 0b00110), maxcut_h) == pytest.approx(5.0)
    h_mis, _ = mis_pair
    assert expectation(uniform5, h_mis) == pytest.approx(2.5)


def test_cost_distribution_uniform(maxcut_h, uniform5):
    dist = cost_distribution(uniform5, maxcut_h)
    np.testing.assert_allclose(dist.support, [0, 1, 2, 3, 4, 5])
    assert dist.prob_of(0.0) == pytest.approx(2 / 32)
    assert dist.mean == pytest.approx(3.0, abs=1e-10)
    assert dist.variance == pytest.approx(1.5, abs=1e-10)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_cost_distribution_moments_match_expectation(maxcut_h):
    state = random_state(3)
    dist = cost_distribution(state, maxcut_h)
    direct = expectation(state, maxcut_h)
    assert dist.mean == pytest.approx(direct, abs=1e-10)
    second = float(np.sum(state.probabilities() * maxcut_h.values**2))
    assert dist.variance == pytest.approx(second - direct**2, abs=1e-10)


def test_cost_distribution_groups_close_values():
    values = np.array([0.0, 1e-12, 1.0, 1.0 + 5e-10])
    h = DiagonalHamiltonian(2, values)
    dist = cost_distribution(uniform_superposition(2), h)
    assert dist.support.shape == (2,)
    np.testing.assert_allclose(dist.probs, [0.5, 0.5])


def reference_distribution(state, h):
    """|amps|^2 grouped as a stable argsort of all 2**n costs, then np.add.reduceat."""
    order = np.argsort(h.values, kind="stable")
    vals, p = h.values[order], state.probabilities()[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(vals) > GROUP_TOL) + 1))
    return vals[starts], np.add.reduceat(p, starts)


def sparse_random_state(rng, n):
    """A random complex dense state with about a quarter of its entries zero."""
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps[rng.random(2**n) < 0.25] = 0.0
    amps[rng.integers(2**n)] = 1.0  # never all zero
    return StateVector(n, amps / np.linalg.norm(amps))


def random_edges(rng, n):
    return tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4)


def random_costs(rng, n):
    """Real costs with repeated values and chains of values spaced below GROUP_TOL."""
    base = rng.normal(size=rng.integers(1, 2**n + 1)) * 3.0
    chain = base[0] + 0.4 * GROUP_TOL * np.arange(1, 6)  # spans more than GROUP_TOL
    near = base + 0.9 * GROUP_TOL
    return rng.choice(np.concatenate((base, chain, near)), size=2**n)


def cost_tables(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(3):
        graph = Graph(n, random_edges(rng, n))
        yield build_maxcut(graph)
        h, p = build_mis(graph)
        for lam in (1.5, 0.7, 1 / 3):
            yield penalize(h, p, lam)
        yield DiagonalHamiltonian(n, random_costs(rng, n))


@pytest.mark.parametrize("n", range(2, 13))
def test_cost_distribution_matches_a_sorted_reference_grouping(n):
    rng = np.random.default_rng(n)
    for h in cost_tables(n):
        # the basis state at a lowest cost leaves every higher level empty
        lowest = basis_state(n, int(np.argmin(h.values)))
        for state in (sparse_random_state(rng, n), uniform_superposition(n), lowest):
            support, probs = reference_distribution(state, h)
            dist = cost_distribution(state, h)
            assert dist.support.tobytes() == support.tobytes()
            np.testing.assert_allclose(dist.probs, probs, rtol=0, atol=1e-14)
            mean = float(np.sum(probs * support))
            variance = float(np.sum(probs * support**2) - mean**2)
            assert dist.mean == pytest.approx(mean, rel=1e-12)
            assert dist.variance == pytest.approx(variance, rel=1e-12)


def test_sample_bitstring_deterministic(uniform5):
    a = sample_bitstring(uniform5, np.random.default_rng(123))
    b = sample_bitstring(uniform5, np.random.default_rng(123))
    assert a == b
    assert sample_bitstring(basis_state(5, 19), np.random.default_rng(0)) == 19


def test_sample_bitstring_frequencies():
    state = StateVector(1, np.array([math.sqrt(0.2), math.sqrt(0.8)]))
    rng = np.random.default_rng(42)
    draws = [sample_bitstring(state, rng) for _ in range(20_000)]
    assert np.mean(draws) == pytest.approx(0.8, abs=0.02)


def test_norm_check_reads_complex_amplitudes():
    # the check sums re^2 + im^2 over the float64 view of the amplitudes
    amps = np.full(4, 0.5 * (1 + 1j) / math.sqrt(2))
    StateVector(2, amps * (1 + 1e-12))
    with pytest.raises(ValueError, match="state norm .* deviates from 1"):
        StateVector(2, amps * (1 + 1e-9))
    with pytest.raises(ValueError, match="state norm"):
        StateVector(2, amps.real)


def test_owning_constructor_keeps_the_checks():
    with pytest.raises(ValueError, match="complex128"):
        StateVector._own(1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="expected 4 amplitudes"):
        StateVector._own(2, np.array([1.0, 0.0], dtype=np.complex128))
    with pytest.raises(ValueError, match="state norm"):
        StateVector._own(1, np.array([1.0, 1.0], dtype=np.complex128))
    amps = np.array([0.0, 1.0], dtype=np.complex128)
    state = StateVector._own(1, amps)
    assert state.n == 1 and state.amps is amps and not amps.flags.writeable


def test_built_states_are_read_only_and_own_their_amplitudes(g5, c_tight, tight_rescaling):
    state = random_state(7)
    tables = prepare_tables(ProblemInstance(g5, "maxcut"), tight_rescaling)
    base = weigh(tables, state, False)
    outputs = [
        apply_x_rotation_all(state, 0.3),
        apply_controlled_x_rotation(state, 1, (0, 2), 0.3),
        apply_mixer(state, MixerSpec(TRANSVERSE_FIELD, 0.3)),
        apply_mixer(state, MixerSpec(MIS_CONTROLLED, 0.3, g5)),
        analytic_state(state, c_tight, OutcomeCounts(2, 5))[0],
        _materialise(tables, base, base.w),
    ]
    for out in outputs:
        assert not out.amps.flags.writeable
        assert not np.shares_memory(out.amps, state.amps)


def test_states_on_a_basis(g5):
    basis = g5.subspace.basis
    flat = uniform_superposition(5, basis)
    assert flat.basis is basis and flat.amps.shape == basis.shape
    dense = np.zeros(32, dtype=np.complex128)
    dense[basis] = 1.0
    dense /= math.sqrt(basis.size)
    assert flat.amps.tobytes() == dense[basis].tobytes()
    one = basis_state(5, 0b11001, basis)
    assert one.amps[np.searchsorted(basis, 0b11001)] == 1.0
    assert sample_bitstring(one, np.random.default_rng(0)) == 0b11001
    draws = {sample_bitstring(flat, np.random.default_rng(seed)) for seed in range(200)}
    assert draws == set(basis.tolist())
    with pytest.raises(ValueError, match="not in the basis"):
        basis_state(5, 0b00110, basis)
    copied = StateVector(5, flat.amps, basis.tolist())
    assert not copied.basis.flags.writeable and copied.basis is not basis
    with pytest.raises(ValueError, match="strictly increasing"):
        StateVector(2, [0.6, 0.8], [3, 1])
    with pytest.raises(ValueError, match="must lie in"):
        StateVector(2, [0.6, 0.8], [1, 4])
    with pytest.raises(ValueError, match="expected 2 amplitudes"):
        StateVector(2, [0.6, 0.8, 0.0], [1, 2])


def test_materialised_subspace_states_keep_the_basis(g5):
    cost = g5.subspace
    tables = prepare_tables(
        ProblemInstance(g5, "mis"), rescaling_from_bounds(spectrum_bounds(cost, "brute-force"))
    )
    base = weigh(tables, uniform_superposition(5, cost.basis), False)
    out = _materialise(tables, base, base.w)
    assert out.basis is tables.basis is cost.basis
    assert not out.amps.flags.writeable


def on_basis(g5):
    """The flat state on the independent sets of g5, and their cost."""
    cost = g5.subspace
    return uniform_superposition(5, cost.basis), cost


def test_diagonal_phase_needs_a_dense_state(g5):
    state, cost = on_basis(g5)
    with pytest.raises(ValueError, match="^apply_diagonal_phase needs a dense state, not one on"):
        apply_diagonal_phase(state, cost, 0.3)


def test_x_rotation_needs_a_dense_state(g5):
    state, _ = on_basis(g5)
    with pytest.raises(ValueError, match="^apply_x_rotation_all needs a dense state"):
        apply_x_rotation_all(state, 0.3)


def test_controlled_x_rotation_needs_a_dense_state(g5):
    state, _ = on_basis(g5)
    with pytest.raises(ValueError, match="^apply_controlled_x_rotation needs a dense state"):
        apply_controlled_x_rotation(state, 0, (1, 2), 0.3)


def test_cost_distribution_needs_a_dense_state(g5):
    state, cost = on_basis(g5)
    with pytest.raises(ValueError, match="^cost_distribution needs a dense state"):
        cost_distribution(state, cost)


def test_diagonal_phase_needs_a_dense_cost(g5):
    with pytest.raises(ValueError, match="^apply_diagonal_phase needs a dense cost, not one on a"):
        apply_diagonal_phase(uniform_superposition(5), g5.subspace, 0.3)
    # an edgeless graph's basis holds every string, in order
    edgeless = Graph(3, ())
    assert np.array_equal(
        apply_diagonal_phase(uniform_superposition(3), edgeless.subspace, 0.3).amps,
        apply_diagonal_phase(uniform_superposition(3), build_mis(edgeless)[0], 0.3).amps,
    )


def test_cost_distribution_needs_a_dense_cost(g5):
    cost = g5.subspace
    # string 3 holds the edge (0, 1): no entry of the basis describes it
    for state in (basis_state(5, 3), uniform_superposition(5)):
        with pytest.raises(ValueError, match="^cost_distribution needs a dense cost, not one on"):
            cost_distribution(state, cost)
    edgeless = Graph(3, ())
    dist = cost_distribution(uniform_superposition(3), edgeless.subspace)
    dense = cost_distribution(uniform_superposition(3), build_mis(edgeless)[0])
    assert dist.support.tobytes() == dense.support.tobytes()
    assert dist.probs.tobytes() == dense.probs.tobytes()


def test_expectation_on_a_basis(g5, mis_pair):
    state, cost = on_basis(g5)
    # the dense reference: the same amplitudes put back on their strings
    dense = np.zeros(32, dtype=np.complex128)
    dense[cost.basis] = state.amps
    assert expectation(state, cost) == pytest.approx(
        expectation(StateVector(5, dense), mis_pair[0]), rel=1e-15
    )
    with pytest.raises(ValueError, match="^basis mismatch: the state and the Hamiltonian"):
        expectation(state, mis_pair[0])
    with pytest.raises(ValueError, match="^basis mismatch"):
        expectation(StateVector(5, dense), cost)
    # an equal basis held in another array is the same basis
    assert expectation(state, DiagonalHamiltonian(5, cost.values, basis=cost.basis.copy())) == (
        expectation(state, cost)
    )
