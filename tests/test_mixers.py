"""Tests for mixers, the connectivity check, and the depth-1 ansatz."""

import math
import tracemalloc

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
from mdqo.mixers import check_grid_size, ising_grid
from mdqo.problems import DiagonalHamiltonian, build_maxcut, build_mis, penalize

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
    # the spec's graph must have the state's qubits, for a dense state and one on a basis
    g6 = Graph(6, ((0, 1), (1, 2)))
    for state in (uniform_superposition(5), uniform_superposition(5, g5.subspace.basis)):
        with pytest.raises(ValueError) as info:
            apply_mixer(state, MixerSpec(MIS_CONTROLLED, 0.1, g6))
        assert str(info.value) == "dimension mismatch: state n=5, graph n=6"


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


def test_qaoa1_state_needs_a_dense_cost(g5):
    params = AnsatzParams(0.4, 0.7)
    with pytest.raises(ValueError, match="^apply_diagonal_phase needs a dense cost, not one on a"):
        qaoa1_state(g5.subspace, params)
    # an edgeless graph's basis holds every string, in order
    edgeless = Graph(3, ())
    assert np.array_equal(
        qaoa1_state(edgeless.subspace, params).amps,
        qaoa1_state(build_mis(edgeless)[0], params).amps,
    )


def test_optimize_qaoa1_needs_a_dense_cost(g5):
    with pytest.raises(ValueError, match="^optimize_qaoa1 needs a dense cost, not one on a basis"):
        optimize_qaoa1(g5.subspace, 8)
    edgeless = Graph(3, ())
    assert optimize_qaoa1(edgeless.subspace, 8) == optimize_qaoa1(build_mis(edgeless)[0], 8)


def test_optimize_qaoa1_dense_cap_precedes_the_basis_check():
    # a 21-qubit grid at resolution 2 passes GRID_CAP, and the dense cap
    # stops the search before it reads the cost
    above_cap = DiagonalHamiltonian(21, np.zeros(1), basis=np.array([0]))
    with pytest.raises(CapacityError, match="exceeds the dense-table cap of 20 qubits"):
        optimize_qaoa1(above_cap, 2)


def random_edge_graph(seed: int) -> Graph:
    """n in 4..7 vertices, edges drawn as 2n index pairs without loops or duplicates."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    pairs = rng.integers(0, n, (2 * n, 2))
    return Graph(n, tuple(sorted({(int(min(p)), int(max(p))) for p in pairs if p[0] != p[1]})))


def spins(n: int) -> np.ndarray:
    """z_u = 1 - 2 x_u for every basis index x, one row per index."""
    return 1 - 2 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)


def random_ising(n: int, rng: np.random.Generator) -> DiagonalHamiltonian:
    """A non-integer 2-local cost: a constant, a field per qubit and a coupling per pair."""
    z = spins(n)
    fields, couplings = rng.normal(size=n), np.triu(rng.normal(size=(n, n)), 1)
    return DiagonalHamiltonian(n, 0.3 + z @ fields + np.einsum("xu,uv,xv->x", z, couplings, z))


def test_optimize_qaoa1_matches_independent_evaluation(maxcut_h):
    # The grid returns exactly the first gamma-major maximum of qaoa1_state's
    # <H>, twins at beta + pi/2 included: every grid value is that <H> bit for
    # bit.  Beyond MaxCut: penalised MIS, a 2-local cost with fields, and a
    # cost with a 3-body term z0 z1 z2, which no pairwise form holds.
    hamiltonians = [maxcut_h] + [build_maxcut(random_edge_graph(seed)) for seed in range(10)]
    for seed in range(3):
        h, p = build_mis(random_edge_graph(seed + 20))
        hamiltonians.append(penalize(h, p, 1.7))
    hamiltonians.append(random_ising(5, np.random.default_rng(3)))
    z = spins(maxcut_h.n)
    cubic = maxcut_h.values + z[:, 0] * z[:, 1] * z[:, 2]
    hamiltonians.append(DiagonalHamiltonian(maxcut_h.n, cubic))
    for h in hamiltonians:
        for resolution in (16, 32):
            grid = [math.pi * i / resolution for i in range(resolution)]
            brute = np.array(
                [[expectation(qaoa1_state(h, AnsatzParams(g, b)), h) for b in grid] for g in grid]
            )
            gi, bi = np.unravel_index(int(np.argmax(brute)), brute.shape)
            assert optimize_qaoa1(h, resolution) == AnsatzParams(grid[gi], grid[bi])


def maxcut_depth1_closed_form(graph: Graph, gamma: float, beta: float) -> float:
    """<C> of the depth-1 ansatz on MaxCut, summed edge by edge.

    Wang, Hadfield, Jiang & Rieffel, PRA 97, 022304 (2018), in this
    package's convention exp(-i beta sum X) exp(-i gamma C) |+>^n: an edge
    (u, v) with d_u = deg(u) - 1, d_v = deg(v) - 1 and lam common neighbours
    contributes 1/2 + 1/4 sin4b sin g (cos^d_u g + cos^d_v g)
    - 1/4 sin^2 2b cos^(d_u + d_v - 2 lam) g (1 - cos^lam 2g).
    """
    neighbors = [set(graph.neighbors(u)) for u in range(graph.n)]
    total = 0.0
    for u, v in graph.edges:
        du, dv = len(neighbors[u]) - 1, len(neighbors[v]) - 1
        lam = len(neighbors[u] & neighbors[v])
        total += (
            0.5
            + 0.25 * math.sin(4 * beta) * math.sin(gamma)
            * (math.cos(gamma) ** du + math.cos(gamma) ** dv)
            - 0.25 * math.sin(2 * beta) ** 2 * math.cos(gamma) ** (du + dv - 2 * lam)
            * (1 - math.cos(2 * gamma) ** lam)
        )
    return total


def test_qaoa1_state_matches_maxcut_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5)
        graph = Graph(n, edges)
        h = build_maxcut(graph)
        for gamma, beta in rng.uniform(0, math.pi, (5, 2)):
            value = expectation(qaoa1_state(h, AnsatzParams(gamma, beta)), h)
            assert value == pytest.approx(
                maxcut_depth1_closed_form(graph, gamma, beta), rel=0, abs=1e-12
            )


def walsh_coefficients(h: DiagonalHamiltonian) -> np.ndarray:
    """c_S with h = sum_S c_S prod_{u in S} z_u, from the dense Hadamard matrix."""
    hadamard = np.array([[1.0]])
    for _ in range(h.n):
        hadamard = np.kron(hadamard, [[1.0, 1.0], [1.0, -1.0]])
    return hadamard @ h.values / 2**h.n


def triangle_graph(n: int, rng: np.random.Generator) -> Graph:
    """A path with random chords and, from n = 3, the triangle 0-1-2, so edges share neighbours."""
    chords = {
        (u, v) for u in range(n) for v in range(u + 2, n)
        if (u, v) == (0, 2) or rng.random() < 0.4
    }
    return Graph(n, tuple(sorted({(u, u + 1) for u in range(n - 1)} | chords)))


def test_ising_grid_matches_the_dense_expectation():
    rng = np.random.default_rng(11)
    for n in range(1, 11):
        graph = triangle_graph(n, rng)
        maxcut = build_maxcut(graph)
        h, p = build_mis(graph)
        costs = [maxcut, penalize(h, p, 1.7), h, random_ising(n, rng)]  # h: popcount
        angles = rng.uniform(0, math.pi, 5).tolist()
        for cost in costs:
            grid, tol = ising_grid(cost, angles)
            weight = np.abs(walsh_coefficients(cost)).sum()
            scale = 1 + weight
            # no term of three bits: only the rounding allowance
            assert tol == pytest.approx(1e-9 * scale + 1e-14 * weight**2, rel=1e-3)
            dense = [[expectation(qaoa1_state(cost, AnsatzParams(g, b)), cost) for b in angles]
                     for g in angles]
            np.testing.assert_allclose(grid, dense, rtol=0, atol=1e-12 * scale)
        reference = [[maxcut_depth1_closed_form(graph, g, b) for b in angles] for g in angles]
        np.testing.assert_allclose(ising_grid(maxcut, angles)[0], reference, rtol=0, atol=1e-12)
    # A 3-body term lies outside the closed form: the screen widens by 2R.
    graph = triangle_graph(6, rng)
    z = spins(6)
    cubic = DiagonalHamiltonian(6, build_maxcut(graph).values + 0.5 * z[:, 0] * z[:, 1] * z[:, 2])
    low = np.abs(walsh_coefficients(build_maxcut(graph))).sum()
    expected = 2 * 0.5 + 1e-9 * (1 + low) + 1e-14 * (low + 0.5) ** 2
    assert ising_grid(cubic, [0.3])[1] == pytest.approx(expected, rel=1e-12)


def test_screen_tolerance_covers_phase_rounding():
    # With penalty weight 1e8 the phases gamma h(x) reach 3e9, and their
    # rounding puts the closed form 9.6 from the dense value: a tolerance
    # of 1e-9 of the coefficient sum (0.9) alone would not hold that gap.
    edges = tuple((u, v) for u in range(8) for v in range(u + 1, 8) if (u + v) % 3 == 0)
    h, p = build_mis(Graph(8, edges))
    cost = penalize(h, p, 1e8)
    angles = [math.pi * i / 16 for i in range(16)]
    grid, tol = ising_grid(cost, angles)
    dense = np.array(
        [[expectation(qaoa1_state(cost, AnsatzParams(g, b)), cost) for b in angles] for g in angles]
    )
    assert 1 < np.abs(grid - dense).max() <= tol / 2
    gi, bi = np.unravel_index(int(np.argmax(dense)), dense.shape)
    assert optimize_qaoa1(cost, 16) == AnsatzParams(angles[gi], angles[bi])


def regular_graph(n: int, seed: int) -> Graph:
    """A random 3-regular graph: pairing model, redrawn until simple."""
    rng = np.random.default_rng(seed)
    while True:
        stubs = rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2)
        edges = {(int(min(u, v)), int(max(u, v))) for u, v in stubs if u != v}
        if len(edges) == len(stubs):
            return Graph(n, tuple(sorted(edges)))


def test_optimize_qaoa1_memory_stays_linear_in_the_dimension():
    # A 2**n x 2**n operator at n = 11 alone takes 64 MiB; the search holds a
    # few 2**n states, for its transform and each candidate it scores.
    h = build_maxcut(Graph(11, tuple((u, (u + 1) % 11) for u in range(11))))
    tracemalloc.start()
    try:
        optimize_qaoa1(h, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_optimize_qaoa1_builds_no_batch_of_states():
    # A (64, 2**16) batch of phased states alone would take 64 MiB.
    h = build_maxcut(regular_graph(16, 0))
    tracemalloc.start()
    try:
        params = optimize_qaoa1(h, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    grid, tol = ising_grid(h, [math.pi * i / 64 for i in range(64)])
    assert expectation(qaoa1_state(h, params), h) >= grid.max() - tol


def test_grid_size_cap():
    check_grid_size(10, 256)
    check_grid_size(12, 4096)  # 4096 * 4096 is GRID_CAP itself
    for n, resolution in ((12, 4097), (5, 200000), (25, 2)):
        with pytest.raises(CapacityError, match="past the grid cap of 16777216"):
            check_grid_size(n, resolution)
    with pytest.raises(CapacityError):
        optimize_qaoa1(DiagonalHamiltonian(3, np.zeros(8)), 4097)


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
