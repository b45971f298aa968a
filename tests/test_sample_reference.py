"""The final sample against the dense one-array rule it replaced.

The reference weighs all 2**n basis states, |amps|^2 * (q / w)[level], with
a feasible-subspace base's amplitudes put back on their strings and 0
everywhere else, and draws from one cumulative sum over all of them.  The
control loop reads only the independent sets in feasible-subspace mode, and
scans its weights block by block up to the draw, so it must pick the same
basis index for every draw: on the bases of real trajectories, on draws
placed at the edges of the cumulative sum and at every block boundary.
"""

import math
import tracemalloc

import numpy as np
import pytest

from mdqo import (
    MIS_CONTROLLED,
    TRANSVERSE_FIELD,
    Budget,
    CriteriaConfig,
    Graph,
    MixerSpec,
    OuterConfig,
    OutcomeCounts,
    ProblemInstance,
    StateVector,
    driving_hamiltonian,
    feasible_mask,
    outer_loop,
    uniform_superposition,
)
from mdqo import control
from mdqo.statevector import running_sum, sample_index

from conftest import tight

SEEDS = 1000


def dense_weights(tables, base, q) -> np.ndarray:
    """|amps|^2 * (q / w)[level] over every basis state.

    A feasible-subspace base is put back on its strings, with amplitude 0
    on every other string.  Those strings weigh +0 on any level; the level
    table holds only the vertex counts the independent sets reach, so they
    are put on level 0.
    """
    amps, level = base.state.amps, tables.level
    if tables.basis is not None:
        amps = np.zeros(2**tables.n, dtype=np.complex128)
        amps[tables.basis] = base.state.amps
        level = np.zeros(2**tables.n, dtype=tables.level.dtype)
        level[tables.basis] = tables.level
    weights = np.abs(amps)
    weights *= weights
    ratio = np.divide(q, base.w, out=np.zeros_like(q), where=base.w > 0)
    weights *= ratio.take(level)
    return weights


def reference_index(weights: np.ndarray, u: float) -> int:
    """The one-array rule: the first index whose cumulative sum, taken in
    place and pinned to 1 from the first entry that reaches the total,
    exceeds u."""
    cdf = np.cumsum(weights, out=weights)
    cdf[np.searchsorted(cdf, cdf[-1]):] = 1.0
    return int(np.searchsorted(cdf, u, side="right"))


def reference_sample(tables, base, q, rng) -> int:
    """The dense body: weigh every basis state, then draw."""
    return reference_index(dense_weights(tables, base, q), rng.random())


def scanned(tables, base, q, rng) -> int:
    """The position sample_index draws from the running_sum of control's
    _weights, block by block up to the draw."""
    return sample_index(running_sum(control._weights(tables, base, q)), rng)


def drawn(tables, base, q, rng) -> int:
    """The basis index of the entry the scan draws."""
    i = scanned(tables, base, q, rng)
    return i if tables.basis is None else int(tables.basis[i])


class Draw:
    """A stand-in generator whose one uniform draw is chosen by the test."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def random_graph(n: int, seed: int) -> Graph:
    rng = np.random.default_rng([n, seed])
    return Graph(
        n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4)
    )


def feasible_mis(n):
    graph = random_graph(n, 5)
    inst = ProblemInstance(graph, "mis")
    mask = feasible_mask(inst)
    h = driving_hamiltonian(inst)
    initial = StateVector(n, mask / np.sqrt(mask.sum()))
    # every failure scrambles, so trajectories end on scrambled bases too
    crit = CriteriaConfig(
        threshold_T=float(h.values[mask].max()) - 0.5, ceiling_KT=30, min_steps_ell=0
    )
    return inst, tight(h, mask), initial, crit, MixerSpec(MIS_CONTROLLED, 0.6, graph)


def penalised_mis(n):
    inst = ProblemInstance(random_graph(n, 6), "mis", penalty_weight=1.5)
    h = driving_hamiltonian(inst)
    crit = CriteriaConfig(
        threshold_T=float(h.values.max()) - 0.5, ceiling_KT=30, min_steps_ell=2
    )
    return inst, tight(h), uniform_superposition(n), crit, MixerSpec(TRANSVERSE_FIELD, 0.4)


def maxcut(n):
    inst = ProblemInstance(random_graph(n, 7), "maxcut")
    crit = CriteriaConfig(surplus_L=6, reset_R=3)
    return inst, tight(driving_hamiltonian(inst)), uniform_superposition(n), crit, None


def sampled_nodes(monkeypatch, case, n):
    """(tables, base, counts) of every final sample of a seeded outer loop."""
    inst, resc, initial, crit, mixer = case(n)
    seen = []
    final_sample = control._final_sample

    def record(tables, base, counts, memo, rng):
        seen.append((tables, base, counts))
        return final_sample(tables, base, counts, memo, rng)

    with monkeypatch.context() as patch:
        patch.setattr(control, "_final_sample", record)
        outer_loop(
            inst,
            OuterConfig(resc, initial, crit, mixer),
            Budget(max_trajectories=40),
            seed=n,
        )
    return initial, seen


def sampled_bases(monkeypatch, case, n):
    """(tables, base, q) of every final sample of a seeded outer loop: q is
    the level posterior the sample draws from."""
    initial, seen = sampled_nodes(monkeypatch, case, n)
    return initial, [
        (tables, base, control._posterior(tables, base, counts)) for tables, base, counts in seen
    ]


def assert_same_draws(cases):
    for seed in range(SEEDS):
        tables, base, q = cases[seed % len(cases)]
        expected = reference_sample(tables, base, q, np.random.default_rng(seed))
        assert drawn(tables, base, q, np.random.default_rng(seed)) == expected


@pytest.mark.parametrize("n", [6, 9, 12])
def test_feasible_bases_sample_like_the_dense_rule(monkeypatch, n):
    initial, seen = sampled_bases(monkeypatch, feasible_mis, n)
    tables = seen[0][0]
    start = initial.amps[tables.basis].tobytes()
    starts = [case for case in seen if case[1].state.amps.tobytes() == start]
    scrambled = [case for case in seen if case[1].state.amps.tobytes() != start]
    assert starts and scrambled
    for tables, base, _ in seen:
        assert base.state.basis is tables.basis
        assert tables.basis.size < 2**n
    assert_same_draws(starts)
    assert_same_draws(scrambled)


@pytest.mark.parametrize(
    "case, n", [(penalised_mis, 8), (maxcut, 10), (maxcut, 15), (penalised_mis, 16)]
)
def test_full_support_keeps_the_dense_path(monkeypatch, case, n):
    _, seen = sampled_bases(monkeypatch, case, n)
    assert seen and all(tables.basis is None for tables, _, _ in seen)
    assert_same_draws(seen)


def weighed(n: int, probs: dict[int, float]):
    """A feasible-subspace base with |amps|^2 = probs, and its own level weights.

    The graph joins every two vertices that no listed index holds both of,
    so each listed index is an independent set, among others that weigh 0.
    With the base's level weights as the posterior, q / w is 1 on every level
    the base reaches, so the sample weights are exactly |amps|^2.
    """
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n)
        if not any((x >> u) & (x >> v) & 1 for x in probs)
    )
    graph = Graph(n, edges)
    tables = control.prepare_tables(ProblemInstance(graph, "mis"), tight(graph.subspace))
    amps = np.zeros(2**n, dtype=np.complex128)
    for x, p in probs.items():
        amps[x] = math.sqrt(p)
    base = control.weigh(tables, StateVector(n, amps), False)
    return tables, base, base.w.copy()


def dense_cdf(tables, base, q) -> np.ndarray:
    return np.cumsum(dense_weights(tables, base, q))


def edge_draws(cdf: np.ndarray) -> list[float]:
    """0, the largest u below 1, and every prefix sum below 1 with its neighbours."""
    draws = {0.0, math.nextafter(1.0, 0.0)}
    for s in cdf:
        for u in (math.nextafter(s, 0.0), s, math.nextafter(s, 1.0)):
            if 0.0 <= u < 1.0:
                draws.add(float(u))
    return sorted(draws)


def final_drawn(tables, base, rng) -> int:
    """The basis index the trajectory's final sample draws at the base's own
    level weights, the posterior at (0, 0), on a copy of the base with no memo."""
    bare = control._Base(base.state, base.w, base.penalty)
    i = control._final_sample(tables, bare, OutcomeCounts(0, 0), control._Memo(), rng)
    return i if tables.basis is None else int(tables.basis[i])


def check_edges(tables, base, q) -> list[int]:
    picks = []
    for u in edge_draws(dense_cdf(tables, base, q)):
        expected = reference_sample(tables, base, q, Draw(u))
        assert drawn(tables, base, q, Draw(u)) == expected, u
        if q.tobytes() == base.w.tobytes():
            assert final_drawn(tables, base, Draw(u)) == expected, u
        picks.append(expected)
    return picks


def test_draw_equal_to_a_prefix_sum():
    tables, base, q = weighed(3, {1: 0.25, 3: 0.25, 4: 0.25, 6: 0.25})
    for u, expected in [(0.0, 1), (0.25, 3), (0.5, 4), (0.75, 6)]:
        assert drawn(tables, base, q, Draw(u)) == expected
    check_edges(tables, base, q)


def test_draw_above_a_total_below_one_returns_the_last_index():
    scale = 1.0 - 2.0**-36  # inside the state norm tolerance
    tables, base, q = weighed(4, {2: 0.5 * scale, 9: 0.5 * scale})
    total = dense_cdf(tables, base, q)[-1]
    assert total < 1.0
    for u in (total, (total + 1.0) / 2, math.nextafter(1.0, 0.0)):
        assert reference_sample(tables, base, q, Draw(u)) == 9
        assert drawn(tables, base, q, Draw(u)) == 9
    check_edges(tables, base, q)


def test_feasible_draw_above_a_total_below_one_stays_on_the_support():
    inst, resc, _, _, _ = feasible_mis(6)
    tables = control.prepare_tables(inst, resc)
    scale = 1.0 - 2.0**-36  # inside the state norm tolerance
    size = tables.basis.size
    amps = np.full(size, math.sqrt(scale / size), dtype=np.complex128)
    base = control.weigh(tables, StateVector(6, amps, tables.basis), False)
    q = base.w.copy()
    assert dense_cdf(tables, base, q)[-1] < 1.0
    last = int(tables.basis[-1])
    assert last < 2**6 - 1
    expected = reference_sample(tables, base, q, Draw(math.nextafter(1.0, 0.0)))
    assert drawn(tables, base, q, Draw(math.nextafter(1.0, 0.0))) == expected == last
    assert set(check_edges(tables, base, q)) <= set(tables.basis.tolist())


def test_total_above_one():
    scale = 1.0 + 2.0**-36
    tables, base, q = weighed(4, {0: 0.5 * scale, 5: 0.5 * scale})
    assert dense_cdf(tables, base, q)[-2] > 1.0
    assert drawn(tables, base, q, Draw(math.nextafter(1.0, 0.0))) == 5
    check_edges(tables, base, q)


@pytest.mark.parametrize("x", [0, 5, 15])
def test_single_nonzero_entry(x):
    tables, base, q = weighed(4, {x: 1.0})
    assert set(check_edges(tables, base, q)) == {x}


def test_nonzero_last_entry():
    tables, base, q = weighed(3, {2: 0.5, 7: 0.5})
    assert set(check_edges(tables, base, q)) == {2, 7}


def test_zero_runs_at_both_ends():
    tables, base, q = weighed(5, {3: 0.125, 4: 0.375, 6: 0.5})
    assert set(check_edges(tables, base, q)) == {3, 4, 6}


def test_zero_posterior_on_a_kept_entry():
    tables, base, q = weighed(3, {0: 0.25, 1: 0.5, 3: 0.25})
    q[2] = 0.0  # level 2 holds the two-vertex set 3 alone
    q /= q.sum()
    assert set(check_edges(tables, base, q)) == {0, 1}


def boundary_draws(cdf: np.ndarray, block: int) -> list[float]:
    """The prefix sum at each block boundary with its neighbours, and, when the
    total S falls below 1, draws in [S, 1)."""
    draws = set()
    for s in cdf[block - 1 :: block]:
        for u in (math.nextafter(s, 0.0), s, math.nextafter(s, 1.0)):
            if 0.0 <= u < 1.0:
                draws.add(float(u))
    total = float(cdf[-1])
    if total < 1.0:
        draws.update((total, (total + 1.0) / 2, math.nextafter(1.0, 0.0)))
    return sorted(draws)


def check_boundaries(tables, base, q, block) -> list[int]:
    picks = []
    for u in boundary_draws(dense_cdf(tables, base, q), block):
        expected = reference_sample(tables, base, q, Draw(u))
        assert drawn(tables, base, q, Draw(u)) == expected, u
        picks.append(expected)
    return picks


BLOCKS = [8, 64]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("case, n", [(maxcut, 10), (penalised_mis, 8), (feasible_mis, 12)])
def test_small_blocks_sample_like_one_cumulative_sum(monkeypatch, block, case, n):
    monkeypatch.setattr(control, "_BLOCK", block)
    _, seen = sampled_bases(monkeypatch, case, n)
    assert seen and all(base.state.amps.size > block for _, base, _ in seen)
    assert_same_draws(seen)
    for tables, base, q in seen[:4]:
        check_boundaries(tables, base, q, block)


def dense_weighed(n: int, probs: dict[int, float]):
    """A dense base with |amps|^2 = probs, so the sample weights are exactly
    |amps|^2, as in weighed, on the MaxCut cost of the single edge (0, 1)."""
    graph = Graph(n, ((0, 1),))
    tables = control.prepare_tables(ProblemInstance(graph, "maxcut"), tight(graph.maxcut))
    amps = np.zeros(2**n, dtype=np.complex128)
    for x, p in probs.items():
        amps[x] = math.sqrt(p)
    base = control.weigh(tables, StateVector(n, amps), False)
    return tables, base, base.w.copy()


@pytest.mark.parametrize("block", BLOCKS)
def test_whole_weight_in_the_last_block(monkeypatch, block):
    monkeypatch.setattr(control, "_BLOCK", block)
    n = 9
    last = range(2**n - block, 2**n, 3)
    tables, base, q = dense_weighed(n, {x: 1.0 / len(last) for x in last})
    picks = check_boundaries(tables, base, q, block)
    assert set(picks) <= set(last)
    assert set(check_edges(tables, base, q)) == set(last)


@pytest.mark.parametrize("block", BLOCKS)
def test_draw_above_a_total_below_one_before_zero_blocks(monkeypatch, block):
    # the total is reached in the first block, and every later block weighs 0
    monkeypatch.setattr(control, "_BLOCK", block)
    scale = 1.0 - 2.0**-36  # inside the state norm tolerance
    tables, base, q = dense_weighed(8, {1: 0.5 * scale, 5: 0.5 * scale})
    assert dense_cdf(tables, base, q)[-1] < 1.0
    assert drawn(tables, base, q, Draw(math.nextafter(1.0, 0.0))) == 5
    assert set(check_boundaries(tables, base, q, block)) == {5}
    assert set(check_edges(tables, base, q)) == {1, 5}


@pytest.mark.parametrize("block", BLOCKS)
def test_absorbed_block_does_not_move_the_pin(monkeypatch, block):
    # block 2 only adds weights that round away: carry + w == carry
    monkeypatch.setattr(control, "_BLOCK", block)
    scale = 1.0 - 2.0**-36  # inside the state norm tolerance
    tiny = range(2 * block, 3 * block)
    probs = {3: 0.5 * scale, block + 1: 0.5 * scale} | {x: 2.0**-70 for x in tiny}
    tables, base, q = dense_weighed(8, probs)
    cdf = dense_cdf(tables, base, q)
    assert cdf[3 * block - 1] == cdf[2 * block - 1] < 1.0
    assert drawn(tables, base, q, Draw(math.nextafter(1.0, 0.0))) == block + 1
    assert set(check_boundaries(tables, base, q, block)) == {3, block + 1}
    check_edges(tables, base, q)


@pytest.mark.parametrize("case, n", [(feasible_mis, 12), (penalised_mis, 8), (maxcut, 10)])
def test_memoised_cdf_draws_like_the_scan(monkeypatch, case, n):
    # at every one-block node of a seeded run the stored CDF, and a CDF
    # made afresh on a base with no memo, draw what sample_index draws at
    # every edge draw of the cumulative sum
    _, seen = sampled_nodes(monkeypatch, case, n)
    nodes = {(id(base), counts): (tables, base, counts) for tables, base, counts in seen}
    assert nodes and all(base.state.amps.size <= control._BLOCK for _, base, _ in nodes.values())
    for tables, base, counts in nodes.values():
        assert (counts.k0, counts.k1) in base.cdfs
        bare = control._Base(base.state, base.w, base.penalty)
        q = control._posterior(tables, base, counts)
        for u in edge_draws(dense_cdf(tables, base, q)):
            expected = scanned(tables, base, q, Draw(u))
            assert control._final_sample(tables, base, counts, control._Memo(), Draw(u)) == expected
            assert control._final_sample(tables, bare, counts, control._Memo(), Draw(u)) == expected
            bare.cdfs.clear()


def test_sample_allocates_no_dense_temporary():
    # a few blocks (the weights, the gathered ratios and take's intp copy of
    # the levels) against the two 2**n temporaries of a one-array sample;
    # numpy reports its buffers to tracemalloc
    n = 18
    inst, resc, initial, _, _ = maxcut(n)
    tables = control.prepare_tables(inst, resc)
    base = control.weigh(tables, initial)
    tracemalloc.start()
    try:
        control._final_sample(
            tables, base, OutcomeCounts(0, 0), control._Memo(), Draw(math.nextafter(1.0, 0.0))
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**n * 8 / 4


def test_materialise_allocates_its_state_and_a_few_blocks():
    # the 16-byte amplitudes of the result, against 24 bytes per entry when
    # the scale was gathered whole (and take copied the levels to intp)
    n = 18
    inst, resc, initial, _, _ = maxcut(n)
    tables = control.prepare_tables(inst, resc)
    base = control.weigh(tables, initial)
    q = control.level_posterior(tables, base.w, OutcomeCounts(3, 5))
    tracemalloc.start()
    try:
        state = control._materialise(tables, base, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**n
    ratio = np.sqrt(q / base.w).take(tables.level)
    assert state.amps.tobytes() == (initial.amps * ratio).tobytes()


def test_one_block_draw_above_a_total_below_one_takes_the_pin():
    # the entries after the last positive one weigh 0: a draw that reaches
    # the total returns the first entry to reach it, not the block's last
    scale = 1.0 - 2.0**-36  # inside the state norm tolerance
    tables, base, q = dense_weighed(8, {1: 0.5 * scale, 5: 0.5 * scale})
    total = dense_cdf(tables, base, q)[-1]
    assert total < 1.0 and base.state.amps.size <= control._BLOCK
    for u in (total, math.nextafter(1.0, 0.0)):
        assert final_drawn(tables, base, Draw(u)) == 5
    assert set(check_edges(tables, base, q)) == {1, 5}
