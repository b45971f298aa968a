"""The cost-level trajectory engine against a dense reference loop.

The reference below is the control loop written out from the public
single-step API: weak_step on the dense rescaled cost, apply_mixer on every
scramble and sample_bitstring at the end, with the diagnostics taken from
the dense state.  It consumes the generator exactly as run_algorithm2 must:
one draw per step and one for the sample.  Every trajectory the engine
produces must match it draw for draw.
"""

import numpy as np
import pytest

from mdqo import (
    MIS_CONTROLLED,
    TRANSVERSE_FIELD,
    AnsatzParams,
    CriteriaConfig,
    Graph,
    MixerSpec,
    OutcomeCounts,
    ProblemInstance,
    StateVector,
    apply_mixer,
    build_mis,
    driving_hamiltonian,
    evaluate_return,
    expectation,
    feasible_initial_state,
    feasible_mask,
    peak_position,
    qaoa1_state,
    rescaled_threshold,
    run_algorithm2,
    sample_bitstring,
    success_probability,
    trajectory_rng,
    uniform_superposition,
    weak_step,
)
from mdqo.problems import subspace_cost

from conftest import rescaled_table, tight

SEEDS = 200


def dense_reference(instance, rescaling, state, criteria, mixer, rng):
    """(outcomes, scramble events, counts, sample, cost, reason, [(p1, <H>, <P>)])."""
    h_drive = driving_hamiltonian(instance)
    p_viol = build_mis(instance.graph)[1] if instance.kind == "mis" else None
    # unchecked: a feasible rescaling leaves [0, pi/4] off the independent sets
    c = rescaled_table(rescaling, h_drive)
    counts = OutcomeCounts(0, 0)
    outcomes, events, records = [], [], []
    while (reason := evaluate_return(criteria, counts, rescaling)) is None:
        b, state = weak_step(state, c, rng)
        outcomes.append(b)
        counts = OutcomeCounts(counts.k0 + (b == 0), counts.k1 + (b == 1))
        if (
            mixer is not None
            and counts.total >= max(criteria.min_steps_ell, 1)
            and peak_position(counts) < rescaled_threshold(criteria.threshold_T, rescaling)
        ):
            state = apply_mixer(state, mixer)
            events.append(len(outcomes))
            counts = OutcomeCounts(0, 0)
        records.append((
            success_probability(state, c),
            expectation(state, h_drive),
            None if p_viol is None else expectation(state, p_viol),
        ))
    x = sample_bitstring(state, rng)
    return outcomes, events, counts, x, float(h_drive.values[x]), reason, records


def random_graph(n: int, seed: int) -> Graph:
    """A seeded random graph with at least n edges."""
    rng = np.random.default_rng([n, seed])
    while True:
        edges = tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
        if len(edges) >= n:
            return Graph(n, edges)


def maxcut_algorithm1(n):
    inst = ProblemInstance(random_graph(n, 1), "maxcut")
    crit = CriteriaConfig(surplus_L=6, reset_R=3)
    return inst, tight(driving_hamiltonian(inst)), uniform_superposition(n), crit, None


def penalised_mis_algorithm1(n):
    inst = ProblemInstance(random_graph(n, 2), "mis", penalty_weight=1.5)
    crit = CriteriaConfig(surplus_L=5, ceiling_KT=40, reset_R=4, min_steps_ell=2)
    return inst, tight(driving_hamiltonian(inst)), uniform_superposition(n), crit, None


def feasible_mis_algorithm2(n):
    return feasible_mis_run(random_graph(n, 3))


def sparse_feasible_mis_algorithm2(n):
    # the independent sets reach at least 10 vertex counts, so the level table
    # is longer than the few levels a dense graph's sets reach
    rng = np.random.default_rng([n, 6])
    graph = Graph(
        n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.1)
    )
    assert subspace_cost(graph).levels[0].size >= 10
    return feasible_mis_run(graph)


def feasible_mis_run(graph):
    n = graph.n
    inst = ProblemInstance(graph, "mis")
    mask = feasible_mask(inst)
    h = driving_hamiltonian(inst)
    initial = StateVector(n, mask / np.sqrt(mask.sum()))
    crit = CriteriaConfig(
        threshold_T=float(h.values[mask].max()) / 2, ceiling_KT=30, min_steps_ell=4
    )
    return inst, tight(h, mask), initial, crit, MixerSpec(MIS_CONTROLLED, 0.5, graph)


def mixer_prepared_mis_algorithm2(n):
    # a dense mixer-prepared start, restricted to the independent sets on entry
    graph = random_graph(n, 5)
    inst = ProblemInstance(graph, "mis")
    mask = feasible_mask(inst)
    h = driving_hamiltonian(inst)
    crit = CriteriaConfig(
        threshold_T=float(h.values[mask].max()) - 0.5, ceiling_KT=30, min_steps_ell=3
    )
    initial = feasible_initial_state(graph, 0.8)
    return inst, tight(h, mask), initial, crit, MixerSpec(MIS_CONTROLLED, 0.5, graph)


def maxcut_algorithm2(n):
    # a depth-1 ansatz start: complex amplitudes before the first scramble
    inst = ProblemInstance(random_graph(n, 4), "maxcut")
    h = driving_hamiltonian(inst)
    crit = CriteriaConfig(
        threshold_T=float(h.values.max()) / 2, ceiling_KT=30, min_steps_ell=4
    )
    initial = qaoa1_state(h, AnsatzParams(gamma=0.7, beta=0.3))
    return inst, tight(h), initial, crit, MixerSpec(TRANSVERSE_FIELD, 0.4)


CASES = [
    (maxcut_algorithm1, 5),
    (maxcut_algorithm1, 8),
    (penalised_mis_algorithm1, 6),
    (penalised_mis_algorithm1, 7),
    (feasible_mis_algorithm2, 5),
    (feasible_mis_algorithm2, 8),
    (feasible_mis_algorithm2, 12),
    (sparse_feasible_mis_algorithm2, 12),
    (mixer_prepared_mis_algorithm2, 9),
    (maxcut_algorithm2, 6),
    (maxcut_algorithm2, 7),
]


@pytest.mark.parametrize(
    "case, n", CASES, ids=[f"{case.__name__}-n{n}" for case, n in CASES]
)
def test_level_engine_replays_dense_reference(case, n):
    inst, resc, initial, crit, mixer = case(n)
    scrambles = 0
    for i in range(SEEDS):
        outcomes, events, counts, x, cost, reason, records = dense_reference(
            inst, resc, initial, crit, mixer, trajectory_rng(i, 0)
        )
        traj = run_algorithm2(
            inst, resc, initial, crit, mixer, trajectory_rng(i, 0), record_diagnostics=True
        )
        assert traj.outcomes == tuple(outcomes)
        assert traj.scramble_events == tuple(events)
        assert traj.counts == counts
        assert traj.final_sample == x
        assert traj.final_cost == cost
        assert traj.terminal_reason == reason
        assert len(traj.diagnostics) == len(records)
        for rec, (p1, cost_h, cost_p) in zip(traj.diagnostics, records):
            assert rec.p1 == pytest.approx(p1, abs=1e-12, rel=0)
            assert rec.cost_expectation == pytest.approx(cost_h, abs=1e-12, rel=0)
            if cost_p is None:
                assert rec.penalty_expectation is None
            else:
                assert rec.penalty_expectation == pytest.approx(cost_p, abs=1e-12, rel=0)
        plain = run_algorithm2(inst, resc, initial, crit, mixer, trajectory_rng(i, 0))
        assert plain.outcomes == traj.outcomes and plain.final_sample == x
        scrambles += len(events)
    if mixer is not None:
        assert scrambles > 0
