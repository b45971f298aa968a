"""Tests for the control loops, return criteria, and the outer restart loop."""

import math

import numpy as np
import pytest

from mdqo import (
    MIS_CONTROLLED,
    TRANSVERSE_FIELD,
    Budget,
    CriteriaConfig,
    Graph,
    MixerSpec,
    OutcomeCounts,
    OuterConfig,
    ProblemInstance,
    StateVector,
    basis_state,
    driving_hamiltonian,
    evaluate_return,
    feasible,
    feasible_mask,
    outer_loop,
    rescaled_threshold,
    rescaling_from_bounds,
    run_algorithm1,
    run_algorithm2,
    success_probability,
    trajectory_rng,
    uniform_superposition,
)
from mdqo import control
from mdqo.control import prepare_tables

from conftest import feasible_bounds, rescaled_table


def test_criteria_validation():
    with pytest.raises(ValueError):
        CriteriaConfig()
    with pytest.raises(ValueError):
        CriteriaConfig(surplus_L=0)
    with pytest.raises(ValueError):
        CriteriaConfig(reset_R=0)
    with pytest.raises(ValueError):
        CriteriaConfig(surplus_L=5, min_steps_ell=-1)
    CriteriaConfig(ceiling_KT=0)


def test_evaluate_return_examples(tight_rescaling):
    crit = CriteriaConfig(surplus_L=3)
    assert evaluate_return(crit, OutcomeCounts(0, 3), tight_rescaling) == "surplus"
    assert evaluate_return(crit, OutcomeCounts(0, 2), tight_rescaling) is None

    crit = CriteriaConfig(ceiling_KT=4)
    assert evaluate_return(crit, OutcomeCounts(2, 2), tight_rescaling) == "ceiling"

    # threshold fires first when several criteria hold at once
    crit = CriteriaConfig(threshold_T=0.96, surplus_L=10, ceiling_KT=30)
    assert evaluate_return(crit, OutcomeCounts(10, 20), tight_rescaling) == "threshold"


def test_evaluate_return_threshold(tight_rescaling):
    # (10, 20) peaks at asin(1/3)/2 ~ 0.1699; place E(T) just below
    t_cost = 0.15 / tight_rescaling.epsilon
    crit = CriteriaConfig(threshold_T=t_cost)
    assert rescaled_threshold(t_cost, tight_rescaling) == pytest.approx(0.15)
    assert evaluate_return(crit, OutcomeCounts(10, 20), tight_rescaling) == "threshold"
    assert evaluate_return(crit, OutcomeCounts(20, 10), tight_rescaling) is None
    assert evaluate_return(crit, OutcomeCounts(0, 0), tight_rescaling) is None


def test_reset_gated_by_burn_in(tight_rescaling):
    crit = CriteriaConfig(surplus_L=50, reset_R=2, min_steps_ell=6)
    assert evaluate_return(crit, OutcomeCounts(3, 1), tight_rescaling) is None
    assert evaluate_return(crit, OutcomeCounts(4, 2), tight_rescaling) == "reset"


def test_ceiling_zero_samples_initial_state(g5, tight_rescaling):
    inst = ProblemInstance(g5, "maxcut")
    traj = run_algorithm1(
        inst,
        tight_rescaling,
        basis_state(5, 19),
        CriteriaConfig(ceiling_KT=0),
        np.random.default_rng(0),
    )
    assert traj.steps == 0
    assert traj.terminal_reason == "ceiling"
    assert traj.final_sample == 19


def test_eigenstate_all_successes(g5, tight_rescaling):
    # a maximum-cut basis state sits at c = pi/4 where success is certain
    inst = ProblemInstance(g5, "maxcut")
    traj = run_algorithm1(
        inst,
        tight_rescaling,
        basis_state(5, 0b00110),
        CriteriaConfig(surplus_L=5),
        np.random.default_rng(3),
    )
    assert traj.outcomes == (1, 1, 1, 1, 1)
    assert traj.terminal_reason == "surplus"
    assert traj.final_sample == 0b00110
    assert traj.final_cost == 5.0


def test_trajectory_reproducible(g5, tight_rescaling):
    inst = ProblemInstance(g5, "maxcut")
    crit = CriteriaConfig(surplus_L=20, reset_R=5)
    a = run_algorithm1(inst, tight_rescaling, uniform_superposition(5), crit,
                       trajectory_rng(99, 0))
    b = run_algorithm1(inst, tight_rescaling, uniform_superposition(5), crit,
                       trajectory_rng(99, 0))
    assert a == b


def test_threshold_out_of_range_rejected(g5, tight_rescaling):
    inst = ProblemInstance(g5, "maxcut")
    with pytest.raises(ValueError):
        run_algorithm1(
            inst,
            tight_rescaling,
            uniform_superposition(5),
            CriteriaConfig(threshold_T=6.0),
            np.random.default_rng(0),
        )


def test_reset_bound_respected(g5, tight_rescaling):
    inst = ProblemInstance(g5, "maxcut")
    crit = CriteriaConfig(surplus_L=30, reset_R=3)
    for i in range(50):
        traj = run_algorithm1(
            inst, tight_rescaling, uniform_superposition(5), crit, trajectory_rng(7, i)
        )
        k0 = k1 = 0
        for step, b in enumerate(traj.outcomes, start=1):
            k0 += b == 0
            k1 += b == 1
            if step < traj.steps:
                assert k0 - k1 < 3
                assert k1 - k0 < 30
        assert traj.counts == OutcomeCounts(k0, k1)
        if traj.terminal_reason == "reset":
            assert k0 - k1 >= 3
        else:
            assert traj.terminal_reason == "surplus"
            assert k1 - k0 >= 30


def test_algorithm2_matches_algorithm1_without_scrambles(g5, tight_rescaling):
    # burn-in above the ceiling means the scramble condition can never fire,
    # so both loops consume the generator identically
    inst = ProblemInstance(g5, "maxcut")
    crit = CriteriaConfig(threshold_T=4.9, ceiling_KT=10, min_steps_ell=20)
    mixer = MixerSpec(TRANSVERSE_FIELD, 0.4)
    a = run_algorithm2(inst, tight_rescaling, uniform_superposition(5), crit, mixer,
                       trajectory_rng(11, 0))
    b = run_algorithm1(inst, tight_rescaling, uniform_superposition(5), crit,
                       trajectory_rng(11, 0))
    assert a == b
    assert a.scramble_events == ()


def test_algorithm2_burn_in_blocks_scrambling(g5, tight_rescaling):
    inst = ProblemInstance(g5, "maxcut")
    crit = CriteriaConfig(threshold_T=4.9, ceiling_KT=10, min_steps_ell=20)
    mixer = MixerSpec(TRANSVERSE_FIELD, 0.4)
    for i in range(20):
        traj = run_algorithm2(
            inst, tight_rescaling, uniform_superposition(5), crit, mixer,
            trajectory_rng(12, i),
        )
        assert traj.scramble_events == ()
        assert traj.steps <= 10


def test_algorithm2_counts_reset_on_scramble(g5, tight_rescaling):
    inst = ProblemInstance(g5, "maxcut")
    crit = CriteriaConfig(threshold_T=4.5, ceiling_KT=25, min_steps_ell=3)
    mixer = MixerSpec(TRANSVERSE_FIELD, 0.35)
    saw_scramble = False
    for i in range(100):
        traj = run_algorithm2(
            inst, tight_rescaling, uniform_superposition(5), crit, mixer,
            trajectory_rng(13, i),
        )
        last_reset = traj.scramble_events[-1] if traj.scramble_events else 0
        tail = traj.outcomes[last_reset:]
        assert traj.counts == OutcomeCounts(tail.count(0), tail.count(1))
        saw_scramble = saw_scramble or bool(traj.scramble_events)
    assert saw_scramble


def test_algorithm2_requires_threshold(g5, tight_rescaling):
    inst = ProblemInstance(g5, "maxcut")
    mixer = MixerSpec(TRANSVERSE_FIELD, 0.4)
    with pytest.raises(ValueError):
        run_algorithm2(
            inst, tight_rescaling, uniform_superposition(5),
            CriteriaConfig(surplus_L=5), mixer, np.random.default_rng(0),
        )


def test_feasible_mode_rejects_infeasible_start(mis_instance, feasible_rescaling):
    with pytest.raises(ValueError):
        run_algorithm1(
            mis_instance, feasible_rescaling, uniform_superposition(5),
            CriteriaConfig(surplus_L=3), np.random.default_rng(0),
        )


LEAK_MESSAGE = "state puts amplitude on infeasible strings in feasible-subspace mode"
MIXER_MESSAGE = (
    "a transverse-field mixer puts amplitude on infeasible strings, "
    "so it cannot scramble feasible-subspace MIS"
)


def leaking_run(mis_instance, resc, **kwargs):
    # A transverse-field scramble in feasible-subspace mode would move
    # amplitude onto infeasible strings, where the rescaled cost reaches
    # 5 * pi/12 > pi/4.  trajectory_rng(0, 0) fails its first step, which
    # would scramble; the mixer is rejected on entry instead.
    mask = feasible_mask(mis_instance)
    initial = StateVector(5, mask / np.sqrt(mask.sum()))
    return run_algorithm2(
        mis_instance, resc, initial, CriteriaConfig(threshold_T=2.5),
        MixerSpec(TRANSVERSE_FIELD, 0.4), trajectory_rng(0, 0), **kwargs,
    )


def test_scramble_support_leak_rejected(mis_instance, feasible_rescaling):
    with pytest.raises(ValueError) as info:
        leaking_run(mis_instance, feasible_rescaling)
    assert str(info.value) == MIXER_MESSAGE


def test_mixer_check_precedes_step_cap(monkeypatch, mis_instance, feasible_rescaling):
    # the mixer is checked on entry, before any step: a one-step budget,
    # which the first scramble would fill, makes no difference, and no
    # mixer is ever applied
    monkeypatch.setattr("mdqo.control.apply_mixer", None)
    for diagnostics in (False, True):
        with pytest.raises(ValueError) as info:
            leaking_run(
                mis_instance, feasible_rescaling, max_steps=1, record_diagnostics=diagnostics
            )
        assert str(info.value) == MIXER_MESSAGE


def test_in_loop_leak_caught_at_its_scramble(monkeypatch, g5, mis_instance, feasible_rescaling):
    # a mixer that lands off the independent sets is caught where its state
    # is weighed, at the scramble that made it: a scramble that fills the
    # one-step budget reports the leak, not the step cap, diagnostics or not
    mask = feasible_mask(mis_instance)
    monkeypatch.setattr("mdqo.control.apply_mixer", lambda state, mixer: basis_state(5, 0b00110))
    initial = StateVector(5, mask / np.sqrt(mask.sum()))
    run = (mis_instance, feasible_rescaling, initial, CriteriaConfig(threshold_T=2.5),
           MixerSpec(MIS_CONTROLLED, 0.4, g5))
    for diagnostics in (False, True):
        with pytest.raises(ValueError) as info:
            run_algorithm2(
                *run, trajectory_rng(0, 0), max_steps=1, record_diagnostics=diagnostics
            )
        assert str(info.value) == LEAK_MESSAGE


def test_each_base_is_weighed_once(monkeypatch, g5, mis_instance, feasible_rescaling):
    # the initial state and each scramble's mixed state are weighed once each
    weighed = []
    weigh = control.weigh

    def counted(*args):
        weighed.append(args[1])
        return weigh(*args)

    monkeypatch.setattr("mdqo.control.weigh", counted)
    initial = uniform_superposition(5, g5.subspace.basis)
    traj = run_algorithm2(
        mis_instance, feasible_rescaling, initial,
        CriteriaConfig(threshold_T=2.9, ceiling_KT=30, min_steps_ell=1),
        MixerSpec(MIS_CONTROLLED, 0.5, g5), trajectory_rng(0, 8),
    )
    assert len(traj.scramble_events) > 1
    assert len(weighed) == 1 + len(traj.scramble_events)


def test_in_range_scramble_leak_rejected(
    monkeypatch, g5, mis_instance, mis_pair, feasible_rescaling
):
    # {2, 3} is an edge of g5, so 0b00110 is not an independent set, yet its
    # rescaled cost pi/6 lies in [0, pi/4] under tight feasible bounds: only
    # the support check catches a mixer that lands there
    leak = 0b00110
    mask = feasible_mask(mis_instance)
    h_bare, _ = mis_pair
    resc = feasible_rescaling
    assert not feasible(mis_instance, leak)
    assert math.isclose(resc.epsilon * (resc.alpha + h_bare.values[leak]), math.pi / 6)
    monkeypatch.setattr("mdqo.control.apply_mixer", lambda state, mixer: basis_state(5, leak))
    initial = StateVector(5, mask / np.sqrt(mask.sum()))
    with pytest.raises(ValueError) as info:
        run_algorithm2(
            mis_instance, resc, initial, CriteriaConfig(threshold_T=2.5),
            MixerSpec(MIS_CONTROLLED, 0.4, g5), trajectory_rng(0, 0),
        )
    assert str(info.value) == LEAK_MESSAGE


def test_feasible_mode_samples_independent_sets(g5, mis_instance, feasible_rescaling):
    mask = feasible_mask(mis_instance)
    idx = np.flatnonzero(mask)
    amps = np.zeros(32, dtype=complex)
    amps[idx] = 1 / math.sqrt(len(idx))
    initial = StateVector(5, amps)
    resc = feasible_rescaling
    crit = CriteriaConfig(threshold_T=2.9, ceiling_KT=30, min_steps_ell=5)
    mixer = MixerSpec(MIS_CONTROLLED, 0.5, g5)
    for i in range(100):
        traj = run_algorithm2(
            mis_instance, resc, initial, crit, mixer, trajectory_rng(17, i)
        )
        assert feasible(mis_instance, traj.final_sample)


def test_outer_loop_single_trajectory(g5, tight_rescaling):
    inst = ProblemInstance(g5, "maxcut")
    config = OuterConfig(
        rescaling=tight_rescaling,
        initial_state=uniform_superposition(5),
        criteria=CriteriaConfig(surplus_L=10),
    )
    summary = outer_loop(inst, config, Budget(max_trajectories=1), seed=5)
    assert summary.trajectories_run == 1
    assert summary.total_steps == summary.trajectories[0].steps
    assert summary.best_cost == summary.trajectories[0].final_cost
    assert sum(summary.cost_histogram.values()) == 1


def test_outer_loop_stops_at_target(g5, tight_rescaling):
    inst = ProblemInstance(g5, "maxcut")
    config = OuterConfig(
        rescaling=tight_rescaling,
        initial_state=uniform_superposition(5),
        criteria=CriteriaConfig(surplus_L=40, ceiling_KT=400),
    )
    budget = Budget(max_trajectories=200, target_cost=5.0)
    summary = outer_loop(inst, config, budget, seed=1)
    assert summary.best_cost == 5.0
    assert summary.trajectories_run < 200
    assert summary.trajectories[-1].final_cost == 5.0
    assert all(t.final_cost < 5.0 for t in summary.trajectories[:-1])


def test_outer_loop_reproducible(g5, tight_rescaling):
    inst = ProblemInstance(g5, "maxcut")
    config = OuterConfig(
        rescaling=tight_rescaling,
        initial_state=uniform_superposition(5),
        criteria=CriteriaConfig(surplus_L=15),
    )
    budget = Budget(max_trajectories=8)
    first = outer_loop(inst, config, budget, seed=42)
    assert outer_loop(inst, config, budget, seed=42) == first


def test_outer_loop_total_step_budget(g5, tight_rescaling):
    inst = ProblemInstance(g5, "maxcut")
    config = OuterConfig(
        rescaling=tight_rescaling,
        initial_state=uniform_superposition(5),
        criteria=CriteriaConfig(surplus_L=10),
    )
    summary = outer_loop(inst, config, Budget(max_total_steps=50), seed=9)
    assert summary.total_steps >= 50
    assert summary.total_steps - summary.trajectories[-1].steps < 50


def test_outer_loop_adaptive_surplus_logged(g5, tight_rescaling):
    inst = ProblemInstance(g5, "maxcut")
    config = OuterConfig(
        rescaling=tight_rescaling,
        initial_state=uniform_superposition(5),
        criteria=CriteriaConfig(surplus_L=5),
        surplus_delta=2,
    )
    summary = outer_loop(inst, config, Budget(max_trajectories=4), seed=3)
    assert [entry["surplus_L"] for entry in summary.param_log] == [5, 7, 9, 11]


def test_outer_loop_adaptive_threshold_ratchets(g5, tight_rescaling):
    inst = ProblemInstance(g5, "maxcut")
    config = OuterConfig(
        rescaling=tight_rescaling,
        initial_state=uniform_superposition(5),
        criteria=CriteriaConfig(threshold_T=2.0, ceiling_KT=40),
        adaptive_threshold=True,
    )
    summary = outer_loop(inst, config, Budget(max_trajectories=5), seed=8)
    thresholds = [entry["threshold_T"] for entry in summary.param_log]
    assert len(thresholds) == summary.trajectories_run
    assert thresholds[0] == 2.0
    assert thresholds == sorted(thresholds)
    best_before_last = max(t.final_cost for t in summary.trajectories[:-1])
    assert thresholds[-1] == max(2.0, best_before_last)


def test_outer_loop_with_a_mixer_runs_algorithm2_per_stream(
    g5, mis_instance, feasible_rescaling
):
    mask = feasible_mask(mis_instance)
    initial = StateVector(5, mask / np.sqrt(mask.sum()))
    resc = feasible_rescaling
    crit = CriteriaConfig(threshold_T=2.9, ceiling_KT=30, min_steps_ell=5)
    mixer = MixerSpec(MIS_CONTROLLED, 0.5, g5)
    config = OuterConfig(rescaling=resc, initial_state=initial, criteria=crit, mixer=mixer)
    summary = outer_loop(mis_instance, config, Budget(max_trajectories=20), seed=11)
    assert summary.trajectories_run == 20
    for i, traj in enumerate(summary.trajectories):
        alone = run_algorithm2(mis_instance, resc, initial, crit, mixer, trajectory_rng(11, i))
        assert traj.outcomes == alone.outcomes
        assert traj.scramble_events == alone.scramble_events
        assert traj.final_sample == alone.final_sample
        assert traj.terminal_reason == alone.terminal_reason
    assert any(traj.scramble_events for traj in summary.trajectories)


def test_outer_loop_config_validation(g5, tight_rescaling):
    base = dict(
        rescaling=tight_rescaling,
        initial_state=uniform_superposition(5),
        criteria=CriteriaConfig(surplus_L=5),
    )
    with pytest.raises(ValueError):
        Budget()
    with pytest.raises(ValueError):
        Budget(max_trajectories=0)
    with pytest.raises(ValueError):
        OuterConfig(**{**base, "adaptive_threshold": True})  # threshold_T unset


@pytest.mark.parametrize("cap", [0, -3])
def test_step_cap_below_one_rejected(g5, tight_rescaling, cap):
    # a cap below 1 is a setup error, even where a ceiling of 0 would end
    # every trajectory before its first step
    inst = ProblemInstance(g5, "maxcut")
    message = "max_steps_per_trajectory must be a positive"
    for criteria in (CriteriaConfig(surplus_L=5), CriteriaConfig(ceiling_KT=0)):
        run = (tight_rescaling, uniform_superposition(5), criteria)
        with pytest.raises(ValueError, match=message):
            OuterConfig(*run, max_steps_per_trajectory=cap)
        with pytest.raises(ValueError, match=message):
            run_algorithm1(inst, *run, np.random.default_rng(0), max_steps=cap)


def test_unreachable_criteria_hit_step_cap(g5, tight_rescaling):
    # a zero-cost eigenstate flips a fair coin forever and cannot bank
    # surplus 1000 within 20 steps
    inst = ProblemInstance(g5, "maxcut")
    with pytest.raises(RuntimeError):
        run_algorithm1(
            inst,
            tight_rescaling,
            basis_state(5, 0),
            CriteriaConfig(surplus_L=1_000),
            np.random.default_rng(0),
            max_steps=20,
        )


def test_empirical_surplus_steps_respect_drift_bound(
    g5, tight_rescaling, maxcut_h, c_tight
):
    # start clear of the zero-cut strings so the success probability stays
    # strictly above 1/2 and the mean hitting time is finite
    inst = ProblemInstance(g5, "maxcut")
    amps = np.where(maxcut_h.values >= 1, 1.0, 0.0).astype(complex)
    initial = StateVector(5, amps / np.linalg.norm(amps))
    crit = CriteriaConfig(surplus_L=5)
    steps = []
    p_min = success_probability(initial, c_tight)
    for i in range(1000):
        traj = run_algorithm1(
            inst,
            tight_rescaling,
            initial,
            crit,
            trajectory_rng(23, i),
            record_diagnostics=True,
        )
        steps.append(traj.steps)
        p_min = min(p_min, min(rec.p1 for rec in traj.diagnostics))
    assert p_min >= 0.5 + 0.5 * math.sin(2 * tight_rescaling.epsilon) - 1e-12
    mean = float(np.mean(steps))
    stderr = float(np.std(steps, ddof=1) / math.sqrt(len(steps)))
    assert mean <= 5 / (2 * p_min - 1) + 3 * stderr


@pytest.mark.parametrize("n", [5, 9, 12])
def test_subspace_level_table_is_the_dense_one(n):
    # feasible-subspace mode reads the cached levels of the graph's subspace, the
    # vertex counts some independent set reaches; on those levels the branch
    # and success weights get the bits the dense per-string rescaling gives
    rng = np.random.default_rng([n, 41])
    graph = Graph(
        n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4)
    )
    inst = ProblemInstance(graph, "mis")
    mask = feasible_mask(inst)
    h_dense = driving_hamiltonian(inst)
    resc = rescaling_from_bounds(feasible_bounds(h_dense, mask))
    values, level = h_dense.levels
    c = np.empty_like(values)
    c[level] = rescaled_table(resc, h_dense).values
    tables = prepare_tables(inst, resc)
    cost = graph.subspace
    assert tables.h is cost.levels[0] and tables.level is cost.levels[1]
    reached = tables.h.size
    assert reached < n + 1 and tables.h.tobytes() == values[:reached].tobytes()
    angle = c[:reached] + math.pi / 4
    assert tables.sin_sq.tobytes() == (np.sin(angle) ** 2).tobytes()
    assert tables.cos_sq.tobytes() == (np.cos(angle) ** 2).tobytes()
    assert tables.sin_2c.tobytes() == np.sin(2.0 * c[:reached]).tobytes()
    assert np.array_equal(tables.basis, np.flatnonzero(mask))
    assert np.array_equal(tables.level, level[tables.basis])


def test_feasible_tables_hold_the_one_basis(g5, mis_instance, feasible_rescaling):
    # another graph's subspace in between must not leave the table an older
    # copy of g5's basis than the one its subspace holds
    prepare_tables(mis_instance, feasible_rescaling)
    Graph(4, ((0, 1),)).subspace
    assert prepare_tables(mis_instance, feasible_rescaling).basis is g5.subspace.basis
