"""Tests for the control loops, return criteria, and the outer restart loop."""

import math
import weakref
from dataclasses import replace

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
    spectrum_bounds,
    success_probability,
    trajectory_rng,
    uniform_superposition,
)
from mdqo import control, statevector
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


def test_feasible_mode_rejects_infeasible_start(
    g5, mis_instance, feasible_rescaling, tight_rescaling
):
    with pytest.raises(ValueError):
        run_algorithm1(
            mis_instance, feasible_rescaling, uniform_superposition(5),
            CriteriaConfig(surplus_L=3), np.random.default_rng(0),
        )
    # a start that does not fit a dense instance is rejected on entry too
    maxcut = ProblemInstance(g5, "maxcut")
    for start, message in (
        (uniform_superposition(6), "dimension mismatch: state n=6, cost n=5"),
        (
            uniform_superposition(5, g5.subspace.basis),
            "state basis does not match the instance: feasible-subspace MIS needs its "
            "independent sets or a dense state, every other instance a dense state",
        ),
    ):
        with pytest.raises(ValueError) as info:
            run_algorithm2(
                maxcut, tight_rescaling, start, CriteriaConfig(threshold_T=2.5),
                MixerSpec(TRANSVERSE_FIELD, 0.4), np.random.default_rng(0),
            )
        assert str(info.value) == message


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
    assert tables.log_sin_sq.tobytes() == np.log(np.sin(angle) ** 2).tobytes()
    assert tables.log_cos_sq.tobytes() == np.log(np.cos(angle) ** 2).tobytes()
    assert tables.sin_2c.tobytes() == np.sin(2.0 * c[:reached]).tobytes()
    assert np.array_equal(tables.basis, np.flatnonzero(mask))
    assert np.array_equal(tables.level, level[tables.basis])


def test_feasible_tables_hold_the_one_basis(g5, mis_instance, feasible_rescaling):
    # another graph's subspace in between must not leave the table an older
    # copy of g5's basis than the one its subspace holds
    prepare_tables(mis_instance, feasible_rescaling)
    Graph(4, ((0, 1),)).subspace
    assert prepare_tables(mis_instance, feasible_rescaling).basis is g5.subspace.basis


def chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for a chi-square variable with dof degrees of freedom, in closed form."""
    h = x / 2
    if dof % 2 == 0:
        return math.exp(-h) * sum(h**i / math.factorial(i) for i in range(dof // 2))
    tail = sum(h ** (i - 0.5) / math.gamma(i + 0.5) for i in range(1, (dof + 1) // 2))
    return math.erfc(math.sqrt(h)) + math.exp(-h) * tail


def test_penalised_mis_draws_the_feasible_final_costs():
    # the mis-controlled mixer keeps a feasible-uniform start on the
    # independent sets, where the penalty is 0, so under one user-supplied
    # rescaling a penalised run is the feasible-subspace run in distribution,
    # whatever lambda: a two-sample chi-square of the final-cost histograms,
    # from independent seeds.  Each instance's brute-force bounds read p below
    # 1e-20 here, and a transverse-field mixer, which leaves the sets, p = 0
    n, trajectories = 6, 10_000
    graph = Graph(n, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)))
    mask = feasible_mask(ProblemInstance(graph, "mis"))
    start = StateVector(n, mask / math.sqrt(mask.sum()))
    criteria = CriteriaConfig(threshold_T=2.5, ceiling_KT=40, min_steps_ell=1)
    mixer = MixerSpec(MIS_CONTROLLED, 0.5, graph)
    runs = {}
    for seed, lam in enumerate((None, 0.5, 3.0)):
        inst = ProblemInstance(graph, "mis", penalty_weight=lam)
        bounds = spectrum_bounds(driving_hamiltonian(inst), "user-supplied", (15.0, 40.0))
        config = OuterConfig(rescaling_from_bounds(bounds), start, criteria, mixer)
        runs[lam] = outer_loop(inst, config, Budget(max_trajectories=trajectories), seed)
        assert sum(len(t.scramble_events) for t in runs[lam].trajectories) > trajectories / 4
    feasible_costs = runs.pop(None).cost_histogram
    assert sorted(feasible_costs) == [0.0, 1.0, 2.0, 3.0]
    for run in runs.values():
        a, b = feasible_costs, run.cost_histogram
        assert sorted(b) == sorted(a)
        x = sum((a[v] - b[v]) ** 2 / (a[v] + b[v]) for v in a)
        assert chi2_sf(x, len(a) - 1) > 1e-3


def test_threshold_returns_at_the_first_success_whatever_t():
    # a scramble resets the counts, and counts with k0 = 0 < k1 read a peak of
    # pi/4, at least any admissible E(T): with a mixer and min_steps_ell <= 1
    # every failure scrambles and the first success returns by threshold, so
    # T changes no trajectory
    n = 6
    graph = Graph(n, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)))
    instance = ProblemInstance(graph, "mis")
    mask = feasible_mask(instance)
    start = StateVector(n, mask / math.sqrt(mask.sum()))
    rescaling = rescaling_from_bounds(
        spectrum_bounds(driving_hamiltonian(instance), "user-supplied", (15.0, 40.0))
    )
    mixer = MixerSpec(MIS_CONTROLLED, 0.5, graph)
    runs = [
        outer_loop(
            instance,
            OuterConfig(rescaling, start, CriteriaConfig(threshold_T=t, min_steps_ell=1), mixer),
            Budget(max_trajectories=300),
            3,
        ).trajectories
        for t in (0.5, 2.5)
    ]
    assert runs[0] == runs[1]
    assert max(t.steps for t in runs[0]) > 2
    for t in runs[0]:
        assert t.terminal_reason == control.THRESHOLD
        assert t.outcomes == (0,) * (t.steps - 1) + (1,)
        assert t.scramble_events == tuple(range(1, t.steps))


def maxcut_n12():
    """Algorithm 1 on a seeded 12-vertex, 18-edge MaxCut graph from the uniform start."""
    rng = np.random.default_rng(12)
    pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    graph = Graph(12, tuple(pairs[i] for i in sorted(rng.choice(len(pairs), 18, replace=False))))
    inst = ProblemInstance(graph, "maxcut")
    rescaling = rescaling_from_bounds(spectrum_bounds(driving_hamiltonian(inst), "brute-force"))
    return inst, rescaling, uniform_superposition(12)


def test_every_path_to_a_node_reads_one_p1():
    # with no scramble the state is fixed by the counts, so every path to a
    # (k0, k1) node must read the same p1 bits, however its outcomes were ordered
    inst, rescaling, initial = maxcut_n12()
    crit = CriteriaConfig(surplus_L=6, reset_R=4)
    bits, paths = {}, {}
    for seed in range(30):
        traj = run_algorithm1(
            inst, rescaling, initial, crit, trajectory_rng(seed, 0), record_diagnostics=True
        )
        for record in traj.diagnostics:
            prefix = traj.outcomes[: record.step]
            node = (prefix.count(0), prefix.count(1))
            bits.setdefault(node, set()).add(np.float64(record.p1).tobytes())
            paths.setdefault(node, set()).add(prefix)
    assert sum(len(paths[node]) > 1 for node in paths) >= 10
    assert {node: len(b) for node, b in bits.items() if len(b) > 1} == {}


def memo_cases(g5, mis_instance, feasible_rescaling):
    inst, rescaling, initial = maxcut_n12()
    algorithm1 = (inst, OuterConfig(rescaling, initial, CriteriaConfig(surplus_L=6, reset_R=4)))
    mask = feasible_mask(mis_instance)
    algorithm2 = (
        mis_instance,
        OuterConfig(
            feasible_rescaling,
            StateVector(5, mask / np.sqrt(mask.sum())),
            CriteriaConfig(threshold_T=2.9, ceiling_KT=30, min_steps_ell=5),
            MixerSpec(MIS_CONTROLLED, 0.5, g5),
        ),
    )
    return algorithm1, algorithm2


def stored_bytes(base) -> int:
    """The bytes the run's budget counts for what base's memos hold."""
    children = (
        sum(a.nbytes for a in (child.state.amps, child.w, child.penalty) if a is not None)
        for child in base.children.values()
    )
    cdfs = (cdf.nbytes for cdf in base.cdfs.values())
    return control.P1_BYTES * len(base.p1_memo) + sum(children) + sum(cdfs)


@pytest.mark.parametrize("case", [0, 1], ids=["algorithm1", "algorithm2"])
def test_node_memos_change_no_draw_and_hold_the_budget(
    monkeypatch, case, g5, mis_instance, feasible_rescaling
):
    # the memos only save work: no budget changes a trajectory or a sample,
    # the bases of a run store at most the budget between them, and every
    # stored p1, mixed base and CDF has the bits of its node's computation
    inst, config = memo_cases(g5, mis_instance, feasible_rescaling)[case]
    tables = prepare_tables(inst, config.rescaling)
    weigh, apply_mixer = control.weigh, control.apply_mixer
    small = 3 * control.P1_BYTES
    summaries, stored, start_sizes = [], [], []
    for budget in (0, small, control.MEMO_BYTES):
        bases = []

        def kept(*args):
            bases.append(weigh(*args))
            return bases[-1]

        monkeypatch.setattr(control, "MEMO_BYTES", budget)
        monkeypatch.setattr(control, "weigh", kept)
        summaries.append(outer_loop(inst, config, Budget(max_trajectories=40), seed=5))
        stored.append(sum(stored_bytes(base) for base in bases))
        start_sizes.append(len(bases[0].p1_memo))
        assert stored[-1] <= budget
        for base in bases:
            for (k0, k1), p1 in base.p1_memo.items():
                q = control._posterior(tables, base, OutcomeCounts(k0, k1))
                assert np.float64(p1).tobytes() == np.float64(control._p1(tables, q)).tobytes()
            for (k0, k1), child in base.children.items():
                q = control._posterior(tables, base, OutcomeCounts(k0, k1))
                mixed = weigh(tables, apply_mixer(control._materialise(tables, base, q), config.mixer))
                assert child.state.amps.tobytes() == mixed.state.amps.tobytes()
                assert child.w.tobytes() == mixed.w.tobytes()
            for (k0, k1), cdf in base.cdfs.items():
                q = control._posterior(tables, base, OutcomeCounts(k0, k1))
                (weights,) = control._weights(tables, base, q)
                assert cdf.tobytes() == np.cumsum(weights).tobytes()
    assert stored[0] == start_sizes[0] == 0
    assert 0 < stored[1] <= small < stored[2] and 0 < start_sizes[1] <= 3 < start_sizes[2]
    assert summaries[0] == summaries[1] == summaries[2]
    if case == 1:
        assert len(bases) > 1 and any(base.children for base in bases)


def mis_n12():
    """Algorithm 2 under configs/run_mis_feasible_n12.json's graph, criteria and
    mixer, from the feasible-uniform start."""
    graph = Graph.from_1indexed(
        12,
        [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (7, 8), (8, 9), (7, 9),
         (10, 11), (11, 12), (10, 12), (1, 4), (2, 7), (3, 10), (5, 8), (6, 11), (9, 12)],
    )
    inst = ProblemInstance(graph, "mis")
    rescaling = rescaling_from_bounds(spectrum_bounds(graph.subspace, "brute-force"))
    config = OuterConfig(
        rescaling,
        uniform_superposition(12, graph.subspace.basis),
        CriteriaConfig(threshold_T=3.5, ceiling_KT=40, min_steps_ell=2),
        MixerSpec(MIS_CONTROLLED, 4 * math.pi / 28, graph),
    )
    return inst, config


def test_each_scramble_node_is_mixed_and_weighed_once(monkeypatch):
    # a scramble's node is its parent base and the counts there, so its key
    # is the counts at each scramble of its trajectory so far: across 200
    # trajectories the mixer and weigh run once per distinct key, besides
    # the start's weigh
    inst, config = mis_n12()
    calls = {"apply_mixer": 0, "weigh": 0}

    def counted(name):
        call = getattr(control, name)

        def counted_call(*args):
            calls[name] += 1
            return call(*args)

        monkeypatch.setattr(control, name, counted_call)

    counted("apply_mixer")
    counted("weigh")
    summary = outer_loop(inst, config, Budget(max_trajectories=200), seed=3)
    keys = set()
    for traj in summary.trajectories:
        key, last = (), 0
        for event in traj.scramble_events:
            segment = traj.outcomes[last:event]
            key += ((segment.count(0), segment.count(1)),)
            keys.add(key)
            last = event
    scrambles = sum(len(traj.scramble_events) for traj in summary.trajectories)
    assert scrambles > 2 * len(keys) and max(len(key) for key in keys) > 1
    assert calls["apply_mixer"] == calls["weigh"] - 1 == len(keys)


def test_the_tree_of_bases_dies_with_the_run(monkeypatch):
    # the start base holds every mixed base of the run, and nothing holds
    # the start once outer_loop returns
    inst, config = mis_n12()
    refs = []
    weigh = control.weigh

    def tracked(*args):
        base = weigh(*args)
        refs.append(weakref.ref(base))
        return base

    monkeypatch.setattr(control, "weigh", tracked)
    outer_loop(inst, config, Budget(max_trajectories=50), seed=3)
    assert len(refs) > 1
    assert all(ref() is None for ref in refs)


def test_every_final_sample_is_one_sample_index_search(monkeypatch):
    # one search per trajectory, with the samples of the unwrapped run: on
    # the one-block bases of mis_n12 where every failure scrambles, whose
    # memoised CDFs are searched again, and on multi-block bases of a
    # MaxCut run under 64-entry blocks, whose weights are made per sample
    inst, config = mis_n12()
    every_failure = CriteriaConfig(threshold_T=3.5, ceiling_KT=40, min_steps_ell=0)
    rng = np.random.default_rng(10)
    edges = tuple((u, v) for u in range(10) for v in range(u + 1, 10) if rng.random() < 0.4)
    maxcut = ProblemInstance(Graph(10, edges), "maxcut")
    cases = [
        (inst, replace(config, criteria=every_failure), Budget(max_total_steps=400), None),
        (
            maxcut,
            OuterConfig(
                rescaling_from_bounds(spectrum_bounds(driving_hamiltonian(maxcut), "brute-force")),
                uniform_superposition(10),
                CriteriaConfig(surplus_L=6, reset_R=4),
            ),
            Budget(max_trajectories=40),
            64,
        ),
    ]
    calls = {"sample_index": 0, "_weights": 0}

    def counted(name):
        call = getattr(control, name)

        def counted_call(*args):
            calls[name] += 1
            return call(*args)

        return counted_call

    for inst, config, budget, block in cases:
        for seed in (0, 1):
            plain = outer_loop(inst, config, budget, seed)
            with monkeypatch.context() as patch:
                if block is not None:
                    patch.setattr(statevector, "_BLOCK", block)
                    patch.setattr(control, "_BLOCK", block)
                for name in calls:
                    patch.setattr(control, name, counted(name))
                    calls[name] = 0
                summary = outer_loop(inst, config, budget, seed)
            assert summary == plain
            assert calls["sample_index"] == summary.trajectories_run > 1
            if block is None:
                assert calls["_weights"] < calls["sample_index"]
            else:
                assert calls["_weights"] == calls["sample_index"]
