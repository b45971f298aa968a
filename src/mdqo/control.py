"""Measurement-driven control loops and the outer restart loop.

A trajectory repeats weak-measurement steps until a return criterion fires,
then samples the register.  The feedback-controlled variant additionally
scrambles the state with a mixer whenever the aggregated outcome record looks
unpromising, resetting the record.  The outer loop restarts trajectories under
a step/trajectory/target budget, optionally adapting criteria between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import StepCapError
from .mixers import MixerSpec, apply_mixer
from .problems import (
    BOUND_TOL,
    DiagonalHamiltonian,
    ProblemInstance,
    Rescaling,
    apply_rescaling,
    build_maxcut,
    build_mis,
    penalize,
)
from .statevector import StateVector, sample_bitstring
from .weak_measurement import (
    OutcomeCounts,
    peak_position,
    success_probability,
    weak_step,
)

# Hard per-trajectory step cap guarding against unreachable criteria.
DEFAULT_MAX_STEPS = 1_000_000

THRESHOLD = "threshold"
SURPLUS = "surplus"
CEILING = "ceiling"
RESET = "reset"


@dataclass(frozen=True)
class CriteriaConfig:
    """Return/reset criteria; a criterion is enabled iff its field is set.

    threshold_T is a cost value T; the comparison happens on the rescaled
    scale, peak >= E(T) = epsilon * (alpha + T).  min_steps_ell gates both the
    reset criterion and the scrambling condition.
    """

    threshold_T: float | None = None
    surplus_L: int | None = None
    ceiling_KT: int | None = None
    reset_R: int | None = None
    min_steps_ell: int = 0

    def __post_init__(self) -> None:
        enabled = [
            self.threshold_T is not None,
            self.surplus_L is not None,
            self.ceiling_KT is not None,
            self.reset_R is not None,
        ]
        if not any(enabled):
            raise ValueError("at least one return criterion must be enabled")
        if self.surplus_L is not None and self.surplus_L < 1:
            raise ValueError("surplus_L must be a positive integer")
        if self.ceiling_KT is not None and self.ceiling_KT < 0:
            raise ValueError("ceiling_KT must be nonnegative")
        if self.reset_R is not None and self.reset_R < 1:
            raise ValueError("reset_R must be a positive integer")
        if self.min_steps_ell < 0:
            raise ValueError("min_steps_ell must be nonnegative")
        if self.threshold_T is not None and not math.isfinite(self.threshold_T):
            raise ValueError("threshold_T must be finite")


def rescaled_threshold(threshold_t: float, rescaling: Rescaling) -> float:
    """E(T) = epsilon * (alpha + T), the threshold on the rescaled cost scale."""
    return rescaling.epsilon * (rescaling.alpha + threshold_t)


def _check_threshold_range(criteria: CriteriaConfig, rescaling: Rescaling) -> None:
    if criteria.threshold_T is None:
        return
    e_t = rescaled_threshold(criteria.threshold_T, rescaling)
    if e_t < -BOUND_TOL or e_t > math.pi / 4 + BOUND_TOL:
        raise ValueError(
            f"rescaled threshold E(T) = {e_t} falls outside [0, pi/4]; "
            f"threshold_T = {criteria.threshold_T} is incompatible with this rescaling"
        )


def evaluate_return(
    criteria: CriteriaConfig, counts: OutcomeCounts, rescaling: Rescaling
) -> str | None:
    """First satisfied return criterion in priority order, or None.

    Priority is fixed: threshold, surplus, ceiling, reset.  The threshold
    comparison needs at least one recorded outcome; reset fires on
    k0 - k1 >= R only once k0 + k1 >= min_steps_ell.
    """
    if criteria.threshold_T is not None and counts.total >= 1:
        if peak_position(counts) >= rescaled_threshold(criteria.threshold_T, rescaling):
            return THRESHOLD
    if criteria.surplus_L is not None and counts.surplus >= criteria.surplus_L:
        return SURPLUS
    if criteria.ceiling_KT is not None and counts.total >= criteria.ceiling_KT:
        return CEILING
    if (
        criteria.reset_R is not None
        and counts.total >= criteria.min_steps_ell
        and counts.k0 - counts.k1 >= criteria.reset_R
    ):
        return RESET
    return None


def _scramble_fires(
    criteria: CriteriaConfig, counts: OutcomeCounts, rescaling: Rescaling
) -> bool:
    """Scrambling condition: peak below E(T) after at least min_steps_ell outcomes."""
    if criteria.threshold_T is None:
        return False
    if counts.total < max(criteria.min_steps_ell, 1):
        return False
    return peak_position(counts) < rescaled_threshold(criteria.threshold_T, rescaling)


@dataclass(frozen=True)
class StepRecord:
    """Optional per-step diagnostics, recorded after the step (and any scramble).

    p1 is the success probability of the *next* step from the current state;
    cost_expectation is taken w.r.t. the driving Hamiltonian; peak is None
    right after a scramble reset.
    """

    step: int
    outcome: int
    p1: float
    cost_expectation: float
    peak: float | None
    scrambled: bool
    penalty_expectation: float | None = None


@dataclass(frozen=True)
class Trajectory:
    """One control-loop run: outcome record, termination, and the drawn sample."""

    outcomes: tuple[int, ...]
    scramble_events: tuple[int, ...]
    counts: OutcomeCounts
    final_sample: int
    final_cost: float
    terminal_reason: str
    seed: tuple[int, int] | int | None = None
    diagnostics: tuple[StepRecord, ...] | None = None

    @property
    def steps(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class ControlTables:
    """Precomputed per-run tables: rescaled driving cost, support, violation counts."""

    c: DiagonalHamiltonian
    h_drive: DiagonalHamiltonian
    support: np.ndarray | None
    p_viol: DiagonalHamiltonian | None


@lru_cache(maxsize=8)
def prepare_tables(instance: ProblemInstance, rescaling: Rescaling) -> ControlTables:
    """Build (and cache) the rescaled driving cost for an instance.

    MIS without a penalty weight runs in feasible-subspace mode: the bare cost
    drives the dynamics and the rescaling is validated only on independent
    sets.
    """
    if instance.kind == "mis":
        h_bare, p_viol = build_mis(instance.graph)
        if instance.penalty_weight is not None:
            h_drive = penalize(h_bare, p_viol, instance.penalty_weight)
            support = None
        else:
            h_drive = h_bare
            support = p_viol.values == 0
    else:
        h_drive = build_maxcut(instance.graph)
        p_viol = None
        support = None
    c = apply_rescaling(rescaling, h_drive, support)
    return ControlTables(c=c, h_drive=h_drive, support=support, p_viol=p_viol)


def _check_initial_state(state: StateVector, tables: ControlTables) -> None:
    if tables.support is not None:
        leaked = np.abs(state.amps[~tables.support]) > 0
        if leaked.any():
            raise ValueError(
                "initial state puts amplitude on infeasible strings in "
                "feasible-subspace mode"
            )


def run_algorithm2(
    instance: ProblemInstance,
    rescaling: Rescaling,
    initial_state: StateVector,
    criteria: CriteriaConfig,
    mixer: MixerSpec | None,
    rng: np.random.Generator,
    *,
    seed: tuple[int, int] | int | None = None,
    record_diagnostics: bool = False,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Trajectory:
    """Feedback-controlled loop: weak steps, scramble-and-reset, then sample.

    With mixer=None no scramble ever fires, which is algorithm 1.  Raises
    StepCapError when no return criterion fires within max_steps steps.
    """
    tables = prepare_tables(instance, rescaling)
    _check_threshold_range(criteria, rescaling)
    _check_initial_state(initial_state, tables)
    if mixer is not None and criteria.threshold_T is None:
        raise ValueError("the scrambling condition requires threshold_T")

    state = initial_state
    counts = OutcomeCounts(0, 0)
    outcomes: list[int] = []
    scramble_events: list[int] = []
    records: list[StepRecord] = []
    while True:
        reason = evaluate_return(criteria, counts, rescaling)
        if reason is not None:
            break
        if len(outcomes) >= max_steps:
            raise StepCapError(
                f"no return criterion fired within {max_steps} steps; "
                "the criteria may be unreachable under this rescaling"
            )
        b, state = weak_step(state, tables.c, rng)
        outcomes.append(b)
        counts = OutcomeCounts(counts.k0 + (b == 0), counts.k1 + (b == 1))
        scrambled = False
        if mixer is not None and _scramble_fires(criteria, counts, rescaling):
            state = apply_mixer(state, mixer)
            scramble_events.append(len(outcomes))
            counts = OutcomeCounts(0, 0)
            scrambled = True
        if record_diagnostics:
            probs = state.probabilities()
            records.append(
                StepRecord(
                    step=len(outcomes),
                    outcome=b,
                    p1=success_probability(state, tables.c),
                    cost_expectation=float(np.sum(probs * tables.h_drive.values)),
                    peak=peak_position(counts) if counts.total >= 1 else None,
                    scrambled=scrambled,
                    penalty_expectation=(
                        float(np.sum(probs * tables.p_viol.values))
                        if tables.p_viol is not None
                        else None
                    ),
                )
            )
    final_sample = sample_bitstring(state, rng)
    return Trajectory(
        outcomes=tuple(outcomes),
        scramble_events=tuple(scramble_events),
        counts=counts,
        final_sample=final_sample,
        final_cost=float(tables.h_drive.values[final_sample]),
        terminal_reason=reason,
        seed=seed,
        diagnostics=tuple(records) if record_diagnostics else None,
    )


def run_algorithm1(
    instance: ProblemInstance,
    rescaling: Rescaling,
    initial_state: StateVector,
    criteria: CriteriaConfig,
    rng: np.random.Generator,
    **kwargs,
) -> Trajectory:
    """Measurement-driven loop: run_algorithm2 with no mixer, hence no scrambles."""
    return run_algorithm2(instance, rescaling, initial_state, criteria, None, rng, **kwargs)


@dataclass(frozen=True)
class Budget:
    """Outer-loop stopping rules; at least one hard cap must be set."""

    max_trajectories: int | None = None
    max_total_steps: int | None = None
    target_cost: float | None = None

    def __post_init__(self) -> None:
        if self.max_trajectories is None and self.max_total_steps is None:
            raise ValueError("budget must cap trajectories or total steps")
        if self.max_trajectories is not None and self.max_trajectories < 1:
            raise ValueError("max_trajectories must be positive")
        if self.max_total_steps is not None and self.max_total_steps < 1:
            raise ValueError("max_total_steps must be positive")


@dataclass(frozen=True)
class OuterConfig:
    """Everything the outer loop needs besides the instance and budget.

    The mixer is used only by algorithm 2.  adaptive_threshold raises
    threshold_T to the best driving cost seen so far after each trajectory;
    surplus_delta adds a fixed increment to surplus_L after each trajectory
    (0 disables).
    """

    algorithm: int
    rescaling: Rescaling
    initial_state: StateVector
    criteria: CriteriaConfig
    mixer: MixerSpec | None = None
    adaptive_threshold: bool = False
    surplus_delta: int = 0
    max_steps_per_trajectory: int = DEFAULT_MAX_STEPS

    def __post_init__(self) -> None:
        if self.algorithm not in (1, 2):
            raise ValueError(f"algorithm must be 1 or 2, got {self.algorithm}")
        if self.algorithm == 2 and self.mixer is None:
            raise ValueError("algorithm 2 requires a mixer")
        if self.adaptive_threshold and self.criteria.threshold_T is None:
            raise ValueError("adaptive_threshold requires threshold_T to be set")
        if self.surplus_delta != 0 and self.criteria.surplus_L is None:
            raise ValueError("surplus_delta requires surplus_L to be set")


@dataclass(frozen=True)
class RunSummary:
    """Outer-loop result: best sample, ensemble statistics, and the parameter log."""

    best_bitstring: int
    best_cost: float
    trajectories_run: int
    total_steps: int
    cost_histogram: dict[float, int]
    param_log: tuple[dict, ...]
    trajectories: tuple[Trajectory, ...]


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """The documented seed-splitting rule: stream i = SeedSequence(seed, spawn_key=(i,))."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _criteria_snapshot(criteria: CriteriaConfig) -> dict:
    return {
        "threshold_T": criteria.threshold_T,
        "surplus_L": criteria.surplus_L,
        "ceiling_KT": criteria.ceiling_KT,
        "reset_R": criteria.reset_R,
        "min_steps_ell": criteria.min_steps_ell,
    }


def outer_loop(
    instance: ProblemInstance, config: OuterConfig, budget: Budget, seed: int
) -> RunSummary:
    """Run trajectories one after another until a budget or the target cost stops them.

    Trajectory i draws from trajectory_rng(seed, i), so results are
    reproducible from `seed` alone.  Every trajectory's sample is recorded,
    including reset-terminated ones.  A setup inconsistency (threshold range,
    infeasible support) raises ValueError from the first trajectory.
    """
    criteria = config.criteria
    mixer = config.mixer if config.algorithm == 2 else None
    adaptive = config.adaptive_threshold or config.surplus_delta != 0
    param_log = [_criteria_snapshot(criteria)]
    trajectories: list[Trajectory] = []
    histogram: dict[float, int] = {}
    best_cost = -math.inf
    best_bitstring = -1
    total_steps = 0
    index = 0
    while budget.max_trajectories is None or index < budget.max_trajectories:
        if adaptive and index > 0:
            if config.adaptive_threshold:
                criteria = replace(
                    criteria, threshold_T=max(criteria.threshold_T, best_cost)
                )
            if config.surplus_delta != 0:
                criteria = replace(
                    criteria, surplus_L=criteria.surplus_L + config.surplus_delta
                )
            param_log.append(_criteria_snapshot(criteria))
        traj = run_algorithm2(
            instance,
            config.rescaling,
            config.initial_state,
            criteria,
            mixer,
            trajectory_rng(seed, index),
            seed=(seed, index),
            max_steps=config.max_steps_per_trajectory,
        )
        index += 1
        trajectories.append(traj)
        total_steps += traj.steps
        histogram[traj.final_cost] = histogram.get(traj.final_cost, 0) + 1
        if traj.final_cost > best_cost:
            best_cost = traj.final_cost
            best_bitstring = traj.final_sample
        if budget.target_cost is not None and best_cost >= budget.target_cost:
            break
        if budget.max_total_steps is not None and total_steps >= budget.max_total_steps:
            break

    return RunSummary(
        best_bitstring=best_bitstring,
        best_cost=best_cost,
        trajectories_run=len(trajectories),
        total_steps=total_steps,
        cost_histogram=histogram,
        param_log=tuple(param_log),
        trajectories=tuple(trajectories),
    )
