"""Measurement-driven control loops and the outer restart loop.

A trajectory repeats weak-measurement steps until a return criterion fires,
then samples the register.  The feedback-controlled variant additionally
scrambles the state with a mixer whenever the aggregated outcome record looks
unpromising, resetting the record.  The outer loop restarts trajectories under
a step/trajectory/target budget, optionally adapting criteria between runs.

Trajectories run on cost levels.  The branch operators are diagonal and
commute, so between scrambles the state is a fixed base state times a factor
that depends only on the cost level: a step updates one weight per distinct
cost, and the 2**n amplitudes are touched only to weigh a base state, to
scramble and to draw the final sample.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import StepCapError, ZeroBranchError
from .mixers import MixerSpec, apply_mixer
from .problems import (
    BOUND_TOL,
    ProblemInstance,
    Rescaling,
    apply_rescaling,
    instance_tables,
)
from .statevector import StateVector, sample_index
from .weak_measurement import (
    ZERO_BRANCH_TOL,
    OutcomeCounts,
    check_support_costs,
    peak_position,
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
    """The cost-level table of one (instance, rescaling).

    Basis state x sits on level level[x], stored in the smallest unsigned
    dtype that fits.  Every state on level l has the driving cost h[l] and
    the rescaled cost c[l]; sin_sq and cos_sq are the branch weights
    sin^2(c + pi/4) and cos^2(c + pi/4), sin_2c the success weight, and
    outside marks levels whose c leaves [0, pi/4].  support marks the
    feasible subspace in feasible-subspace mode; p_viol holds the dense
    violation counts of MIS instances.
    """

    n: int
    rescaling: Rescaling
    level: np.ndarray
    h: np.ndarray
    c: np.ndarray
    sin_sq: np.ndarray
    cos_sq: np.ndarray
    sin_2c: np.ndarray
    outside: np.ndarray
    support: np.ndarray | None
    p_viol: np.ndarray | None


@lru_cache(maxsize=8)
def prepare_tables(instance: ProblemInstance, rescaling: Rescaling) -> ControlTables:
    """Build (and cache) the cost-level table for an instance.

    The driving cost and the support come from instance_tables (in
    feasible-subspace mode the rescaling is validated only on independent
    sets).  Levels are the distinct driving costs, so the driving and the
    rescaled cost are both constant on a level.
    """
    dense = instance_tables(instance)
    h_drive, p_viol = dense.drive, dense.violations
    c_dense = apply_rescaling(rescaling, h_drive, dense.support)
    h, level = h_drive.levels
    c = np.empty_like(h)
    c[level] = c_dense.values  # the rescaled cost is constant on a level
    angle = c + math.pi / 4
    return ControlTables(
        n=instance.graph.n,
        rescaling=rescaling,
        level=level,
        h=h,
        c=c,
        sin_sq=np.sin(angle) ** 2,
        cos_sq=np.cos(angle) ** 2,
        sin_2c=np.sin(2.0 * c),
        outside=(c < -BOUND_TOL) | (c > math.pi / 4 + BOUND_TOL),
        support=dense.support,
        p_viol=None if p_viol is None else p_viol.values,
    )


@dataclass(frozen=True)
class _Base:
    """A dense state that stays fixed between scrambles, weighed by cost level.

    A trajectory's current state is state.amps * sqrt(q / w)[level] for its
    level posterior q.  penalty holds the per-level sums of |amps|^2 times
    the violation count, and is kept only for diagnostics.
    """

    state: StateVector
    w: np.ndarray
    penalty: np.ndarray | None


def _check_criteria(
    criteria: CriteriaConfig, mixer: MixerSpec | None, rescaling: Rescaling
) -> None:
    """The run's threshold must fall in [0, pi/4]; scrambling needs one."""
    if criteria.threshold_T is not None:
        e_t = rescaled_threshold(criteria.threshold_T, rescaling)
        if e_t < -BOUND_TOL or e_t > math.pi / 4 + BOUND_TOL:
            raise ValueError(
                f"rescaled threshold E(T) = {e_t} falls outside [0, pi/4]; "
                f"threshold_T = {criteria.threshold_T} is incompatible with this rescaling"
            )
    elif mixer is not None:
        raise ValueError("the scrambling condition requires threshold_T")


def _start(tables: ControlTables, state: StateVector, diagnostics: bool) -> _Base:
    """Validate an initial state once per run and weigh it."""
    if state.n != tables.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, cost n={tables.n}")
    if tables.support is not None:
        leaked = np.abs(state.amps[~tables.support]) > 0
        if leaked.any():
            raise ValueError(
                "initial state puts amplitude on infeasible strings in "
                "feasible-subspace mode"
            )
    return _weigh(tables, state, diagnostics)


def _weigh(tables: ControlTables, state: StateVector, diagnostics: bool) -> _Base:
    """Sum |amps|^2 per level, after checking c on the state's support."""
    mag = np.abs(state.amps)
    if tables.outside.any() and np.any(mag > 0, where=tables.outside.take(tables.level)):
        check_support_costs(tables.c[np.unique(tables.level[mag > 0])])
    probs = np.square(mag, out=mag)
    size = tables.h.size
    penalty = None
    if diagnostics and tables.p_viol is not None:
        penalty = np.bincount(tables.level, probs * tables.p_viol, minlength=size)
    return _Base(state, np.bincount(tables.level, probs, minlength=size), penalty)


def _p1(tables: ControlTables, q: np.ndarray) -> float:
    return 0.5 + 0.5 * float(q @ tables.sin_2c)


def _level_step(
    tables: ControlTables, q: np.ndarray, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """One weak step on the level posterior: draw the outcome, reweight, renormalize."""
    b = 1 if rng.random() < _p1(tables, q) else 0
    branch = q * (tables.sin_sq if b == 1 else tables.cos_sq)
    branch_prob = float(branch.sum())
    if branch_prob < ZERO_BRANCH_TOL:
        raise ZeroBranchError(
            f"conditioning on outcome {b} with branch probability {branch_prob}"
        )
    return b, branch / branch_prob


def _ratio(base: _Base, q: np.ndarray) -> np.ndarray:
    """q / w per level, 0 on levels the base does not reach."""
    return np.divide(q, base.w, out=np.zeros_like(q), where=base.w > 0)


def _materialise(tables: ControlTables, base: _Base, q: np.ndarray) -> StateVector:
    scale = np.sqrt(_ratio(base, q)).take(tables.level)
    return StateVector._own(base.state.n, base.state.amps * scale)


def _sample(
    tables: ControlTables, base: _Base, q: np.ndarray, rng: np.random.Generator
) -> int:
    """Draw from |amps|^2 * (q / w)[level] in basis order, as sample_bitstring would."""
    weights = np.abs(base.state.amps)
    weights *= weights
    weights *= _ratio(base, q).take(tables.level)
    return sample_index(weights, rng)


def _trajectory(
    tables: ControlTables,
    start: _Base,
    criteria: CriteriaConfig,
    mixer: MixerSpec | None,
    rng: np.random.Generator,
    seed: tuple[int, int] | int | None,
    record_diagnostics: bool,
    max_steps: int,
) -> Trajectory:
    """The trajectory loop, from a validated and weighed initial state.

    A weak step reweights only the level posterior q.  A scramble
    materialises the state, mixes it and makes the result the new base,
    which is weighed before the next step reads it: so the step cap is
    checked before a support leak is reported.
    """
    rescaling = tables.rescaling
    base, q = start, start.w
    state = None  # a mixed state that is not weighed yet
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
        if base is None:
            base = _weigh(tables, state, record_diagnostics)
            q = base.w
        b, q = _level_step(tables, q, rng)
        outcomes.append(b)
        counts = OutcomeCounts(counts.k0 + (b == 0), counts.k1 + (b == 1))
        scrambled = False
        if mixer is not None and _scramble_fires(criteria, counts, rescaling):
            state = _materialise(tables, base, q)
            base = q = None  # the old base must not outlive the mixer's copies
            state = apply_mixer(state, mixer)
            scramble_events.append(len(outcomes))
            counts = OutcomeCounts(0, 0)
            scrambled = True
        if record_diagnostics:
            if base is None:
                base = _weigh(tables, state, record_diagnostics)
                q = base.w
            records.append(
                StepRecord(
                    step=len(outcomes),
                    outcome=b,
                    p1=_p1(tables, q),
                    cost_expectation=float(q @ tables.h),
                    peak=peak_position(counts) if counts.total >= 1 else None,
                    scrambled=scrambled,
                    penalty_expectation=(
                        float(_ratio(base, q) @ base.penalty)
                        if base.penalty is not None
                        else None
                    ),
                )
            )
    final_sample = _sample(tables, base, q, rng)
    return Trajectory(
        outcomes=tuple(outcomes),
        scramble_events=tuple(scramble_events),
        counts=counts,
        final_sample=final_sample,
        final_cost=float(tables.h[tables.level[final_sample]]),
        terminal_reason=reason,
        seed=seed,
        diagnostics=tuple(records) if record_diagnostics else None,
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

    With mixer=None no scramble ever fires, which is algorithm 1.  The
    criteria and the initial state are validated once, on entry.  Raises
    StepCapError when no return criterion fires within max_steps steps.
    """
    tables = prepare_tables(instance, rescaling)
    _check_criteria(criteria, mixer, rescaling)
    start = _start(tables, initial_state, record_diagnostics)
    return _trajectory(
        tables, start, criteria, mixer, rng, seed, record_diagnostics, max_steps
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

    A mixer makes the loop algorithm 2; with mixer=None nothing scrambles,
    which is algorithm 1.  adaptive_threshold raises threshold_T to the best
    driving cost seen so far after each trajectory; surplus_delta adds a
    fixed increment to surplus_L after each trajectory (0 disables).
    """

    rescaling: Rescaling
    initial_state: StateVector
    criteria: CriteriaConfig
    mixer: MixerSpec | None = None
    adaptive_threshold: bool = False
    surplus_delta: int = 0
    max_steps_per_trajectory: int = DEFAULT_MAX_STEPS

    def __post_init__(self) -> None:
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


def outer_loop(
    instance: ProblemInstance, config: OuterConfig, budget: Budget, seed: int
) -> RunSummary:
    """Run trajectories one after another until a budget or the target cost stops them.

    Trajectory i draws from trajectory_rng(seed, i), so results are
    reproducible from `seed` alone.  Every trajectory's sample is recorded,
    including reset-terminated ones.  The criteria and the initial state are
    validated once, before the first trajectory, and adapted criteria again
    when they change: a setup inconsistency (threshold range, infeasible
    support) raises ValueError there.
    """
    criteria = config.criteria
    tables = prepare_tables(instance, config.rescaling)
    _check_criteria(criteria, config.mixer, config.rescaling)
    start = _start(tables, config.initial_state, False)
    adaptive = config.adaptive_threshold or config.surplus_delta != 0
    param_log = [asdict(criteria)]
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
            _check_criteria(criteria, config.mixer, config.rescaling)
            param_log.append(asdict(criteria))
        traj = _trajectory(
            tables,
            start,
            criteria,
            config.mixer,
            trajectory_rng(seed, index),
            (seed, index),
            False,
            config.max_steps_per_trajectory,
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
