"""Measurement-driven control loops and the outer restart loop.

A trajectory repeats weak-measurement steps until a return criterion fires,
then samples the register.  The feedback-controlled variant additionally
scrambles the state with a mixer whenever the aggregated outcome record looks
unpromising, resetting the record.  The outer loop restarts trajectories under
a step/trajectory/target budget, optionally adapting criteria between runs.

Trajectories run on cost levels.  The branch operators are diagonal and
commute, so between scrambles the state is a fixed base state times a factor
that depends only on the cost level and the counts (k0, k1): a trajectory is
a walk on (base, counts), and the amplitudes are touched only to weigh a
base state, to scramble and to draw the final sample.  Feasible-subspace MIS
keeps its amplitudes on the independent sets alone, never on all 2**n strings.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import StepCapError
from .mixers import MixerSpec, apply_mixer, subspace_pairs
from .problems import BOUND_TOL, ProblemInstance, Rescaling, check_rescaled
from .statevector import _BLOCK, StateVector, _scaled, running_sum, sample_index
from .weak_measurement import OutcomeCounts, anchored_weights, peak_position

# Hard per-trajectory step cap guarding against unreachable criteria.
DEFAULT_MAX_STEPS = 1_000_000

# The node memos of one run store at most this many bytes in all: a p1 at
# P1_BYTES (key, value and dict slot, measured), a mixed base at the bytes of
# its arrays and a final-sample CDF at 8 B per entry.  Past it nothing new
# is stored; what is stored dies with the run.
MEMO_BYTES = 2**25
P1_BYTES = 125

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
    k0 - k1 >= R only once k0 + k1 >= min_steps_ell.  A scramble resets the
    counts, and k0 = 0 < k1 peaks at pi/4 >= E(T): with a mixer and
    min_steps_ell <= 1 each trajectory returns at its first success, whatever T.
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
    diagnostics: tuple[StepRecord, ...] | None = None

    @property
    def steps(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class ControlTables:
    """The cost-level table of one (instance, rescaling).

    h and level are the driving cost's own levels: entry i of a state sits
    on level level[i] and has the driving cost h[level[i]], and every level
    holds some entry.  Of the rescaled cost c only the logs of the branch
    weights, log_sin_sq and log_cos_sq of sin^2(c + pi/4) and
    cos^2(c + pi/4), taken once here, and the success weight sin(2c) are
    kept.  In feasible-subspace mode basis holds
    the independent sets and entry i is basis[i]; otherwise basis is None
    and entry i is basis index i.  p_viol holds the violation counts of MIS
    instances per entry.
    """

    n: int
    rescaling: Rescaling
    level: np.ndarray
    h: np.ndarray
    log_sin_sq: np.ndarray
    log_cos_sq: np.ndarray
    sin_2c: np.ndarray
    basis: np.ndarray | None
    p_viol: np.ndarray | None


def prepare_tables(instance: ProblemInstance, rescaling: Rescaling) -> ControlTables:
    """Build the cost-level table for an instance, once per run.

    The table is the levels of instance.cost, whose entries, on the
    independent sets in feasible-subspace mode, violate no edge.  The driving
    and the rescaled cost are both constant on a level, so c is computed per
    level, with the bits the per-entry rescaling gives, and checked on the
    levels alone.
    """
    cost = instance.cost
    p_viol = None
    if instance.kind == "mis":
        p_viol = instance.graph.mis[1].values if cost.basis is None else np.zeros(cost.basis.size)
    h, level = cost.levels
    c = rescaling.epsilon * (rescaling.alpha + h)
    check_rescaled(c)
    angle = c + math.pi / 4
    return ControlTables(
        n=instance.graph.n,
        rescaling=rescaling,
        level=level,
        h=h,
        log_sin_sq=np.log(np.sin(angle) ** 2),
        log_cos_sq=np.log(np.cos(angle) ** 2),
        sin_2c=np.sin(2.0 * c),
        basis=cost.basis,
        p_viol=p_viol,
    )


@dataclass(frozen=True)
class _Base:
    """A state on the tables' entries that stays fixed between scrambles,
    weighed by cost level, and the memos of the nodes (base, counts) a run
    reads from it.

    A trajectory's current state is state.amps * sqrt(q / w)[level] for the
    level posterior q at its counts.  penalty holds the per-level sums of
    |amps|^2 times the violation count, kept only when weigh is asked for
    diagnostics.  Keyed by (k0, k1), p1_memo holds the success probability,
    children the weighed base a scramble there mixed, and cdfs the one
    running_sum block the final sample searches when the base fits one
    _BLOCK.  A run stores entries under its _Memo's byte budget; the start
    base holds the tree of mixed bases, which lives as long as the run
    holds the start.
    """

    state: StateVector
    w: np.ndarray
    penalty: np.ndarray | None
    p1_memo: dict[tuple[int, int], float] = field(default_factory=dict)
    children: dict[tuple[int, int], _Base] = field(default_factory=dict)
    cdfs: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)


class _Memo:
    """The bytes one run's node memos may still store, from MEMO_BYTES."""

    def __init__(self) -> None:
        self.left = MEMO_BYTES

    def keep(self, table: dict, key: tuple[int, int], value, size: int) -> None:
        if size <= self.left:
            table[key] = value
            self.left -= size


def _on_basis(tables: ControlTables, state: StateVector) -> StateVector:
    """The state on the tables' entries: a dense state in feasible-subspace mode
    is checked for amplitude off the independent sets, then restricted to them."""
    if state.n != tables.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, cost n={tables.n}")
    basis = tables.basis
    if basis is not None and state.basis is None:
        kept = state.amps[basis]
        if np.count_nonzero(kept) != np.count_nonzero(state.amps):
            raise ValueError("state puts amplitude on infeasible strings in feasible-subspace mode")
        return StateVector._own(state.n, kept, basis)
    if state.basis is basis or np.array_equal(state.basis, basis):
        return state
    raise ValueError(
        "state basis does not match the instance: feasible-subspace MIS needs its "
        "independent sets or a dense state, every other instance a dense state"
    )


def weigh(tables: ControlTables, state: StateVector, diagnostics: bool = False) -> _Base:
    """Sum |amps|^2 per level, after the one check on a state the loop reads.

    The initial state, every mixed state and each study's base state pass
    here, through _on_basis.  The independent sets hold every nonzero
    amplitude of a feasible-subspace state, and each string left out would
    weigh +0, which leaves each level's sum and the final sample's
    cumulative sum with the bits of the dense ones.
    """
    state = _on_basis(tables, state)
    probs = state.probabilities()
    penalty = None  # every level holds an entry, so each bincount has h.size bins
    if diagnostics and tables.p_viol is not None:
        penalty = np.bincount(tables.level, probs * tables.p_viol)
    return _Base(state, np.bincount(tables.level, probs), penalty)


def _p1(tables: ControlTables, q: np.ndarray) -> float:
    return 0.5 + 0.5 * float(np.sum(q * tables.sin_2c))


def level_posterior(tables: ControlTables, w: np.ndarray, counts: OutcomeCounts) -> np.ndarray:
    """The level posterior w * cos^2k0 * sin^2k1 (of c + pi/4), normalised, after k0
    failures and k1 successes from level weights w, by the anchored_weights of the
    levels w reaches, from the tables' logs: DegenerateCountsError where all of
    them vanish, as in analytic_state."""
    hit = w > 0
    q = np.zeros_like(w)
    q[hit] = w[hit] * anchored_weights(tables.log_cos_sq[hit], tables.log_sin_sq[hit], counts)[0]
    return q / q.sum()


def level_moments(
    tables: ControlTables, base: _Base, q: np.ndarray
) -> tuple[float, float, float | None]:
    """p1, <H> and, where base holds violation sums, <P> at the level posterior q."""
    penalty = None if base.penalty is None else float(np.sum(_ratio(base, q) * base.penalty))
    return _p1(tables, q), float(np.sum(q * tables.h)), penalty


def _posterior(tables: ControlTables, base: _Base, counts: OutcomeCounts) -> np.ndarray:
    """The level posterior at counts: base.w at (0, 0), else level_posterior."""
    return base.w if counts.total == 0 else level_posterior(tables, base.w, counts)


def _p1_at(tables: ControlTables, base: _Base, counts: OutcomeCounts, memo: _Memo) -> float:
    """p1 at counts, memoised on the base."""
    key = (counts.k0, counts.k1)
    p1 = base.p1_memo.get(key)
    if p1 is None:
        p1 = _p1(tables, _posterior(tables, base, counts))
        memo.keep(base.p1_memo, key, p1, P1_BYTES)
    return p1


def _ratio(base: _Base, q: np.ndarray) -> np.ndarray:
    """q / w per level, 0 on levels the base does not reach."""
    return np.divide(q, base.w, out=np.zeros_like(q), where=base.w > 0)


def _materialise(tables: ControlTables, base: _Base, q: np.ndarray) -> StateVector:
    amps = _scaled(base.state.amps, np.sqrt(_ratio(base, q)), tables.level)
    return StateVector._own(base.state.n, amps, tables.basis)


def _weights(tables: ControlTables, base: _Base, q: np.ndarray):
    """|amps|^2 * (q / w)[level] in basis order, _BLOCK entries at a time,
    each block made into one reused buffer once the one before is used."""
    amps, ratio = base.state.amps, _ratio(base, q)
    buffer = np.empty(min(amps.size, _BLOCK))
    for start in range(0, amps.size, _BLOCK):
        chunk = amps[start : start + _BLOCK]
        weights = np.abs(chunk, out=buffer[: chunk.size])
        weights *= weights
        weights *= ratio.take(tables.level[start : start + chunk.size])
        yield weights


def _final_sample(
    tables: ControlTables,
    base: _Base,
    counts: OutcomeCounts,
    memo: _Memo,
    rng: np.random.Generator,
) -> int:
    """Draw an entry from |amps|^2 * (q / w)[level] in basis order, q the level
    posterior at counts, and return its position: the string there is the one
    sample_bitstring would draw from the dense state.

    sample_index searches the running_sum of the _weights up to the block
    where the draw lands.  On a base of at most _BLOCK entries that one
    cumulative block is memoised on the base at counts.  On the independent
    sets the draw is still the dense one: every string left out has weight
    +0, and running_sum adds in order with x + 0 == x, so the CDF kept
    equals the dense one where kept and the dense one is flat in between.
    The first entry to reach the total S has positive weight, so it is kept,
    and a draw in [S, 1) when S < 1 lands on that kept entry in both CDFs.
    """
    key = (counts.k0, counts.k1)
    cdf = base.cdfs.get(key)
    if cdf is None:
        cdfs = running_sum(_weights(tables, base, _posterior(tables, base, counts)))
        if base.state.amps.size > _BLOCK:
            return sample_index(cdfs, rng)
        (cdf,) = cdfs
        memo.keep(base.cdfs, key, cdf, cdf.nbytes)
    return sample_index([cdf], rng)


def _mixed(
    tables: ControlTables,
    base: _Base,
    counts: OutcomeCounts,
    mixer: MixerSpec,
    memo: _Memo,
    diagnostics: bool,
) -> _Base:
    """The weighed base a scramble at (base, counts) makes: the state there,
    materialised and mixed, memoised on the base.  weigh checks it for
    amplitude off the independent sets at the scramble that first makes it."""
    key = (counts.k0, counts.k1)
    child = base.children.get(key)
    if child is None:
        state = apply_mixer(_materialise(tables, base, _posterior(tables, base, counts)), mixer)
        child = weigh(tables, state, diagnostics)
        size = sum(a.nbytes for a in (child.state.amps, child.w, child.penalty) if a is not None)
        memo.keep(base.children, key, child, size)
    return child


def _trajectory(
    tables: ControlTables,
    start: _Base,
    config: OuterConfig,
    memo: _Memo,
    rng: np.random.Generator,
    record_diagnostics: bool,
) -> Trajectory:
    """The trajectory loop under a validated config, from a weighed initial state.

    The state is (base, counts): a step draws against p1 at the counts, and
    q is read off them only at a scramble, the final sample and the
    diagnostics.  A scramble moves to the mixed base of its node, and each
    node's p1, mixed base and one-block CDF are computed once per run while
    memo has room for them.
    """
    rescaling, criteria, mixer = tables.rescaling, config.criteria, config.mixer
    max_steps = config.max_steps_per_trajectory
    base = start
    counts = OutcomeCounts(0, 0)
    outcomes: list[int] = []
    scramble_events: list[int] = []
    records: list[StepRecord] = []
    while (reason := evaluate_return(criteria, counts, rescaling)) is None:
        if len(outcomes) >= max_steps:
            raise StepCapError(
                f"no return criterion fired within {max_steps} steps; "
                "the criteria may be unreachable under this rescaling"
            )
        b = 1 if rng.random() < _p1_at(tables, base, counts, memo) else 0
        outcomes.append(b)
        counts = OutcomeCounts(counts.k0 + (b == 0), counts.k1 + (b == 1))
        scrambled = mixer is not None and _scramble_fires(criteria, counts, rescaling)
        if scrambled:
            base = _mixed(tables, base, counts, mixer, memo, record_diagnostics)
            scramble_events.append(len(outcomes))
            counts = OutcomeCounts(0, 0)
        if record_diagnostics:
            p1, cost, penalty = level_moments(tables, base, _posterior(tables, base, counts))
            peak = peak_position(counts) if counts.total >= 1 else None
            records.append(StepRecord(len(outcomes), b, p1, cost, peak, scrambled, penalty))
    i = _final_sample(tables, base, counts, memo, rng)
    return Trajectory(
        outcomes=tuple(outcomes),
        scramble_events=tuple(scramble_events),
        counts=counts,
        final_sample=i if tables.basis is None else int(tables.basis[i]),
        final_cost=float(tables.h[tables.level[i]]),
        terminal_reason=reason,
        diagnostics=tuple(records) if record_diagnostics else None,
    )


def _start(
    instance: ProblemInstance, config: OuterConfig, diagnostics: bool
) -> tuple[ControlTables, _Base]:
    """The tables and the weighed initial state, once the mixer is known to keep
    the feasible subspace: a leaving mixer fails here, before the first step."""
    tables = prepare_tables(instance, config.rescaling)
    start = weigh(tables, config.initial_state, diagnostics)
    if tables.basis is not None and config.mixer is not None:
        subspace_pairs(config.mixer, start.state)
    return tables, start


def run_algorithm2(
    instance: ProblemInstance,
    rescaling: Rescaling,
    initial_state: StateVector,
    criteria: CriteriaConfig,
    mixer: MixerSpec | None,
    rng: np.random.Generator,
    *,
    record_diagnostics: bool = False,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Trajectory:
    """Feedback-controlled loop: weak steps, scramble-and-reset, then sample.

    With mixer=None no scramble ever fires, which is algorithm 1.  The
    criteria, the initial state and the mixer are validated once, on entry:
    in feasible-subspace mode a dense initial state must vanish off the
    independent sets, and is restricted to them, and the mixer must keep
    them.  Raises StepCapError when no return criterion fires within
    max_steps steps.
    """
    config = OuterConfig(
        rescaling, initial_state, criteria, mixer, max_steps_per_trajectory=max_steps
    )
    tables, start = _start(instance, config, record_diagnostics)
    return _trajectory(tables, start, config, _Memo(), rng, record_diagnostics)


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
    fixed increment to surplus_L after each trajectory (0 disables).  Building
    it checks the criteria, E(T) in [0, pi/4] and a threshold to scramble,
    and a step cap of at least 1.
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
        if self.max_steps_per_trajectory < 1:
            raise ValueError("max_steps_per_trajectory must be a positive integer")
        threshold_t = self.criteria.threshold_T
        if threshold_t is not None:
            e_t = rescaled_threshold(threshold_t, self.rescaling)
            if e_t < -BOUND_TOL or e_t > math.pi / 4 + BOUND_TOL:
                raise ValueError(
                    f"rescaled threshold E(T) = {e_t} falls outside [0, pi/4]; "
                    f"threshold_T = {threshold_t} is incompatible with this rescaling"
                )
        elif self.mixer is not None:
            raise ValueError("the scrambling condition requires threshold_T")


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
    including reset-terminated ones.  The config checked its criteria when
    it was built, and adapted criteria are checked again as they change; the
    initial state and the mixer are checked once, before the first
    trajectory, as run_algorithm2 checks them.  A setup inconsistency
    (threshold range, infeasible support, a mixer that leaves it) raises
    ValueError, as does ceiling_KT = 0 without a trajectory cap, which no
    step budget ends.
    """
    if budget.max_trajectories is None and config.criteria.ceiling_KT == 0:
        raise ValueError("ceiling_KT = 0 returns every trajectory at 0 steps: cap max_trajectories")
    tables, start = _start(instance, config, False)
    memo = _Memo()
    adaptive = config.adaptive_threshold or config.surplus_delta != 0
    param_log = [asdict(config.criteria)]
    trajectories: list[Trajectory] = []
    histogram: dict[float, int] = {}
    best_cost = -math.inf
    best_bitstring = -1
    total_steps = 0
    index = 0
    while budget.max_trajectories is None or index < budget.max_trajectories:
        if adaptive and index > 0:
            criteria = config.criteria
            if config.adaptive_threshold:
                criteria = replace(
                    criteria, threshold_T=max(criteria.threshold_T, best_cost)
                )
            if config.surplus_delta != 0:
                criteria = replace(
                    criteria, surplus_L=criteria.surplus_L + config.surplus_delta
                )
            config = replace(config, criteria=criteria)
            param_log.append(asdict(criteria))
        traj = _trajectory(tables, start, config, memo, trajectory_rng(seed, index), False)
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
