"""Run-length analytics for the success/failure walk and the rescaling sweep.

The outcome record of a trajectory is modeled as a biased +-1 walk: +1 with
probability p (success), -1 otherwise, absorbed at +L (surplus return
criterion) and optionally restarted from the origin at -R (reset criterion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .problems import DiagonalHamiltonian
from .statevector import StateVector

# Aggregate Monte Carlo step budget; p <= 1/2 walks have infinite expectation.
MC_STEP_CAP = 10**8

# Relative tolerance for flagging closed-form vs exact-solver agreement.
CLOSED_FORM_RTOL = 1e-9

# Most unknowns R + L - 1 of the exact reset-walk solve: its dense matrix
# then takes 128 MiB.
EXACT_SOLVER_CAP = 4096


@dataclass(frozen=True)
class WalkModel:
    """Walk parameters: success probability p, target surplus L, optional reset depth R."""

    p: float
    L: int
    R: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if self.L < 1:
            raise ValueError(f"L must be at least 1, got {self.L}")
        if self.R is not None and self.R < 1:
            raise ValueError(f"R must be at least 1 when present, got {self.R}")

    @property
    def q(self) -> float:
        return 1.0 - self.p


def expected_steps_run(p: float, L: int) -> float:
    """Expected steps until a run of L consecutive successes: (1 - p^L) / ((1-p) p^L).

    p = 1 returns the limit value L exactly; a denominator that underflows
    to 0 returns inf.
    """
    if L < 1:
        raise ValueError(f"L must be at least 1, got {L}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if p == 1.0:
        return float(L)
    denominator = (1.0 - p) * p**L
    return (1.0 - p**L) / denominator if denominator else math.inf


def expected_steps_surplus_bound(p: float, L: int) -> float:
    """Upper bound L / (2p - 1) on the expected steps to surplus L; needs p > 1/2."""
    if L < 1:
        raise ValueError(f"L must be at least 1, got {L}")
    if not p > 0.5:
        raise ValueError(f"the walk does not drift upward for p = {p} <= 1/2")
    if p > 1.0:
        raise ValueError(f"p must lie in (1/2, 1], got {p}")
    return L / (2.0 * p - 1.0)


def check_exact_size(model: WalkModel) -> int:
    """The exact solver's R + L - 1 unknowns; CapacityError past EXACT_SOLVER_CAP."""
    if model.R is None:
        raise ValueError("reset depth R is required for the reset walk")
    size = model.R + model.L - 1
    if size > EXACT_SOLVER_CAP:
        raise CapacityError(
            f"the reset walk at p={model.p} needs R + L - 1 = {size} unknowns, "
            f"past the exact solver's cap of {EXACT_SOLVER_CAP}"
        )
    return size


def expected_steps_with_reset_exact(model: WalkModel) -> float:
    """Expected absorption time E_0 of the reset walk, from the exact recurrence.

    Solves the linear system

        E_L = 0,
        E_j = 1 + p E_{j+1} + q E_{j-1}   for j = -R+1, ..., L-1,
        E_{-R} = E_0,

    a dense solve in the R + L - 1 unknowns E_{-R+1..L-1}.
    """
    size = check_exact_size(model)
    p, q, L, R = model.p, model.q, model.L, model.R
    lo = -R + 1

    def idx(j: int) -> int:
        return j - lo

    a = np.zeros((size, size))
    b = np.ones(size)
    for j in range(lo, L):
        i = idx(j)
        a[i, i] += 1.0
        if j + 1 < L:
            a[i, idx(j + 1)] -= p
        if j - 1 > -R:
            a[i, idx(j - 1)] -= q
        elif j - 1 == -R:
            a[i, idx(0)] -= q
    try:
        e = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - unreachable for p in (0,1)
        raise RuntimeError(f"singular recurrence system for {model}") from exc
    return float(e[idx(0)])


@dataclass(frozen=True)
class ClosedFormResult:
    """Both sign variants of the closed-form reset formula, flagged against the exact solver.

    printed uses the (p/q)^L factor as written; corrected uses (q/p)^L.  Only
    the corrected variant reproduces the exact recurrence; the printed one can
    exceed the walk's own upper bound L/(2p-1) and diverges as p -> q.
    """

    printed: float
    corrected: float
    exact: float
    printed_matches: bool
    corrected_matches: bool


def _power(ratio: float, L: int) -> float:
    """ratio ** L, or inf where it overflows the float range."""
    try:
        return ratio**L
    except OverflowError:
        return math.inf


def expected_steps_with_reset_closed_form(model: WalkModel) -> ClosedFormResult:
    """Evaluate L/(2p-1) - R q^R / ((p-q)(p^R - q^R)) * (1 - r^L) for both r = p/q, q/p."""
    if model.R is None:
        raise ValueError("reset depth R is required for the reset walk")
    p, q, L, R = model.p, model.q, model.L, model.R
    exact = expected_steps_with_reset_exact(model)
    if q == 0.0:
        printed = corrected = float(L)
    elif p == q:
        # Removable singularity of the corrected variant; the printed one diverges.
        corrected = float(L * (L + R))
        printed = math.inf
    else:
        base = L / (2.0 * p - 1.0)
        denominator = (p - q) * (p**R - q**R)
        if denominator:
            correction = R * q**R / denominator
        else:  # p^R and q^R both underflow: scale them by max(p, q)^R
            top = max(p, q)
            correction = R * (q / top) ** R / ((p - q) * ((p / top) ** R - (q / top) ** R))
        printed = base - correction * (1.0 - _power(p / q, L))
        corrected = base - correction * (1.0 - _power(q / p, L))

    def matches(value: float) -> bool:
        return (
            math.isfinite(value)
            and abs(value - exact) <= CLOSED_FORM_RTOL * max(1.0, abs(exact))
        )

    return ClosedFormResult(
        printed=printed,
        corrected=corrected,
        exact=exact,
        printed_matches=matches(printed),
        corrected_matches=matches(corrected),
    )


@dataclass(frozen=True)
class MonteCarloResult:
    """Sample mean/stderr of walk lengths; capped walks are excluded from the mean."""

    mean: float
    stderr: float
    completed: int
    capped: int

    @property
    def cap_hit(self) -> bool:
        return self.capped > 0


def walk_monte_carlo(
    model: WalkModel,
    trials: int,
    rng: np.random.Generator,
    rule: str = "surplus",
    max_total_steps: int = MC_STEP_CAP,
) -> MonteCarloResult:
    """Simulate the walk and estimate the expected absorption time.

    rule = "surplus" is the standard walk (step -1 on failure, restart at -R
    when configured).  rule = "consecutive" restarts the position at 0 on any
    failure, so absorption means L consecutive successes.  A hard aggregate
    step cap keeps divergent parameter choices (p <= 1/2, no reset) bounded;
    walks still running at the cap are reported, not averaged.

    Each step draws one uniform per running walk, in trial order, and costs
    O(running walks); `steps` stays 0 for a walk still running at the cap.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if max_total_steps < 1:
        raise ValueError("max_total_steps must be at least 1")
    if rule not in ("surplus", "consecutive"):
        raise ValueError(f"unknown stopping rule {rule!r}")
    p, L, R = model.p, model.L, model.R
    pos = np.zeros(trials, dtype=np.int64)
    idx = np.arange(trials)
    steps = np.zeros(trials, dtype=np.int64)
    total = t = 0
    while pos.size and total + pos.size <= max_total_steps:
        total += pos.size
        t += 1
        success = rng.random(pos.size) < p
        if rule == "consecutive":
            pos = (pos + 1) * success
        else:
            pos += success
            pos -= ~success
            if R is not None:
                pos[pos <= -R] = 0
        done = pos >= L
        if done.any():
            steps[idx[done]] = t
            running = ~done
            pos, idx = pos[running], idx[running]
    done_steps = steps[steps > 0].astype(np.float64)
    n_done = done_steps.size
    if n_done == 0:
        return MonteCarloResult(math.nan, math.nan, 0, trials)
    mean = float(done_steps.mean())
    stderr = float(done_steps.std(ddof=1) / math.sqrt(n_done)) if n_done > 1 else math.inf
    return MonteCarloResult(mean, stderr, n_done, trials - n_done)


@dataclass(frozen=True)
class EpsilonSweep:
    """Per-epsilon success probability, post-success cost, slope, and covariance."""

    grid: np.ndarray
    p1: np.ndarray
    h_phi: np.ndarray
    slope: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("grid", "p1", "h_phi", "slope", "covariance"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.setflags(write=False)
            arrays[name] = arr
        if any(arr.shape != arrays["grid"].shape for arr in arrays.values()):
            raise ValueError("all sweep arrays must share the grid's shape")
        if arrays["grid"].size and np.any(np.diff(arrays["grid"]) <= 0):
            raise ValueError("epsilon grid must be strictly increasing")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)


def _sweep_moments(state: StateVector, h: DiagonalHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    if h.n != state.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, Hamiltonian n={h.n}")
    probs = state.probabilities()
    support = probs > 0
    if np.any(h.values[support] < -1e-12):
        raise ValueError("epsilon sweep assumes H >= 0 on the state support")
    return probs, h.values


def _h_phi(probs: np.ndarray, values: np.ndarray, eps: float) -> tuple[float, float]:
    weights = np.sin(math.pi / 4 + eps * values) ** 2
    p1 = float(np.sum(probs * weights))
    return float(np.sum(probs * values * weights)) / p1, p1


def epsilon_sweep(
    state: StateVector, h: DiagonalHamiltonian, grid: np.ndarray
) -> EpsilonSweep:
    """Sweep the rescaling strength and record p1, <H>_phi, its slope, and the covariance.

    p1(eps) = <sin^2(pi/4 + eps H)> and <H>_phi(eps) is the cost expectation
    after one success.  The slope is a central finite difference of <H>_phi
    with step 1e-5 of the grid spacing; the covariance Cov(H, cos 2 eps H)
    controls the sign of the slope (negative covariance at the right edge
    places the maximum strictly inside the interval).

    Small-eps expansion: sin^2(pi/4 + x) = 1/2 + x + O(x^3), so
    <H>_phi(eps) = <H> + 2 Var(H) eps - 4 <H> Var(H) eps^2 + O(eps^3) and the
    slope is 2 Var(H) - 8 <H> Var(H) eps + O(eps^2).  For the uniform state
    on the 6-edge benchmark graph (<H> = 3, Var(H) = 3/2) it tends to 3.
    """
    probs, values = _sweep_moments(state, h)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("epsilon grid must be a nonempty 1-d array")
    h_max = float(values[probs > 0].max())
    upper = math.pi / (4.0 * h_max) if h_max > 0 else math.inf
    if grid.min() <= 0 or grid.max() > upper + 1e-12:
        raise ValueError(f"epsilon grid must lie in (0, {upper}]")
    spacing = float(grid[1] - grid[0]) if grid.size > 1 else float(grid[0])
    delta = 1e-5 * spacing
    p1 = np.empty(grid.size)
    h_phi = np.empty(grid.size)
    slope = np.empty(grid.size)
    covariance = np.empty(grid.size)
    mean_h = float(np.sum(probs * values))
    for i, eps in enumerate(grid):
        h_phi[i], p1[i] = _h_phi(probs, values, eps)
        hi, _ = _h_phi(probs, values, eps + delta)
        lo, _ = _h_phi(probs, values, eps - delta)
        slope[i] = (hi - lo) / (2.0 * delta)
        cos_term = np.cos(2.0 * eps * values)
        covariance[i] = float(
            np.sum(probs * values * cos_term) - mean_h * np.sum(probs * cos_term)
        )
    return EpsilonSweep(grid=grid, p1=p1, h_phi=h_phi, slope=slope, covariance=covariance)


def success_prob_derivative(state: StateVector, h: DiagonalHamiltonian, eps: float) -> float:
    """d p1 / d eps = <H cos 2 eps H>; nonnegative whenever H >= 0 on the support."""
    probs, values = _sweep_moments(state, h)
    return float(np.sum(probs * values * np.cos(2.0 * eps * values)))
