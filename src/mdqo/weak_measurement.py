"""The weak-measurement primitive.

A single step couples the register to a fresh ancilla and measures it, which
multiplies amplitudes by cos(c(x) + pi/4) on outcome 0 and sin(c(x) + pi/4) on
outcome 1, where c is the rescaled cost.  The two branch operators commute, so
an aggregated outcome record (k0, k1) determines the state regardless of order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCountsError, ZeroBranchError
from .problems import BOUND_TOL, DiagonalHamiltonian
from .statevector import StateVector

ZERO_BRANCH_TOL = 1e-30


@dataclass(frozen=True)
class OutcomeCounts:
    """Aggregated ancilla outcomes: k0 failures and k1 successes."""

    k0: int
    k1: int

    def __post_init__(self) -> None:
        if self.k0 < 0 or self.k1 < 0:
            raise ValueError(f"outcome counts must be nonnegative, got ({self.k0}, {self.k1})")

    @property
    def total(self) -> int:
        return self.k0 + self.k1

    @property
    def surplus(self) -> int:
        return self.k1 - self.k0


def _check_rescaled(state: StateVector, c: DiagonalHamiltonian) -> np.ndarray:
    """Validate 0 <= c <= pi/4 wherever the state has support; return the support mask."""
    if c.n != state.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, cost n={c.n}")
    support = np.abs(state.amps) > 0
    if support.any():
        check_support_costs(c.values[support])
    return support


def check_support_costs(vals: np.ndarray) -> None:
    """Validate 0 <= c <= pi/4 for the rescaled costs found on a state's support."""
    if vals.min() < -BOUND_TOL or vals.max() > math.pi / 4 + BOUND_TOL:
        raise ValueError(
            f"rescaled cost must lie in [0, pi/4] on the state support; "
            f"found range [{vals.min()}, {vals.max()}]"
        )


def success_probability(state: StateVector, c: DiagonalHamiltonian) -> float:
    """p1 = 1/2 + (1/2) <sin 2C>; at least 1/2 whenever 0 <= C <= pi/4."""
    _check_rescaled(state, c)
    values, level = c.levels
    mean_sin = float(np.sum(state.probabilities() * np.sin(2.0 * values).take(level)))
    return 0.5 + 0.5 * mean_sin


def posterior_state(
    state: StateVector, c: DiagonalHamiltonian, b: int
) -> tuple[StateVector, float]:
    """Condition on ancilla outcome b and renormalize.

    Returns the posterior state and the branch probability, i.e. the squared
    norm of the unnormalized branch.
    """
    _check_rescaled(state, c)
    if b not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {b}")
    angle = c.values + math.pi / 4
    factor = np.sin(angle) if b == 1 else np.cos(angle)
    branch = state.amps * factor
    branch_prob = float(np.sum(np.abs(branch) ** 2))
    if branch_prob < ZERO_BRANCH_TOL:
        raise ZeroBranchError(
            f"conditioning on outcome {b} with branch probability {branch_prob}"
        )
    return StateVector(state.n, branch / math.sqrt(branch_prob)), branch_prob


def weak_step(
    state: StateVector, c: DiagonalHamiltonian, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """One stochastic weak-measurement step: draw the outcome, return the posterior."""
    p1 = success_probability(state, c)
    b = 1 if rng.random() < p1 else 0
    post, _ = posterior_state(state, c, b)
    return b, post


def analytic_state(
    state0: StateVector, c: DiagonalHamiltonian, counts: OutcomeCounts
) -> tuple[StateVector, float]:
    """State after k0 failures and k1 successes from state0, plus the log-norm.

    Amplitudes are modulated by cos^k0(c + pi/4) * sin^k1(c + pi/4) and
    renormalized once; log_norm is the log of the pre-normalization norm.  The
    modulation is evaluated in log space, so large counts neither underflow
    nor overflow, once per cost level (c.levels) that state0's support
    reaches: off-support cost values may fall outside [0, pi/4] (e.g.
    infeasible strings under a feasible-subspace rescaling) and would
    otherwise poison the whole state with NaNs despite carrying zero amplitude.
    """
    if c.n != state0.n:
        raise ValueError(f"dimension mismatch: state n={state0.n}, cost n={c.n}")
    support = np.abs(state0.amps) > 0
    if not support.any():
        raise DegenerateCountsError("state has empty support")
    values, level = c.levels
    hit = slice(None) if support.all() else np.bincount(level[support], minlength=values.size) > 0
    vals = values[hit]
    if vals.min() < -BOUND_TOL or vals.max() > math.pi / 4 + BOUND_TOL:
        check_support_costs(c.values[support])  # raises with the dense values' message
    angle = np.clip(vals, 0.0, math.pi / 4) + math.pi / 4
    logw = np.zeros(angle.shape, dtype=np.float64)
    weight = np.zeros(values.size)
    # log(0) and huge counts give -inf, and -inf - -inf gives NaN (caught below)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if counts.k0:
            logw += counts.k0 * np.log(np.cos(angle))
        if counts.k1:
            logw += counts.k1 * np.log(np.sin(angle))
        top = logw.max()
        weight[hit] = np.exp(logw - top)
    amps = state0.amps * weight.take(level)
    amps[~support] = 0.0  # +0 off the support, whatever zeros state0 holds there
    norm = np.linalg.norm(amps)
    log_norm = float(top + np.log(norm))
    if not np.isfinite(log_norm):
        raise DegenerateCountsError(
            f"all modulation weights vanish on the state support for counts "
            f"({counts.k0}, {counts.k1})"
        )
    amps /= norm
    return StateVector._own(state0.n, amps), log_norm


def amplitude_modulation(c: float, counts: OutcomeCounts) -> float:
    """A_{k0,k1}(c) = cos^k0(c + pi/4) * sin^k1(c + pi/4)."""
    angle = c + math.pi / 4
    return math.cos(angle) ** counts.k0 * math.sin(angle) ** counts.k1


def peak_position(counts: OutcomeCounts) -> float:
    """Cost value where the modulation peaks: (1/2) asin((k1 - k0) / (k0 + k1))."""
    if counts.total < 1:
        raise ValueError("peak position requires at least one recorded outcome")
    return 0.5 * math.asin(counts.surplus / counts.total)
