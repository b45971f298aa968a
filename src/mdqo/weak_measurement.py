"""The weak-measurement primitive.

A single step couples the register to a fresh ancilla and measures it, which
multiplies amplitudes by cos(c(x) + pi/4) on outcome 0 and sin(c(x) + pi/4) on
outcome 1, where c is the rescaled cost.  The two branch operators commute, so
an aggregated outcome record (k0, k1) determines the state regardless of order.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCountsError, ZeroBranchError
from .problems import BOUND_TOL, DiagonalHamiltonian
from .statevector import StateVector, _check_basis

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


def _checked_support(
    state: StateVector, c: DiagonalHamiltonian
) -> tuple[np.ndarray, np.ndarray | slice]:
    """Validate 0 <= c <= pi/4 on the cost levels the state's support reaches.

    The state and c must share a basis.  Returns the support mask and those
    levels (all of them on full support); only a failing message reads the
    per-entry values, to keep their signed zeros.
    """
    _check_basis(state, c, "cost")
    support = np.abs(state.amps) > 0
    values, level = c.levels
    hit = slice(None) if support.all() else np.bincount(level[support], minlength=values.size) > 0
    vals = values[hit]
    if vals.size and (vals.min() < -BOUND_TOL or vals.max() > math.pi / 4 + BOUND_TOL):
        entries = c.values[support]
        raise ValueError(
            f"rescaled cost must lie in [0, pi/4] on the state support; "
            f"found range [{entries.min()}, {entries.max()}]"
        )
    return support, hit


def success_probability(state: StateVector, c: DiagonalHamiltonian) -> float:
    """p1 = 1/2 + (1/2) <sin 2C>; at least 1/2 whenever 0 <= C <= pi/4."""
    _checked_support(state, c)
    values, level = c.levels
    mean_sin = float(np.sum(state.probabilities() * np.sin(2.0 * values).take(level)))
    return 0.5 + 0.5 * mean_sin


def posterior_state(
    state: StateVector, c: DiagonalHamiltonian, b: int
) -> tuple[StateVector, float]:
    """Condition on ancilla outcome b and renormalize.

    Returns the posterior state, on the state's basis, and the branch
    probability, i.e. the squared norm of the unnormalized branch.
    """
    _checked_support(state, c)
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
    return StateVector(state.n, branch / math.sqrt(branch_prob), state.basis), branch_prob


def weak_step(
    state: StateVector, c: DiagonalHamiltonian, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """One stochastic weak-measurement step: draw the outcome, return the posterior."""
    p1 = success_probability(state, c)
    b = 1 if rng.random() < p1 else 0
    post, _ = posterior_state(state, c, b)
    return b, post


def continuation(
    state0: StateVector, c: DiagonalHamiltonian
) -> Callable[[OutcomeCounts], tuple[StateVector, float]]:
    """The closed form from state0 as a function of the counts: the state after
    k0 failures and k1 successes, on state0's basis, and its log-norm.

    The support checks and the log cos and log sin of each cost level
    (c.levels) that state0's support reaches run once, here.  Per counts,
    amplitudes are modulated by cos^k0(c + pi/4) * sin^k1(c + pi/4) in log
    space, so large counts neither underflow nor overflow: the largest
    log-weight anchors the rest, and off-support cost values, which may fall
    outside [0, pi/4], would otherwise poison the state with NaNs despite
    carrying zero amplitude.  log_norm is the log of the norm before the one
    renormalization.
    """
    support, hit = _checked_support(state0, c)
    if not support.any():
        raise DegenerateCountsError("state has empty support")
    off = None if support.all() else ~support
    values, level = c.levels
    angle = np.clip(values[hit], 0.0, math.pi / 4) + math.pi / 4
    log_cos, log_sin = np.log(np.cos(angle)), np.log(np.sin(angle))

    def at(counts: OutcomeCounts) -> tuple[StateVector, float]:
        logw = np.zeros(angle.shape, dtype=np.float64)
        weight = np.zeros(values.size)
        # huge counts give -inf, and -inf - -inf gives NaN (caught below)
        with np.errstate(over="ignore", invalid="ignore"):
            if counts.k0:
                logw += counts.k0 * log_cos
            if counts.k1:
                logw += counts.k1 * log_sin
            top = logw.max()
            weight[hit] = np.exp(logw - top)
        amps = state0.amps * weight.take(level)
        if off is not None:
            amps[off] = 0.0  # +0 off the support, whatever zeros state0 holds there
        norm = np.linalg.norm(amps)
        log_norm = float(top + np.log(norm))
        if not np.isfinite(log_norm):
            raise DegenerateCountsError.vanishing(counts.k0, counts.k1)
        amps /= norm
        return StateVector._own(state0.n, amps, state0.basis), log_norm

    return at


def analytic_state(
    state0: StateVector, c: DiagonalHamiltonian, counts: OutcomeCounts
) -> tuple[StateVector, float]:
    """State after k0 failures and k1 successes from state0, plus the log-norm:
    continuation(state0, c)(counts)."""
    return continuation(state0, c)(counts)


def amplitude_modulation(c: float, counts: OutcomeCounts) -> float:
    """A_{k0,k1}(c) = cos^k0(c + pi/4) * sin^k1(c + pi/4)."""
    angle = c + math.pi / 4
    return math.cos(angle) ** counts.k0 * math.sin(angle) ** counts.k1


def peak_position(counts: OutcomeCounts) -> float:
    """Cost value where the modulation peaks: (1/2) asin((k1 - k0) / (k0 + k1))."""
    if counts.total < 1:
        raise ValueError("peak position requires at least one recorded outcome")
    return 0.5 * math.asin(counts.surplus / counts.total)
