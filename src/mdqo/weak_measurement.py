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
from .statevector import StateVector, _check_basis, _expect, _scaled

ZERO_BRANCH_TOL = 1e-30
_NEG_ZERO = np.float64(-0.0).view(np.int64)  # the bits of -0.0


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


def anchored_weights(
    a: np.ndarray, b: np.ndarray, counts: OutcomeCounts
) -> tuple[np.ndarray, float]:
    """exp(k0 * log a + k1 * log b - top) and top, the largest exponent, so
    huge counts neither underflow nor overflow; DegenerateCountsError where
    no exponent is finite, as every weight then vanishes."""
    with np.errstate(over="ignore"):  # to -inf, which exp takes to 0
        logw = counts.k0 * np.log(a) + counts.k1 * np.log(b)
        top = logw.max()
    if not np.isfinite(top):
        raise DegenerateCountsError.vanishing(counts.k0, counts.k1)
    return np.exp(logw - top), top


def _continued(
    state0: StateVector, c: DiagonalHamiltonian
) -> Callable[[OutcomeCounts], tuple[np.ndarray, float, float]]:
    """The closed form from state0 up to its normalisation, as a function of
    the counts: the modulated amplitudes, their norm and the state's log-norm.

    The support checks and the cos and sin of each cost level (c.levels)
    that state0's support reaches run once, here.  Per counts, amplitudes
    are modulated by cos^k0(c + pi/4) * sin^k1(c + pi/4), the
    anchored_weights of those levels: off-support cost values, which may fall
    outside [0, pi/4], would otherwise poison the state with NaNs despite
    carrying zero amplitude.  The level weights are applied by _scaled, with
    no 2**n weight table, into a fresh array the caller owns.  Where their
    squares underflow, they are first scaled by an exact power of two, which
    norm includes and log_norm, the log of the norm before it, corrects.
    """
    support, hit = _checked_support(state0, c)
    if not support.any():
        raise DegenerateCountsError("state has empty support")
    off = None if support.all() else ~support
    values, level = c.levels
    angle = np.clip(values[hit], 0.0, math.pi / 4) + math.pi / 4
    cos, sin = np.cos(angle), np.sin(angle)

    def at(counts: OutcomeCounts) -> tuple[np.ndarray, float, float]:
        weight = np.zeros(values.size)
        weight[hit], top = anchored_weights(cos, sin, counts)
        amps = _scaled(state0.amps, weight, level)
        if off is not None:
            amps[off] = 0.0  # +0 off the support, whatever zeros state0 holds there
        norm = np.linalg.norm(amps)
        shift = 0
        if norm < 2.0**-500:  # the squares underflow: bring the largest entry into [1/2, 1)
            parts = amps.view(np.float64)
            shift = -math.frexp(float(np.abs(amps).max()))[1]
            np.ldexp(parts, shift, out=parts)
            norm = math.sqrt(np.sum(parts * parts))
        return amps, norm, float(top + np.log(norm)) - shift * math.log(2.0)

    return at


def continuation(
    state0: StateVector, c: DiagonalHamiltonian
) -> Callable[[OutcomeCounts], tuple[StateVector, float]]:
    """The closed form from state0 as a function of the counts: the state after
    k0 failures and k1 successes, on state0's basis, and its log-norm.  The
    amplitudes of _continued are normalised with the bits of a division."""
    continued = _continued(state0, c)

    def at(counts: OutcomeCounts) -> tuple[StateVector, float]:
        amps, norm, log_norm = continued(counts)
        # amps /= norm, bit for bit: numpy divides (re, im) by a real norm as
        # ((re + im*0) * s, (im - re*0) * s) with s = 1/norm.  Adding a signed
        # zero leaves every part but -0 as it is, so the additions run only on
        # the entries holding a -0 part, before every part is scaled.
        parts = amps.view(np.float64).reshape(-1, 2)  # one (re, im) row per entry
        rows = np.flatnonzero(parts.view(np.int64) == _NEG_ZERO) >> 1
        re, im = parts[rows, 0], parts[rows, 1]
        parts[rows, 0] = re + im * 0.0
        parts[rows, 1] = im - re * 0.0
        parts *= 1.0 / norm
        return StateVector._own(state0.n, amps, state0.basis), log_norm

    return at


def continued_expectation(
    state0: StateVector, c: DiagonalHamiltonian, h: DiagonalHamiltonian
) -> Callable[[OutcomeCounts], float]:
    """<h> as a function of the counts, with the bits expectation reads off
    the state continuation(state0, c) gives, but no state built: _expect
    scales the amplitudes of _continued by 1/norm block by block, and |.|^2
    ignores the signed zeros continuation fixes.  h shares state0's basis."""
    continued = _continued(state0, c)
    _check_basis(state0, h, "Hamiltonian")

    def at(counts: OutcomeCounts) -> float:
        amps, norm, _ = continued(counts)
        return _expect(amps, h.values, 1.0 / norm)

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
