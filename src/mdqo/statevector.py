"""Dense n-qubit statevector with diagonal phases, X rotations, and cost statistics.

Basis index x encodes the assignment via bit u of x = x_u (see problems.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import DiagonalHamiltonian, _check_capacity

NORM_TOL = 1e-10
GROUP_TOL = 1e-9  # tolerance when grouping probabilities by cost value


@dataclass(frozen=True)
class StateVector:
    """Length-2**n complex amplitude table with unit norm."""

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        self._adopt(self.n, np.array(self.amps, dtype=np.complex128, copy=True))

    @classmethod
    def _own(cls, n: int, amps: np.ndarray) -> StateVector:
        """Wrap complex128 amplitudes that internal code has just built and hands over: no copy."""
        return object.__new__(cls)._adopt(n, amps)

    def _adopt(self, n: int, amps: np.ndarray) -> StateVector:
        """Check amps and make them, read-only and uncopied, this state's amplitudes."""
        object.__setattr__(self, "n", n)
        if amps.dtype != np.complex128:
            raise ValueError(f"expected complex128 amplitudes, got {amps.dtype}")
        if amps.shape != (2**self.n,):
            raise ValueError(f"expected {2**self.n} amplitudes for n={self.n}, got shape {amps.shape}")
        flat = amps.view(np.float64)  # einsum's own loop, not a threaded BLAS dot
        norm = math.sqrt(float(np.einsum("i,i->", flat, flat)))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        return self

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def uniform_superposition(n: int) -> StateVector:
    """The flat state |+>^n: 2**n equal real amplitudes."""
    _check_capacity(n)
    dim = 2**n
    return StateVector(n, np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128))


def basis_state(n: int, x: int) -> StateVector:
    """Computational basis state |x>."""
    _check_capacity(n)
    if not 0 <= x < 2**n:
        raise ValueError(f"basis index {x} out of range for n={n}")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[x] = 1.0
    return StateVector(n, amps)


def index_to_bitstring(x: int, n: int) -> str:
    """Render a basis index as x_0 x_1 ... x_{n-1} left to right."""
    return "".join(str((x >> u) & 1) for u in range(n))


def bitstring_to_index(bits: str) -> int:
    """Inverse of index_to_bitstring."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"not a bitstring: {bits!r}")
    return sum((b == "1") << u for u, b in enumerate(bits))


def apply_diagonal_phase(state: StateVector, h: DiagonalHamiltonian, gamma: float) -> StateVector:
    """Multiply amplitudes by exp(-i * gamma * h(x))."""
    if h.n != state.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, Hamiltonian n={h.n}")
    return StateVector(state.n, state.amps * np.exp(-1j * gamma * h.values))


def _rotate(
    amps: np.ndarray, targets: list[tuple[int, tuple[int, ...]]], chi: float
) -> np.ndarray:
    """Rotate amps in place by chi, one (u, controls) target at a time, and return it.

    amps is C-contiguous complex128; its last axis holds 2**n amplitudes and
    any leading axes are a batch of states, rotated alike.  Target qubit u's
    pairs are mixed only where every control bit is 0.  After the batch axes
    bit u is axis n-1-u: basic slicing fixes each control axis to 0 and
    splits the target axis, and the leading Ellipsis keeps a 0-d view when
    every other qubit is a control.  Both halves are copied into four
    contiguous buffers reused for every target and mixed by the ufunc calls
    that c*a0 - 1j*s*a1 and c*a1 - 1j*s*a0 make, operands in the same order.
    Contiguous operands keep numpy on one inner loop whatever the view's
    strides, so each row's bytes match the plain expression; reused buffers
    spare a fresh 2**(n-1) temporary, and its page faults, per target.
    """
    n = amps.shape[-1].bit_length() - 1
    c, s = math.cos(chi), math.sin(chi)
    js = 1j * s
    tensor = amps.reshape(amps.shape[:-1] + (2,) * n)
    size = amps.size // 2**n * max(2 ** (n - 1 - len(set(ctl))) for _, ctl in targets)
    buffers = np.empty((4, size), dtype=np.complex128)
    for u, controls in targets:
        idx: list = [slice(None)] * n
        for ctl in controls:
            idx[n - 1 - ctl] = 0
        idx[n - 1 - u] = 0
        view0 = tensor[(..., *idx)]
        idx[n - 1 - u] = 1
        view1 = tensor[(..., *idx)]
        a0, a1, t0, t1 = (b[: view0.size].reshape(view0.shape) for b in buffers)
        np.copyto(a0, view0)
        np.copyto(a1, view1)
        np.multiply(c, a0, out=t0)
        np.multiply(js, a1, out=t1)
        np.subtract(t0, t1, out=view0)
        np.multiply(c, a1, out=t0)
        np.multiply(js, a0, out=t1)
        np.subtract(t0, t1, out=view1)
    return amps


def apply_x_rotation_all(state: StateVector, beta: float) -> StateVector:
    """Apply the uniform single-qubit X rotation exp(-i * beta * X) to every qubit."""
    amps = _rotate(state.amps.copy(), [(u, ()) for u in range(state.n)], beta)
    return StateVector._own(state.n, amps)


def apply_controlled_x_rotation(
    state: StateVector, u: int, controls: tuple[int, ...], chi: float
) -> StateVector:
    """X rotation on qubit u applied only where every control bit is 0.

    Index pairs (x, x with bit u set) are mixed by
    [[cos chi, -i sin chi], [-i sin chi, cos chi]] when all control bits of x
    vanish; all other amplitudes are untouched.
    """
    if u in controls:
        raise ValueError(f"target qubit {u} appears among its own controls")
    if not 0 <= u < state.n:
        raise ValueError(f"target qubit {u} out of range for n={state.n}")
    for ctl in controls:
        if not 0 <= ctl < state.n:
            raise ValueError(f"control qubit {ctl} out of range for n={state.n}")
    return StateVector._own(state.n, _rotate(state.amps.copy(), [(u, controls)], chi))


def expectation(state: StateVector, h: DiagonalHamiltonian) -> float:
    """Cost expectation sum_x |amps[x]|^2 * h(x)."""
    if h.n != state.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, Hamiltonian n={h.n}")
    return float(np.real(np.sum(state.probabilities() * h.values)))


@dataclass(frozen=True)
class CostDistribution:
    """Probability distribution over distinct cost values of a state."""

    support: np.ndarray
    probs: np.ndarray
    mean: float
    variance: float

    def __post_init__(self) -> None:
        support = np.array(self.support, dtype=np.float64, copy=True)
        probs = np.array(self.probs, dtype=np.float64, copy=True)
        if support.shape != probs.shape or support.ndim != 1:
            raise ValueError("support and probs must be 1-d arrays of equal length")
        if probs.min() < -NORM_TOL or abs(probs.sum() - 1.0) > NORM_TOL:
            raise ValueError("probs must be nonnegative and sum to 1")
        support.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    def prob_of(self, value: float) -> float:
        """p(l) for the support entry matching `value` (0 if absent)."""
        hits = np.flatnonzero(np.abs(self.support - value) <= GROUP_TOL)
        return float(self.probs[hits].sum())


def cost_distribution(state: StateVector, h: DiagonalHamiltonian) -> CostDistribution:
    """Group |amps|^2 by cost value (tolerance GROUP_TOL) and report mean/variance.

    Parameters
    ----------
    state : StateVector
    h : DiagonalHamiltonian
        Cost table over the same qubit count.

    Returns
    -------
    CostDistribution
        Sorted distinct cost values, their probabilities, and the first two
        moments computed from the grouped distribution.
    """
    if h.n != state.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, Hamiltonian n={h.n}")
    probs = state.probabilities()
    order = np.argsort(h.values, kind="stable")
    vals = h.values[order]
    p = probs[order]
    if vals.size == 0:
        raise ValueError("empty cost table")
    starts = np.concatenate(([0], np.flatnonzero(np.diff(vals) > GROUP_TOL) + 1))
    support = vals[starts]
    grouped = np.add.reduceat(p, starts)
    mean = float(np.sum(grouped * support))
    variance = float(np.sum(grouped * support**2) - mean**2)
    return CostDistribution(support=support, probs=grouped, mean=mean, variance=variance)


def sample_bitstring(state: StateVector, rng: np.random.Generator) -> int:
    """Draw one basis index with probability |amps[x]|^2."""
    return sample_index(state.probabilities(), rng)


def sample_index(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one index with probability weights[x], using one uniform draw.

    The weights must sum to 1 up to rounding; the cumulative sum is taken in
    index order and pinned to 1 from the first entry that reaches its total
    S, so that entry, which has positive weight, takes the rounding slack:
    when S falls below 1, a draw in [S, 1) returns it.
    """
    cdf = np.cumsum(weights)
    cdf[np.searchsorted(cdf, cdf[-1]):] = 1.0
    return int(np.searchsorted(cdf, rng.random(), side="right"))
