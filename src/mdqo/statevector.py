"""n-qubit statevector with diagonal phases, X rotations, and cost statistics.

Basis index x encodes the assignment via bit u of x = x_u (see problems.py).
A state is dense, or lives on a sorted basis of indices (the independent
sets of feasible-subspace MIS); the phase, rotation and distribution
functions here take dense states, expectation and the mixers both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .problems import DiagonalHamiltonian, _check_capacity, _checked_basis

NORM_TOL = 1e-10
GROUP_TOL = 1e-9  # tolerance when grouping probabilities by cost value
# Entries (rotation pairs in _rotate) per block of the passes that would
# otherwise make 2**n temporaries: 128 KiB of float64 stays in cache.  A power
# of two, so a rotation block is whole trailing axes of the (2,) * n view.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes with unit norm: 2**n of them, one per basis index, or
    one per entry of `basis`, a sorted int64 array of basis indices."""

    n: int
    amps: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self) -> None:
        basis = None if self.basis is None else _checked_basis(self.n, self.basis)
        self._adopt(self.n, np.array(self.amps, dtype=np.complex128, copy=True), basis)

    @classmethod
    def _own(cls, n: int, amps: np.ndarray, basis: np.ndarray | None = None) -> StateVector:
        """Wrap complex128 amplitudes that internal code has just built and hands over: no copy."""
        return object.__new__(cls)._adopt(n, amps, basis)

    def _adopt(self, n: int, amps: np.ndarray, basis: np.ndarray | None) -> StateVector:
        """Check amps and make them, read-only and uncopied, this state's amplitudes."""
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", basis)
        size = 2**n if basis is None else basis.size
        if amps.dtype != np.complex128:
            raise ValueError(f"expected complex128 amplitudes, got {amps.dtype}")
        if amps.shape != (size,):
            raise ValueError(f"expected {size} amplitudes for n={self.n}, got shape {amps.shape}")
        flat = amps.view(np.float64)  # einsum's own loop, not a threaded BLAS dot
        norm = math.sqrt(float(np.einsum("i,i->", flat, flat)))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        return self

    def probabilities(self) -> np.ndarray:
        weights = np.abs(self.amps)
        return np.square(weights, out=weights)


def uniform_superposition(n: int, basis: np.ndarray | None = None) -> StateVector:
    """The flat state: equal real amplitudes on all 2**n indices (|+>^n) or on basis."""
    if basis is None:
        _check_capacity(n)
    dim = 2**n if basis is None else basis.size
    return StateVector(n, np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128), basis)


def basis_state(n: int, x: int, basis: np.ndarray | None = None) -> StateVector:
    """Computational basis state |x>, dense or on a basis that holds x."""
    if basis is None:
        _check_capacity(n)
        if not 0 <= x < 2**n:
            raise ValueError(f"basis index {x} out of range for n={n}")
        i, size = x, 2**n
    else:
        i, size = int(np.searchsorted(basis, x)), basis.size
        if i == size or basis[i] != x:
            raise ValueError(f"basis index {x} is not in the basis")
    amps = np.zeros(size, dtype=np.complex128)
    amps[i] = 1.0
    return StateVector(n, amps, basis)


def index_to_bitstring(x: int, n: int) -> str:
    """Render a basis index as x_0 x_1 ... x_{n-1} left to right."""
    return "".join(str((x >> u) & 1) for u in range(n))


def bitstring_to_index(bits: str) -> int:
    """Inverse of index_to_bitstring."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"not a bitstring: {bits!r}")
    return sum((b == "1") << u for u, b in enumerate(bits))


def _check_dense(state: StateVector, what: str, h: DiagonalHamiltonian | None = None) -> None:
    """ValueError, before any reshape, unless the state is dense (and h too, with its n)."""
    if state.basis is not None:
        raise ValueError(f"{what} needs a dense state, not one on a basis")
    if h is not None and h.n != state.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, Hamiltonian n={h.n}")
    if h is not None and h.values.size != 2**h.n:
        raise ValueError(f"{what} needs a dense cost, not one on a basis")


def _check_basis(state: StateVector, h: DiagonalHamiltonian, name: str) -> None:
    """ValueError unless the state and the table h have one qubit count and one basis."""
    if h.n != state.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, {name} n={h.n}")
    if h.basis is not state.basis and not np.array_equal(h.basis, state.basis):
        raise ValueError(f"basis mismatch: the state and the {name} live on different bases")


def _scaled(amps: np.ndarray, factor: np.ndarray, level: np.ndarray) -> np.ndarray:
    """amps * factor[level] in one fresh array, gathered and multiplied _BLOCK
    entries at a time: no 2**n gather and no 2**n intp copy of a narrow level index."""
    out = np.empty_like(amps)
    for start in range(0, amps.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        np.multiply(amps[block], factor.take(level[block]), out=out[block])
    return out


def apply_diagonal_phase(state: StateVector, h: DiagonalHamiltonian, gamma: float) -> StateVector:
    """Multiply amplitudes by exp(-i * gamma * h(x))."""
    _check_dense(state, "apply_diagonal_phase", h)
    return StateVector(state.n, state.amps * np.exp(-1j * gamma * h.values))


def _rotate(
    amps: np.ndarray, targets: list[tuple[int, tuple[int, ...]]], chi: float
) -> np.ndarray:
    """Rotate amps in place by chi, one (u, controls) target at a time, and return it.

    amps is 1-d C-contiguous complex128 with 2**n entries.  Target qubit u's
    pairs are mixed only where every control bit is 0.  Bit u is axis n-1-u
    of amps viewed as (2,) * n: basic slicing fixes each control axis to 0
    and splits the target axis, and the leading Ellipsis keeps a 0-d view
    when every other qubit is a control.  Each half is worked through in
    blocks of at most _BLOCK pairs, one per value of its leading axes, and
    the trailing Ellipsis keeps a 0-d block a view.  A block's halves are
    copied into contiguous buffers one block long, reused for every block
    and target, and mixed by _mix.
    Contiguous operands keep numpy on one inner loop whatever the view's
    strides, so the bytes match the plain expression; the buffers stay in
    cache and spare a 2**(n-1) temporary, and its page faults, per target.
    """
    n = amps.size.bit_length() - 1
    c, js = math.cos(chi), 1j * math.sin(chi)
    tensor = amps.reshape((2,) * n)
    width = _BLOCK.bit_length() - 1  # trailing axes per block
    size = min(max(2 ** (n - 1 - len(set(ctl))) for _, ctl in targets), _BLOCK)
    buffers = np.empty((2, 2 * size), dtype=np.complex128)
    for u, controls in targets:
        idx: list = [slice(None)] * n
        for ctl in controls:
            idx[n - 1 - ctl] = 0
        idx[n - 1 - u] = 0
        view0 = tensor[(..., *idx)]
        idx[n - 1 - u] = 1
        view1 = tensor[(..., *idx)]
        for lead in itertools.product((0, 1), repeat=max(view0.ndim - width, 0)):
            half0, half1 = view0[(*lead, ...)], view1[(*lead, ...)]
            a, t = (b[: 2 * half0.size].reshape((2, *half0.shape)) for b in buffers)
            np.copyto(a[0, ...], half0)  # a[0, ...] stays a view when half0 is 0-d
            np.copyto(a[1, ...], half1)
            _mix(c, js, a, t, half0, half1)
    return amps


def _rotate_pairs(amps: np.ndarray, pairs: tuple[np.ndarray, ...], chi: float) -> np.ndarray:
    """Rotate 1-d amps in place by chi, one array of index pairs at a time, and return it.

    An array holds the positions i0 and then their partners i1: entry i0[k]
    mixes with i1[k].  Both halves are gathered into one contiguous array,
    mixed by _mix as _rotate mixes its views and scattered back, so each
    pair gets the bytes _rotate gives it.
    """
    c, js = math.cos(chi), 1j * math.sin(chi)
    for index in pairs:
        a = amps[index].reshape(2, -1)
        t = np.empty_like(a)
        _mix(c, js, a, t, t[0], t[1])
        amps[index] = t.ravel()
    return amps


def _mix(c: float, js: complex, a: np.ndarray, t: np.ndarray, out0, out1) -> None:
    """The one pair rotation by chi of the halves a[0] = a0 and a[1] = a1, with
    c = cos(chi) and js = 1j*sin(chi): out0 = c*a0 - js*a1, out1 = c*a1 - js*a0.

    The products of both halves are taken at once, into t and then over a;
    the outputs may be t's halves.  Every product has one zero factor part,
    so it rounds once whatever loop numpy picks.
    """
    np.multiply(c, a, out=t)
    np.multiply(js, a, out=a)
    np.subtract(t[0, ...], a[1, ...], out=out0)
    np.subtract(t[1, ...], a[0, ...], out=out1)


def apply_x_rotation_all(state: StateVector, beta: float) -> StateVector:
    """Apply the uniform single-qubit X rotation exp(-i * beta * X) to every qubit."""
    _check_dense(state, "apply_x_rotation_all")
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
    _check_dense(state, "apply_controlled_x_rotation")
    if u in controls:
        raise ValueError(f"target qubit {u} appears among its own controls")
    if not 0 <= u < state.n:
        raise ValueError(f"target qubit {u} out of range for n={state.n}")
    for ctl in controls:
        if not 0 <= ctl < state.n:
            raise ValueError(f"control qubit {ctl} out of range for n={state.n}")
    return StateVector._own(state.n, _rotate(state.amps.copy(), [(u, controls)], chi))


def expectation(state: StateVector, h: DiagonalHamiltonian) -> float:
    """Cost expectation sum_x |amps[x]|^2 * h(x) over the basis the state and h share."""
    _check_basis(state, h, "Hamiltonian")
    return _expect(state.amps, h.values, 1.0)


def _expect(amps: np.ndarray, values: np.ndarray, scale: float) -> float:
    """sum_x |amps[x] * scale|^2 * values[x], with the bits of scaling the
    (re, im) parts by the real scale and summing probabilities() * values:
    _BLOCK entries at a time through one buffer into one weights array, as
    elementwise ufuncs give the same bits blocked or not, and one np.sum."""
    parts, weights = amps.view(np.float64), np.empty(amps.size)
    buffer = np.empty(2 * min(amps.size, _BLOCK))
    for start in range(0, amps.size, _BLOCK):
        block = weights[start : start + _BLOCK]
        scaled = buffer[: 2 * block.size]
        np.multiply(parts[2 * start : 2 * start + scaled.size], scale, out=scaled)
        np.square(np.abs(scaled.view(np.complex128), out=block), out=block)
        block *= values[start : start + block.size]
    return float(np.sum(weights))


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
    """The level_distribution of |amps|^2 summed on each level of the dense cost h."""
    _check_dense(state, "cost_distribution", h)
    values, level = h.levels
    return level_distribution(values, np.bincount(level, weights=state.probabilities()))


def level_distribution(values: np.ndarray, weights: np.ndarray) -> CostDistribution:
    """Merge runs of the sorted level values within GROUP_TOL and sum their weights:
    each run sits at its smallest value, zero weight included, so all weightings of
    one table share a support; mean and variance are the grouped distribution's."""
    starts = np.concatenate(([0], np.flatnonzero(np.diff(values) > GROUP_TOL) + 1))
    support = values[starts]
    grouped = np.add.reduceat(weights, starts)
    mean = float(np.sum(grouped * support))
    variance = float(np.sum(grouped * support**2) - mean**2)
    return CostDistribution(support=support, probs=grouped, mean=mean, variance=variance)


def sample_bitstring(state: StateVector, rng: np.random.Generator) -> int:
    """Draw one basis index with probability |amps|^2 at its entry."""
    i = sample_index([state.probabilities()], rng)
    return i if state.basis is None else int(state.basis[i])


def sample_index(blocks, rng: np.random.Generator) -> int:
    """Draw one index with probability weights[x], using one uniform draw u.

    The weights, summing to 1 up to rounding, come in consecutive blocks
    that are consumed: each is summed in place after the total so far is
    added to its first entry, the additions of one cumsum over all weights
    in order, and the scan stops at the first block whose total exceeds u.
    The first entry that reaches the total S, which has positive weight,
    takes the rounding slack: when S falls below 1, a draw in [S, 1) returns it.
    """
    u = rng.random()
    carry, start, pin = 0.0, 0, 0
    for block in blocks:
        block[0] += carry
        cdf = np.cumsum(block, out=block)
        if cdf[-1] > u:
            return start + int(np.searchsorted(cdf, u, side="right"))
        if cdf[-1] > carry:  # this block raised the total: S is first reached here
            pin = start + int(np.searchsorted(cdf, cdf[-1]))
        carry = cdf[-1]
        start += cdf.size
    return pin
