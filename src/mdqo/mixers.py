"""Scrambling mixers, the depth-1 ansatz, and feasible-state preparation.

Two mixer families: a transverse-field rotation on every qubit, and a
feasibility-preserving variant for independent-set problems where each
vertex rotation is controlled on its whole neighborhood being unoccupied.
Both act on dense states; on a state that lives on the independent sets,
the feasibility-preserving one pairs each set S with S | {u} by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .problems import DiagonalHamiltonian, Graph, independent_sets
from .statevector import (
    StateVector,
    _check_dense,
    _rotate,
    _rotate_pairs,
    apply_diagonal_phase,
    apply_x_rotation_all,
    basis_state,
    uniform_superposition,
)

TRANSVERSE_FIELD = "transverse-field"
MIS_CONTROLLED = "mis-controlled"
# Cap on resolution * max(resolution, 2**n): the grid's value table stays under
# 128 MiB and each copy of its phase batch under 256 MiB.
GRID_CAP = 2**24


@dataclass(frozen=True)
class MixerSpec:
    """Mixer family, rotation parameter chi, and (for MIS_CONTROLLED) the graph."""

    kind: str
    chi: float
    graph: Graph | None = None

    def __post_init__(self) -> None:
        if self.kind not in (TRANSVERSE_FIELD, MIS_CONTROLLED):
            raise ValueError(f"unknown mixer kind {self.kind!r}")
        if not math.isfinite(self.chi):
            raise ValueError("chi must be finite")
        if self.kind == MIS_CONTROLLED and self.graph is None:
            raise ValueError("mis-controlled mixer requires a graph")


@dataclass(frozen=True)
class AnsatzParams:
    """Depth-1 ansatz angles."""

    gamma: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and math.isfinite(self.beta)):
            raise ValueError("ansatz angles must be finite")


def apply_mixer(state: StateVector, spec: MixerSpec) -> StateVector:
    """Apply the mixer unitary once.

    TRANSVERSE_FIELD rotates every qubit by chi.  MIS_CONTROLLED applies, in
    ascending vertex order, an X rotation on each vertex controlled on all its
    neighbors being 0; the factors do not commute, so the order is part of the
    contract.  All rotations act in place on one copy of the amplitudes.  A
    state on a basis takes the mixer whose graph's independent sets that
    basis holds (see subspace_pairs), with the bytes the dense mixer gives
    those entries.
    """
    if state.basis is not None:
        amps = _rotate_pairs(state.amps.copy(), subspace_pairs(spec, state), spec.chi)
        return StateVector._own(state.n, amps, state.basis)
    if spec.kind == TRANSVERSE_FIELD:
        return apply_x_rotation_all(state, spec.chi)
    graph = spec.graph
    assert graph is not None
    if graph.n != state.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, graph n={graph.n}")
    amps = _rotate(state.amps.copy(), [(u, graph.neighbors(u)) for u in range(graph.n)], spec.chi)
    return StateVector._own(state.n, amps)


def subspace_pairs(spec: MixerSpec, state: StateVector) -> tuple[np.ndarray, ...]:
    """The mixer's index pairs on the state's basis; ValueError if it leaves the basis.

    The basis must be the independent sets of the mixer's graph; a
    transverse-field mixer keeps only the full basis of an edgeless graph.
    """
    if spec.kind == TRANSVERSE_FIELD:
        if state.basis.size != 2**state.n:
            raise ValueError(
                "a transverse-field mixer puts amplitude on infeasible strings, "
                "so it cannot scramble feasible-subspace MIS"
            )
        graph = Graph(state.n, ())
    else:
        graph = spec.graph
        if graph.n != state.n:
            raise ValueError(f"dimension mismatch: state n={state.n}, graph n={graph.n}")
    basis = independent_sets(graph)
    if state.basis is not basis and not np.array_equal(state.basis, basis):
        raise ValueError("the state's basis is not the independent sets of the mixer's graph")
    return _pairs(graph)


@lru_cache(maxsize=1)  # as subspace_cost
def _pairs(graph: Graph) -> tuple[np.ndarray, ...]:
    """Per vertex u in ascending order, the positions in independent_sets(graph)
    of every set S free of u and its neighbours, then those of each S | {u}:
    the pairs the controlled rotation on u mixes."""
    basis = independent_sets(graph)
    pairs = []
    for u in range(graph.n):
        i0 = np.flatnonzero((basis & sum(1 << v for v in (u, *graph.neighbors(u)))) == 0)
        pairs.append(np.concatenate((i0, np.searchsorted(basis, basis[i0] | (1 << u)))))
    return tuple(pairs)


def feasible_initial_state(
    graph: Graph, chi0: float, basis: np.ndarray | None = None
) -> StateVector:
    """Feasible-supported state from |0...0> via one mis-controlled mixer pass,
    dense or, given basis = independent_sets(graph), on that basis."""
    spec = MixerSpec(MIS_CONTROLLED, chi0, graph)
    return apply_mixer(basis_state(graph.n, 0, basis), spec)


def qaoa1_state(h: DiagonalHamiltonian, params: AnsatzParams) -> StateVector:
    """Depth-1 ansatz: mixing rotation after the cost phase on the flat state.

    The cost phase acts first so that beta is not a global phase:
    exp(-i beta sum_u X_u) . exp(-i gamma H) |+>^n.
    """
    state = uniform_superposition(h.n)
    state = apply_diagonal_phase(state, h, params.gamma)
    return apply_x_rotation_all(state, params.beta)


def check_grid_size(n: int, resolution: int) -> None:
    """CapacityError when the depth-1 grid's resolution * max(resolution, 2**n) passes GRID_CAP."""
    size = resolution * max(resolution, 2**n)
    if size > GRID_CAP:
        raise CapacityError(
            f"the depth-1 grid at n={n} and resolution {resolution} needs "
            f"resolution * max(resolution, 2**n) = {size}, past the grid cap of {GRID_CAP}"
        )


def optimize_qaoa1(h: DiagonalHamiltonian, grid_resolution: int = 256) -> AnsatzParams:
    """Exhaustive grid search for the depth-1 angles maximizing <H>.

    Both angles range over [0, pi) with `grid_resolution` points.  Each grid
    value is expectation(qaoa1_state(h, AnsatzParams(gamma, beta)), h) bit for
    bit: the batch of phased states, one row per gamma, is built, rotated and
    summed with the same arithmetic.  Among bitwise-equal grid values the
    smallest (gamma, beta) wins.  Ties in exact arithmetic are left to
    rounding: for MaxCut <H> is the same at beta and beta + pi/2, so either
    twin may win.  On configs/postprocess.json the search returns indices
    (49, 155), and its twin (49, 27) reads 2.7e-15 lower.
    """
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be at least 2")
    check_grid_size(h.n, grid_resolution)
    flat = uniform_superposition(h.n)
    _check_dense(flat, "optimize_qaoa1", h)
    angles = (math.pi * np.arange(grid_resolution) / grid_resolution).tolist()
    phased = np.array([flat.amps * np.exp(-1j * gamma * h.values) for gamma in angles])
    values = np.empty((grid_resolution, grid_resolution))
    for j, beta in enumerate(angles):
        batch = _rotate(phased.copy(), [(u, ()) for u in range(h.n)], beta)
        values[:, j] = np.sum(np.abs(batch) ** 2 * h.values, axis=1)
    gi, bi = np.unravel_index(int(np.argmax(values)), values.shape)
    return AnsatzParams(gamma=angles[gi], beta=angles[bi])
