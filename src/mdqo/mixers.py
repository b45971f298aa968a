"""Scrambling mixers, the depth-1 ansatz, and feasible-state preparation.

Two mixer families: a transverse-field rotation on every qubit, and a
feasibility-preserving variant for independent-set problems where each
vertex rotation is controlled on its whole neighborhood being unoccupied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .problems import Graph, DiagonalHamiltonian
from .statevector import (
    StateVector,
    _rotate,
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
    contract.  All rotations act in place on one copy of the amplitudes.
    """
    if spec.kind == TRANSVERSE_FIELD:
        return apply_x_rotation_all(state, spec.chi)
    graph = spec.graph
    assert graph is not None
    if graph.n != state.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, graph n={graph.n}")
    amps = _rotate(state.amps.copy(), [(u, graph.neighbors(u)) for u in range(graph.n)], spec.chi)
    return StateVector._own(state.n, amps)


def feasible_initial_state(graph: Graph, chi0: float) -> StateVector:
    """Feasible-supported state from |0...0> via one mis-controlled mixer pass."""
    spec = MixerSpec(MIS_CONTROLLED, chi0, graph)
    return apply_mixer(basis_state(graph.n, 0), spec)


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
    angles = (math.pi * np.arange(grid_resolution) / grid_resolution).tolist()
    flat = uniform_superposition(h.n).amps
    phased = np.array([flat * np.exp(-1j * gamma * h.values) for gamma in angles])
    values = np.empty((grid_resolution, grid_resolution))
    for j, beta in enumerate(angles):
        batch = _rotate(phased.copy(), [(u, ()) for u in range(h.n)], beta)
        values[:, j] = np.sum(np.abs(batch) ** 2 * h.values, axis=1)
    gi, bi = np.unravel_index(int(np.argmax(values)), values.shape)
    return AnsatzParams(gamma=angles[gi], beta=angles[bi])
