"""Scrambling mixers, the depth-1 ansatz, and feasible-state preparation.

Two mixer families: a transverse-field rotation on every qubit, and a
feasibility-preserving variant for independent-set problems where each
vertex rotation is controlled on its whole neighborhood being unoccupied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    return _rotate(state, [(u, graph.neighbors(u)) for u in range(graph.n)], spec.chi)


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


def optimize_qaoa1(h: DiagonalHamiltonian, grid_resolution: int = 256) -> AnsatzParams:
    """Exhaustive grid search for the depth-1 angles maximizing <H>.

    Both angles range over [0, pi) with `grid_resolution` points; ties are
    broken by the lexicographically smallest (gamma, beta).
    """
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be at least 2")
    dim = 2**h.n
    gammas = math.pi * np.arange(grid_resolution) / grid_resolution
    betas = math.pi * np.arange(grid_resolution) / grid_resolution
    # rows: gamma index; columns: basis index
    phase_states = np.exp(-1j * np.outer(gammas, h.values)) / math.sqrt(dim)
    values = np.empty((grid_resolution, grid_resolution))
    for j, beta in enumerate(betas):
        u1 = np.array(
            [
                [math.cos(beta), -1j * math.sin(beta)],
                [-1j * math.sin(beta), math.cos(beta)],
            ]
        )
        u = u1
        for _ in range(h.n - 1):
            u = np.kron(u, u1)
        mixed = phase_states @ u.T
        values[:, j] = np.abs(mixed) ** 2 @ h.values
    gi, bi = np.unravel_index(int(np.argmax(values)), values.shape)
    return AnsatzParams(gamma=float(gammas[gi]), beta=float(betas[bi]))
