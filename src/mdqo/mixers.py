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

import numpy as np

from .errors import CapacityError
from .problems import DiagonalHamiltonian, Graph, _check_capacity
from .statevector import (
    StateVector,
    _rotate,
    _rotate_pairs,
    apply_diagonal_phase,
    apply_x_rotation_all,
    basis_state,
    expectation,
    uniform_superposition,
)

TRANSVERSE_FIELD = "transverse-field"
MIS_CONTROLLED = "mis-controlled"
# Cap on resolution * max(resolution, 2**n).  It bounds the depth-1 grid
# search's resolution**2 closed-form screen (a tracemalloc peak of 256 MiB at
# resolution 4096) and, for a constant cost, where every point is a
# candidate, its resolution**2 dense scorings.  Each scoring builds one 2**n
# state; the search holds a few at a time (64 MiB at n = 20, resolution 16).
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
    if state.basis is not None and (pairs := subspace_pairs(spec, state)):
        amps = _rotate_pairs(state.amps.copy(), pairs, spec.chi)
        return StateVector._own(state.n, amps, state.basis)
    graph = spec.graph if spec.kind == MIS_CONTROLLED else Graph(state.n, ())  # no controls
    if graph.n != state.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, graph n={graph.n}")
    amps = _rotate(state.amps.copy(), [(u, graph.neighbors(u)) for u in range(graph.n)], spec.chi)
    return StateVector._own(state.n, amps, state.basis)


def subspace_pairs(spec: MixerSpec, state: StateVector) -> tuple[np.ndarray, ...]:
    """The mixer's index pairs on the state's basis; ValueError if it leaves the basis.

    The basis must be the independent sets of the mixer's graph.  A
    transverse-field mixer keeps only the full basis and needs no pairs.
    """
    if spec.kind == TRANSVERSE_FIELD:
        if state.basis.size != 2**state.n:
            raise ValueError(
                "a transverse-field mixer puts amplitude on infeasible strings, "
                "so it cannot scramble feasible-subspace MIS"
            )
        return ()
    graph = spec.graph
    if graph.n != state.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, graph n={graph.n}")
    basis = graph.subspace.basis
    if state.basis is not basis and not np.array_equal(state.basis, basis):
        raise ValueError("the state's basis is not the independent sets of the mixer's graph")
    return graph.mixer_pairs


def feasible_initial_state(
    graph: Graph, chi0: float, basis: np.ndarray | None = None
) -> StateVector:
    """Feasible-supported state from |0...0> via one mis-controlled mixer pass,
    dense or, given basis = graph.subspace.basis, on that basis."""
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
    """CapacityError when the depth-1 grid's resolution * max(resolution, 2**n)
    passes GRID_CAP, which bounds its resolution**2 screen and dense scorings."""
    size = resolution * max(resolution, 2**n)
    if size > GRID_CAP:
        raise CapacityError(
            f"the depth-1 grid at n={n} and resolution {resolution} needs "
            f"resolution * max(resolution, 2**n) = {size}, past the grid cap of {GRID_CAP}"
        )


def ising_grid(h: DiagonalHamiltonian, angles: list[float]) -> tuple[np.ndarray, float]:
    """Closed-form depth-1 <H> on the (gamma, beta) grid of `angles`, and the screen's tolerance.

    An in-place Walsh-Hadamard transform writes h = sum_S c_S prod_{u in S} z_u
    (z = 1 - 2x).  The grid is exact for the terms of at most two bits: c0 =
    c[0], fields h_u = c[1 << u] and couplings J_uv = c[(1 << u) | (1 << v)].
    With g = 2 gamma (Ozaeta, van Dam & McMahon, arXiv:2012.03421; for MaxCut
    Wang, Hadfield, Jiang & Rieffel, PRA 97, 022304 (2018)),

        <Z_u> = sin2b sin(g h_u) prod_{w != u} cos(g J_uw),
        <Z_u Z_v> = sin4b / 2 sin(g J_uv) [cos(g h_u) prod_w cos(g J_uw) + (u <-> v)]
            + sin^2 2b / 2 [cos(g (h_u - h_v)) prod_w cos(g (J_uw - J_vw))
                            - cos(g (h_u + h_v)) prod_w cos(g (J_uw + J_vw))],

    the last three products over w != u, v.  So the grid is c0 + A(gamma)
    sin2b + B(gamma) sin4b / 2 + C(gamma) sin^2 2b / 2, built by broadcasting:
    no BLAS call, and no 2**n array past the transform.  tol = 2R + 1e-9 (1 +
    W) + 1e-14 (W + R)**2, where W and R sum |c_S| over the terms of at most
    two and of three or more bits; optimize_qaoa1 says why that suffices.
    """
    n = h.n
    c = h.values.copy()
    for k in range(n):
        pair = c.reshape(-1, 2, 2**k)
        low = pair[:, 0].copy()
        pair[:, 0] += pair[:, 1]
        np.subtract(low, pair[:, 1], out=pair[:, 1])
    c *= 0.5**n
    bit = 1 << np.arange(n)
    fields = c[bit]
    coupling = c[bit[:, None] | bit]
    np.fill_diagonal(coupling, 0.0)
    u, v = np.nonzero(np.triu(coupling))
    juv = coupling[u, v]
    low_order = abs(c[0]) + np.abs(fields).sum() + np.abs(juv).sum()
    total = np.abs(c).sum()
    tol = 2 * max(total - low_order, 0.0) + 1e-9 * (1 + low_order) + 1e-14 * total**2

    g = 2 * np.array(angles)
    rows = np.arange(u.size)
    ju, jv = coupling[u], coupling[v]  # each pair's rows, without J_uv
    ju[rows, v] = 0.0
    jv[rows, u] = 0.0

    def trig(f, x: np.ndarray) -> np.ndarray:
        return f(np.multiply.outer(g, x))

    def cos_prod(x: np.ndarray) -> np.ndarray:
        return trig(np.cos, x).prod(axis=-1)

    a_g = (fields * trig(np.sin, fields) * cos_prod(coupling)).sum(axis=1)
    b_g = (juv * trig(np.sin, juv) * (
        trig(np.cos, fields[u]) * cos_prod(ju) + trig(np.cos, fields[v]) * cos_prod(jv)
    )).sum(axis=1)
    c_g = (juv * (
        trig(np.cos, fields[u] - fields[v]) * cos_prod(ju - jv)
        - trig(np.cos, fields[u] + fields[v]) * cos_prod(ju + jv)
    )).sum(axis=1)
    s2 = np.sin(g)  # sin 2b: both axes take the same angles, so g doubles beta too
    grid = np.multiply.outer(a_g, s2)
    grid += np.multiply.outer(b_g, np.sin(2 * g) / 2)
    grid += np.multiply.outer(c_g, s2**2 / 2)
    grid += c[0]
    return grid, tol


def optimize_qaoa1(h: DiagonalHamiltonian, grid_resolution: int = 256) -> AnsatzParams:
    """Exhaustive grid search for the depth-1 angles maximizing <H>.

    Both angles range over [0, pi) with `grid_resolution` points.  The result
    is the first gamma-major maximum, as np.argmax picks it, of the dense grid
    expectation(qaoa1_state(h, AnsatzParams(gamma, beta)), h), which is never
    built: ising_grid screens the grid in O(res (n**2 + pairs n) + res**2),
    and only the candidates, the points within tol of the screen's maximum
    (every point when the screen is not finite), are scored densely.

    The screen keeps every dense maximizer while the closed form and the
    dense value differ by at most tol / 2 everywhere: a maximizer then reads
    at least the dense maximum less tol / 2 in closed form, hence at least
    the closed-form maximum less tol.  Terms of three or more bits open that
    gap by up to R, so they only widen the screen.  Rounding opens it by far
    less than 1e-9 (1 + W), except that each phase gamma h(x), up to
    pi (W + R), rounds by a relative 2**-53, which moves both values by
    O(2**-53 (W + R)**2).  The 1e-14 term covers that: with penalty weight
    1e8 on an 8-vertex graph the gap is 9.6, tol / 2 is 4050, and the 1e-9
    term alone would give 0.45.  A constant cost makes every point a
    candidate; GRID_CAP bounds that case.

    Among bitwise-equal values the smallest (gamma, beta) wins.  Ties in
    exact arithmetic are left to rounding: for MaxCut <H> is the same at
    beta and beta + pi/2, so either twin may win.  On
    configs/postprocess.json the search returns indices (49, 155), and its
    twin (49, 27) reads 2.7e-15 lower.
    """
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be at least 2")
    check_grid_size(h.n, grid_resolution)
    _check_capacity(h.n)
    if h.values.size != 2**h.n:
        raise ValueError("optimize_qaoa1 needs a dense cost, not one on a basis")
    if h.basis is not None:  # every string in order, e.g. an edgeless graph's sets
        h = DiagonalHamiltonian(h.n, h.values)
    angles = (math.pi * np.arange(grid_resolution) / grid_resolution).tolist()
    grid, tol = ising_grid(h, angles)
    candidates = np.flatnonzero(~(grid < grid.max() - tol))  # a NaN keeps every point

    def point(k) -> AnsatzParams:
        gi, bi = divmod(int(k), grid_resolution)
        return AnsatzParams(angles[gi], angles[bi])

    values = np.fromiter(
        (expectation(qaoa1_state(h, point(k)), h) for k in candidates), float, candidates.size
    )
    return point(candidates[np.argmax(values)])
