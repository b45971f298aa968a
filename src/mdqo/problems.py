"""Graphs, diagonal cost Hamiltonians, spectrum bounds, and the linear rescaling.

Basis convention used across the whole package: basis index x encodes the
variable assignment via bit u of x = x_u, i.e. x = sum_u x_u * 2**u (vertex 0
is the least significant bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DegenerateSpectrumError

# Largest qubit count for which dense 2**n tables are built, the size measured
# to run end to end on an 8 GiB machine; beyond this every constructor fails
# loudly instead of switching representations.
DENSE_CAP = 20

# Absolute tolerance for spectrum-bound validation.
BOUND_TOL = 1e-12


def _check_capacity(n: int) -> None:
    if n > DENSE_CAP:
        raise CapacityError(f"n={n} exceeds the dense-table cap of {DENSE_CAP} qubits")


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1; no self-loops, no duplicate edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        seen: set[tuple[int, int]] = set()
        norm = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{self.n - 1}")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        """Edge count."""
        return len(self.edges)

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Sorted neighbor ids of vertex u."""
        out = set()
        for a, b in self.edges:
            if a == u:
                out.add(b)
            elif b == u:
                out.add(a)
        return tuple(sorted(out))

    @classmethod
    def from_1indexed(cls, n: int, pairs) -> "Graph":
        """Build from 1-indexed vertex pairs (the input-file labeling)."""
        for u, v in pairs:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"1-indexed label out of range in edge ({u}, {v})")
        return cls(n, tuple((u - 1, v - 1) for u, v in pairs))


def parse_edge_list(text: str) -> Graph:
    """Parse a plain-text edge list.

    Format: one "u v" pair per line with 1-indexed vertex labels, '#' starts a
    comment, and an optional leading header "n <count>" declares the vertex
    count (otherwise the largest label seen is used).
    """
    n_declared = None
    pairs: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n" and n_declared is None and not pairs:
            if len(parts) != 2:
                raise ValueError(f"malformed header line: {raw!r}")
            n_declared = int(parts[1])
            continue
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {raw!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    if n_declared is None:
        if not pairs:
            raise ValueError("empty edge list and no 'n <count>' header")
        n_declared = max(max(u, v) for u, v in pairs)
    return Graph.from_1indexed(n_declared, pairs)


@dataclass(frozen=True)
class ProblemInstance:
    """A graph plus problem kind; penalty_weight is the MIS penalty multiplier."""

    graph: Graph
    kind: str  # "maxcut" | "mis"
    penalty_weight: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("maxcut", "mis"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.penalty_weight is not None:
            if self.kind != "mis":
                raise ValueError("penalty_weight applies to MIS instances only")
            if self.penalty_weight < 0:
                raise ValueError("penalty_weight must be nonnegative")


@dataclass(frozen=True)
class DiagonalHamiltonian:
    """Real cost value per basis index; dense table of length 2**n.

    coeff_bounds, when present, records structural spectrum bounds (s, t) with
    -s <= H <= t derived from the problem's coefficients rather than from
    enumeration.
    """

    n: int
    values: np.ndarray
    coeff_bounds: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.shape != (2**self.n,):
            raise ValueError(f"expected {2**self.n} values for n={self.n}, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("cost values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct values and each index's level in the smallest unsigned dtype.

        values[level] == self.values: exactly equal floats share a level, so a
        ufunc gives a level's value the bits it gives each entry.  Read-only.
        """
        values, level = np.unique(self.values, return_inverse=True)
        level = level.astype(np.min_scalar_type(values.size - 1))
        for table in (values, level):
            table.setflags(write=False)
        return values, level


def build_maxcut(graph: Graph) -> DiagonalHamiltonian:
    """Cut-counting cost: values[x] = number of edges with unequal endpoint bits."""
    _check_capacity(graph.n)
    idx = np.arange(2**graph.n, dtype=np.uint32)
    vals = np.zeros(2**graph.n, dtype=np.float64)
    for u, v in graph.edges:
        vals += ((idx >> u) ^ (idx >> v)) & 1
    return DiagonalHamiltonian(graph.n, vals, coeff_bounds=(0.0, float(graph.m)))


def build_mis(graph: Graph) -> tuple[DiagonalHamiltonian, DiagonalHamiltonian]:
    """Independent-set cost H (vertex count) and violation count P (edges inside the set)."""
    _check_capacity(graph.n)
    idx = np.arange(2**graph.n, dtype=np.uint32)
    occupancy = np.zeros(2**graph.n, dtype=np.float64)
    for u in range(graph.n):
        occupancy += (idx >> u) & 1
    violations = np.zeros(2**graph.n, dtype=np.float64)
    for u, v in graph.edges:
        violations += (idx >> u) & (idx >> v) & 1
    h = DiagonalHamiltonian(graph.n, occupancy, coeff_bounds=(0.0, float(graph.n)))
    p = DiagonalHamiltonian(graph.n, violations, coeff_bounds=(0.0, float(graph.m)))
    return h, p


def penalize(h: DiagonalHamiltonian, p: DiagonalHamiltonian, lam: float) -> DiagonalHamiltonian:
    """Penalized cost H - lam * P.

    Structural bounds follow the vertex/edge coefficient sums: t stays at H's
    upper bound and -s = min(0, t - lam * m), which is exact when the all-ones
    assignment minimizes the penalized cost.
    """
    if h.n != p.n:
        raise ValueError(f"dimension mismatch: H has n={h.n}, P has n={p.n}")
    if lam < 0:
        raise ValueError("penalty weight must be nonnegative")
    vals = h.values - lam * p.values
    cb = None
    if h.coeff_bounds is not None and p.coeff_bounds is not None and h.coeff_bounds[0] == 0.0:
        t = h.coeff_bounds[1]
        cb = (max(0.0, lam * p.coeff_bounds[1] - t), t)
    return DiagonalHamiltonian(h.n, vals, coeff_bounds=cb)


@dataclass(frozen=True)
class Bounds:
    """Spectrum bounds -s <= H <= t and how they were obtained."""

    s: float
    t: float
    mode: str  # "coefficient-sum" | "brute-force" | "user-supplied"


def spectrum_bounds(
    h: DiagonalHamiltonian,
    mode: str,
    support: np.ndarray | None = None,
    user: tuple[float, float] | None = None,
) -> Bounds:
    """Spectrum bounds in one of three modes.

    coefficient-sum reads the structural bounds recorded at construction;
    brute-force enumerates the dense table; user-supplied validates the given
    (s, t) against the table.  `support` optionally restricts enumeration and
    validation to a declared support (boolean mask over basis indices), e.g.
    the feasible subspace of a constrained instance.
    """
    if mode == "coefficient-sum":
        if h.coeff_bounds is None:
            raise ValueError("no structural coefficient bounds recorded for this Hamiltonian")
        s, t = h.coeff_bounds
        return Bounds(float(s), float(t), mode)
    vals = h.values if support is None else h.values[np.asarray(support)]
    if vals.size == 0:
        raise ValueError("empty support")
    lo, hi = float(vals.min()), float(vals.max())
    if mode == "brute-force":
        s = -lo
        if s == 0:
            s = 0.0
        return Bounds(s, hi, mode)
    if mode == "user-supplied":
        if user is None:
            raise ValueError("user-supplied mode requires explicit (s, t)")
        s, t = float(user[0]), float(user[1])
        if -s > lo + BOUND_TOL or t < hi - BOUND_TOL:
            raise ValueError(
                f"user bounds (-{s}, {t}) are violated by the spectrum [{lo}, {hi}]"
            )
        return Bounds(s, t, mode)
    raise ValueError(f"unknown bounds mode {mode!r}")


@dataclass(frozen=True)
class Rescaling:
    """Linear map c(x) = epsilon * (alpha + h(x)) taking the spectrum into [0, pi/4]."""

    alpha: float
    epsilon: float


def rescaling_from_bounds(bounds: Bounds) -> Rescaling:
    """alpha = s and epsilon = pi / (4 (s + t)); rejects degenerate spectra."""
    span = bounds.s + bounds.t
    if span <= 0:
        raise DegenerateSpectrumError(
            f"spectrum span s + t = {span} is not positive: constant cost function"
        )
    return Rescaling(alpha=float(bounds.s), epsilon=math.pi / (4.0 * span))


def apply_rescaling(
    r: Rescaling,
    h: DiagonalHamiltonian,
    support: np.ndarray | None = None,
) -> DiagonalHamiltonian:
    """Rescaled cost table C with c(x) = epsilon * (alpha + h(x)).

    Verifies 0 <= c <= pi/4 (within BOUND_TOL) on the declared support; values
    outside the support are carried through unvalidated since they only ever
    multiply zero amplitudes.
    """
    c = r.epsilon * (r.alpha + h.values)
    check = c if support is None else c[np.asarray(support)]
    if check.size and (check.min() < -BOUND_TOL or check.max() > math.pi / 4 + BOUND_TOL):
        raise ValueError(
            "rescaled cost leaves [0, pi/4] on the declared support; "
            "the bounds used to build the rescaling are not honest"
        )
    return DiagonalHamiltonian(h.n, c)


def brute_force_optimum(
    h: DiagonalHamiltonian, support: np.ndarray | None = None
) -> tuple[float, list[int]]:
    """Exact maximum cost and all maximizing basis indices (optionally over a support)."""
    if support is None:
        vals = h.values
        h_star = float(vals.max())
        argmax = np.flatnonzero(vals == h_star)
    else:
        mask = np.asarray(support, dtype=bool)
        if not mask.any():
            raise ValueError("empty support")
        h_star = float(h.values[mask].max())
        argmax = np.flatnonzero(mask & (h.values == h_star))
    return h_star, [int(x) for x in argmax]


def feasible(instance: ProblemInstance, x: int) -> bool:
    """Whether basis index x is an independent set of the instance's graph."""
    if instance.kind != "mis":
        raise ValueError("feasibility is defined for MIS instances only")
    for u, v in instance.graph.edges:
        if (x >> u) & 1 and (x >> v) & 1:
            return False
    return True


class InstanceTables(NamedTuple):
    """The dense tables of one instance; see instance_tables."""

    drive: DiagonalHamiltonian
    violations: DiagonalHamiltonian | None
    feasible: np.ndarray | None
    support: np.ndarray | None


@lru_cache(maxsize=8)
def instance_tables(instance: ProblemInstance) -> InstanceTables:
    """Driving cost, violation counts and feasible support of an instance, built once.

    For MIS, violations counts the edges inside each set and feasible marks
    the independent sets; both are None for MaxCut.  MIS without a penalty
    weight runs in feasible-subspace mode: the bare cost drives the dynamics
    and support is the feasible mask, on which rescalings are validated.
    Otherwise support is None, and a penalty weight lam drives with
    H - lam * P.  Results are cached per instance and their arrays are
    read-only.
    """
    if instance.kind == "maxcut":
        return InstanceTables(build_maxcut(instance.graph), None, None, None)
    h, p = build_mis(instance.graph)
    feasible = p.values == 0
    feasible.setflags(write=False)  # cached: every caller gets this array
    if instance.penalty_weight is None:
        return InstanceTables(h, p, feasible, feasible)
    return InstanceTables(penalize(h, p, instance.penalty_weight), p, feasible, None)


def feasible_mask(instance: ProblemInstance) -> np.ndarray:
    """Boolean mask over all basis indices marking independent sets (read-only)."""
    if instance.kind != "mis":
        raise ValueError("feasibility is defined for MIS instances only")
    return instance_tables(instance).feasible


def cost_hamiltonian(instance: ProblemInstance) -> DiagonalHamiltonian:
    """The bare (unpenalized) cost Hamiltonian of the instance."""
    return instance_tables(ProblemInstance(instance.graph, instance.kind)).drive


def driving_hamiltonian(instance: ProblemInstance) -> DiagonalHamiltonian:
    """The cost Hamiltonian the measurement dynamics act on.

    For MIS with a penalty weight this is H - lam * P; otherwise the bare cost.
    """
    return instance_tables(instance).drive
