"""Graphs, diagonal cost Hamiltonians, spectrum bounds, and the linear rescaling.

Basis convention used across the whole package: basis index x encodes the
variable assignment via bit u of x = x_u, i.e. x = sum_u x_u * 2**u (vertex 0
is the least significant bit).  A table is dense, one entry per index in
order, or lives on a sorted int64 `basis` of indices: feasible-subspace MIS
keeps only the independent sets (Graph.subspace).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, DegenerateSpectrumError

# Largest qubit count for which dense 2**n tables are built, the size measured
# to run end to end on an 8 GiB machine; beyond this every dense constructor
# fails loudly.  Feasible-subspace MIS never builds one: its tables live on
# the independent sets, under SUBSPACE_CAP instead.
DENSE_CAP = 20

# Largest independent-set count a feasible-subspace basis may hold.  No run
# at the cap has been measured; by estimate the graph's subspace table (basis
# and vertex counts) and a state on it take 256 MiB each, and its mixer pairs
# 16 bytes per (set, vertex outside it) pair, about 3 GiB for the edgeless
# 24-vertex graph and more for larger sets.
SUBSPACE_CAP = 2**24

# Absolute tolerance for spectrum-bound validation.
BOUND_TOL = 1e-12

# Entries (rotation pairs in statevector._rotate) per block of the passes that
# would otherwise make 2**n temporaries: 128 KiB of float64 stays in cache.  A
# power of two, so a rotation block is whole trailing axes of the (2,) * n view.
_BLOCK = 1 << 14


def _check_capacity(n: int) -> None:
    if n > DENSE_CAP:
        raise CapacityError(f"n={n} exceeds the dense-table cap of {DENSE_CAP} qubits")


def _checked_basis(n: int, basis) -> np.ndarray:
    """The basis as a read-only int64 array; ValueError unless it is 1-d,
    strictly increasing and inside 0..2**n - 1.  A read-only int64 array,
    e.g. Graph.subspace.basis, is shared without a copy."""
    basis = np.asarray(basis, dtype=np.int64)
    if basis.flags.writeable:
        basis = basis.copy()
        basis.setflags(write=False)
    if basis.ndim != 1 or np.any(basis[1:] <= basis[:-1]):
        raise ValueError("basis must be a strictly increasing 1-d array")
    if basis.size and (basis[0] < 0 or basis[-1] >= 2**n):
        raise ValueError(f"basis indices must lie in 0..2**{n} - 1")
    return basis


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1; no self-loops, no duplicate edges.
    Each table derived from it is built on first use and lives on it, read-only."""

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
        return tuple(sorted(b if a == u else a for a, b in self.edges if u in (a, b)))

    @cached_property
    def maxcut(self) -> DiagonalHamiltonian:
        """build_maxcut of this graph."""
        return build_maxcut(self)

    @cached_property
    def mis(self) -> tuple[DiagonalHamiltonian, DiagonalHamiltonian]:
        """build_mis of this graph: the dense vertex and violation counts."""
        return build_mis(self)

    @cached_property
    def mis_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The penalty-free index of mis, the _ranked keys size * (m + 1) + violations
        and each string's rank, off which ProblemInstance.cost stores penalised levels."""
        h, p = self.mis
        return _ranked((h.values * (self.m + 1) + p.values).astype(np.intp))

    @cached_property
    def subspace(self) -> DiagonalHamiltonian:
        """The MIS cost, each set's vertex count, on the sorted basis of the
        independent sets: adding u to each set so far free of its earlier
        neighbours appends larger sets.  CapacityError, before any array is
        allocated, when the count passes SUBSPACE_CAP."""
        size = count_independent_sets(self)
        if size > SUBSPACE_CAP:
            raise CapacityError(
                f"the {self.n}-vertex graph has {size} independent sets, "
                f"past the subspace cap of {SUBSPACE_CAP}"
            )
        basis = np.zeros(size, dtype=np.int64)
        count = np.zeros(size, dtype=np.uint8)
        filled = 1
        for u in range(self.n):
            free = (basis[:filled] & _mask(v for v in self.neighbors(u) if v < u)) == 0
            grown = filled + np.count_nonzero(free)
            basis[filled:grown] = basis[:filled][free] | (1 << u)
            count[filled:grown] = count[:filled][free] + 1
            filled = grown
        basis.setflags(write=False)
        return DiagonalHamiltonian.on_levels(
            self.n, _ranked(count), count, coeff_bounds=(0.0, float(self.n)), basis=basis
        )

    @cached_property
    def mixer_pairs(self) -> tuple[np.ndarray, ...]:
        """Per vertex u in ascending order, the positions in subspace.basis of
        every set S free of u and its neighbours, then those of each S | {u}:
        the pairs the mis-controlled rotation on u mixes."""
        basis = self.subspace.basis
        pairs = []
        for u in range(self.n):
            i0 = np.flatnonzero((basis & _mask((u, *self.neighbors(u)))) == 0)
            pairs.append(np.concatenate((i0, np.searchsorted(basis, basis[i0] | (1 << u)))))
        return tuple(pairs)

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


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def count_independent_sets(graph: Graph) -> int:
    """The number of independent sets, exact below 2**53, without listing them.

    Vertices are added in ascending order.  A set is tracked only through
    its pattern on the vertices that still have a later neighbour, and sets
    with equal patterns are counted together, so the work follows the number
    of patterns, which never exceeds the count: CapacityError once more than
    SUBSPACE_CAP patterns, hence sets, would be tracked.
    """
    if graph.n > 63:
        raise CapacityError(f"n={graph.n} exceeds the 63 vertices an int64 basis index holds")
    last = [max(graph.neighbors(u), default=-1) for u in range(graph.n)]
    patterns, counts = np.zeros(1, dtype=np.int64), np.ones(1)
    for u in range(graph.n):
        free = (patterns & _mask(v for v in graph.neighbors(u) if v < u)) == 0
        if patterns.size + np.count_nonzero(free) > SUBSPACE_CAP:
            raise CapacityError(
                f"the {graph.n}-vertex graph has more independent sets than "
                f"the subspace cap of {SUBSPACE_CAP}"
            )
        patterns = np.concatenate((patterns, patterns[free] | (1 << u)))
        counts = np.concatenate((counts, counts[free]))
        patterns &= ~_mask(v for v in range(u + 1) if last[v] <= u)
        patterns, inverse = np.unique(patterns, return_inverse=True)
        counts = np.bincount(inverse, counts)
    return int(counts.sum())


@dataclass(frozen=True)
class ProblemInstance:
    """A graph plus problem kind; penalty_weight is the MIS penalty multiplier.
    The cost it drives is built on first use and kept on it, read-only."""

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
            if not math.isfinite(self.penalty_weight * self.graph.m):
                raise ValueError(
                    f"penalty_weight {self.penalty_weight:g} times the edge count "
                    f"{self.graph.m} is not a finite float"
                )

    @property
    def feasible_subspace(self) -> bool:
        """MIS without a penalty weight: the dynamics stay on the independent sets."""
        return self.kind == "mis" and self.penalty_weight is None

    @cached_property
    def cost(self) -> DiagonalHamiltonian:
        """The cost the dynamics drive: the bare MIS cost on the independent
        sets in feasible-subspace mode, H - lam * P for a penalty weight, its
        levels from mis_pairs' keys with penalize's bits, otherwise the bare dense cost."""
        if self.kind == "maxcut":
            return self.graph.maxcut
        if self.penalty_weight is None:
            return self.graph.subspace
        cost = penalize(*self.graph.mis, self.penalty_weight)
        keys, rank = self.graph.mis_pairs
        size, violations = np.divmod(keys, self.graph.m + 1)  # exact on integral floats
        levels = _levels(size - self.penalty_weight * violations, rank)
        return DiagonalHamiltonian.on_levels(cost.n, levels, cost.values, cost.coeff_bounds)


@dataclass(frozen=True)
class DiagonalHamiltonian:
    """Real cost value per basis index: a dense table of length 2**n, or one
    value per entry of `basis` (sorted basis indices, e.g. Graph.subspace's).

    coeff_bounds, when present, records structural spectrum bounds (s, t) with
    -s <= H <= t derived from the problem's coefficients rather than from
    enumeration.
    """

    n: int
    values: np.ndarray
    coeff_bounds: tuple[float, float] | None = None
    basis: np.ndarray | None = None

    def __post_init__(self) -> None:
        vals = self.values  # a read-only float64 array that owns its data is shared
        if not (isinstance(vals, np.ndarray) and vals.dtype == np.float64
                and not vals.flags.writeable and vals.base is None):
            vals = np.array(vals, dtype=np.float64)
        self._check(vals.shape, vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def on_levels(
        cls, n: int, levels: tuple, values=None, coeff_bounds=None, basis=None
    ) -> DiagonalHamiltonian:
        """The table whose levels are `levels`, as _levels and _ranked give them.

        Given values, they are its entries, checked as the constructor checks
        them.  Without, the level values, exactly the set of its entries, are
        checked finite, and values are gathered from the levels on first read.
        """
        if values is not None:
            table = cls(n, values, coeff_bounds, basis)
        else:
            table = object.__new__(cls)
            table.__dict__.update(n=n, coeff_bounds=coeff_bounds, basis=basis)
            table._check(levels[1].shape, levels[0])
        table.__dict__["levels"] = levels  # the cached_property's slot
        return table

    def _check(self, shape: tuple[int, ...], entries: np.ndarray) -> None:
        """Adopt the checked basis; ValueError unless shape holds one entry per
        basis index and every value in entries is finite."""
        if self.basis is not None:
            object.__setattr__(self, "basis", _checked_basis(self.n, self.basis))
        size = 2**self.n if self.basis is None else self.basis.size
        if shape != (size,):
            raise ValueError(f"expected {size} values for n={self.n}, got shape {shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("cost values must be finite")

    def __getattr__(self, name: str):
        """values, on the first read, of a table built on its levels alone."""
        if name != "values" or "levels" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = _gather(*self.__dict__["levels"])
        self.__dict__["values"] = values
        return values

    @cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct values and each index's level in the smallest unsigned dtype.

        values[level] == self.values: exactly equal floats share a level, so a
        ufunc gives a level's value the bits it gives each entry.  Read-only.
        build_maxcut, build_mis, Graph.subspace, ProblemInstance.cost and
        apply_rescaling build their tables on_levels; any other table sorts
        its values.
        """
        return _levels(self.values)


def _levels(values: np.ndarray, index: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(values, return_inverse=True), the inverse in the smallest
    unsigned dtype and, given an index, _gather'ed at it; both read-only."""
    values, level = np.unique(values, return_inverse=True)
    level = level.astype(np.min_scalar_type(values.size - 1))
    if index is not None:
        level = _gather(level, index)
    for table in (values, level):
        table.setflags(write=False)
    return values, level


def _gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[index] in one fresh read-only array, gathered _BLOCK entries at a
    time: no 2**n intp copy of a narrow index."""
    out = np.empty(index.size, dtype=table.dtype)
    for start in range(0, index.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        table.take(index[block], out=out[block])
    out.setflags(write=False)
    return out


def _counted(n: int, groups, coeff_bounds: tuple[float, float]) -> DiagonalHamiltonian:
    """The table of how many groups, each a {vertex: bit} map, an index
    matches, with its levels.  A group adds 1 on the (2,) * n view with its
    bits fixed (axis n-1-u is bit u; the Ellipsis keeps a 0-d view) to byte
    counts, since DENSE_CAP allows at most 190 edges; its levels are _ranked."""
    counts = np.zeros(2**n, dtype=np.uint8)
    tensor = counts.reshape((2,) * n)
    for group in groups:
        idx: list = [slice(None)] * n
        for u, bit in group.items():
            idx[n - 1 - u] = bit
        tensor[(..., *idx)] += 1
    return DiagonalHamiltonian.on_levels(n, _ranked(counts), counts, coeff_bounds)


def _ranked(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(keys, return_inverse=True) for nonnegative integer keys, off one
    bincount with no sort: the reached keys as float64 and each key's rank, cast
    to the smallest unsigned dtype before it is _gather'ed at the keys; read-only."""
    tally = np.bincount(keys)
    reached = np.flatnonzero(tally).astype(np.float64)
    reached.setflags(write=False)
    rank = (np.cumsum(tally > 0) - 1).astype(np.min_scalar_type(reached.size - 1))
    return reached, _gather(rank, keys)


def build_maxcut(graph: Graph) -> DiagonalHamiltonian:
    """Cut-counting cost: values[x] = number of edges with unequal endpoint bits."""
    _check_capacity(graph.n)
    groups = [g for u, v in graph.edges for g in ({u: 0, v: 1}, {u: 1, v: 0})]
    return _counted(graph.n, groups, (0.0, float(graph.m)))


def build_mis(graph: Graph) -> tuple[DiagonalHamiltonian, DiagonalHamiltonian]:
    """Independent-set cost H (vertex count) and violation count P (edges inside the set)."""
    _check_capacity(graph.n)
    h = _counted(graph.n, [{u: 1} for u in range(graph.n)], (0.0, float(graph.n)))
    p = _counted(graph.n, [{u: 1, v: 1} for u, v in graph.edges], (0.0, float(graph.m)))
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
    h: DiagonalHamiltonian, mode: str, user: tuple[float, float] | None = None
) -> Bounds:
    """Spectrum bounds in one of three modes.

    coefficient-sum reads the structural bounds recorded at construction;
    brute-force enumerates the table; user-supplied validates the given
    (s, t) against the table.  A table on a basis bounds those entries
    alone: Graph.subspace gives the feasible bounds of a constrained instance.
    """
    if mode == "coefficient-sum":
        if h.coeff_bounds is None:
            raise ValueError("no structural coefficient bounds recorded for this Hamiltonian")
        s, t = h.coeff_bounds
        return Bounds(float(s), float(t), mode)
    lo, hi = float(h.values.min()), float(h.values.max())
    if mode == "brute-force":
        return Bounds(-lo + 0.0, hi, mode)  # + 0.0 turns -0.0 into 0.0
    if mode == "user-supplied":
        if user is None:
            raise ValueError("user-supplied mode requires explicit (s, t)")
        s, t = float(user[0]), float(user[1])
        if not (math.isfinite(s) and math.isfinite(t)):
            raise ValueError(f"user bounds ({-s}, {t}) are not finite")
        if -s > lo + BOUND_TOL or t < hi - BOUND_TOL:
            raise ValueError(f"user bounds ({-s}, {t}) are violated by the spectrum [{lo}, {hi}]")
        return Bounds(s, t, mode)
    raise ValueError(f"unknown bounds mode {mode!r}")


@dataclass(frozen=True)
class Rescaling:
    """Linear map c(x) = epsilon * (alpha + h(x)) taking the spectrum into [0, pi/4]."""

    alpha: float
    epsilon: float


def rescaling_from_bounds(bounds: Bounds) -> Rescaling:
    """alpha = s and epsilon = pi / (4 (s + t)); rejects degenerate and non-finite spans."""
    span = bounds.s + bounds.t
    if not math.isfinite(span):
        raise ValueError(f"spectrum span s + t = {span} is not finite")
    if span <= 0:
        raise DegenerateSpectrumError(
            f"spectrum span s + t = {span} is not positive: constant cost function"
        )
    return Rescaling(alpha=float(bounds.s), epsilon=math.pi / (4.0 * span))


def apply_rescaling(r: Rescaling, h: DiagonalHamiltonian) -> DiagonalHamiltonian:
    """Rescaled cost table C with c(x) = epsilon * (alpha + h(x)), on h's basis.

    C is built on_levels: h's levels, rescaled by the same ufuncs, so each
    gets the bits its entries get; two that round to one value merge, so no
    2**n sort is needed.  0 <= c <= pi/4 (within BOUND_TOL) is verified on
    the level values, exactly the set of entries, and C.values, which the
    closed forms never read, are gathered from the levels on first read.
    """
    values, level = h.levels
    c = r.epsilon * (r.alpha + values)
    check_rescaled(c)
    return DiagonalHamiltonian.on_levels(h.n, _levels(c, level), basis=h.basis)


def check_rescaled(c: np.ndarray) -> None:
    """ValueError unless every rescaled cost in c lies in [0, pi/4] (within BOUND_TOL)."""
    if c.size and not (c.min() >= -BOUND_TOL and c.max() <= math.pi / 4 + BOUND_TOL):
        raise ValueError(
            "rescaled cost leaves [0, pi/4]; the bounds used to build the rescaling are not honest"
        )


def brute_force_optimum(h: DiagonalHamiltonian) -> tuple[float, list[int]]:
    """Exact maximum cost and all maximizing basis indices (h's entries, on its basis)."""
    h_star = float(h.values.max())
    argmax = np.flatnonzero(h.values == h_star)
    if h.basis is not None:
        argmax = h.basis[argmax]
    return h_star, [int(x) for x in argmax]


def feasible(instance: ProblemInstance, x: int) -> bool:
    """Whether basis index x is an independent set of the instance's graph."""
    if instance.kind != "mis":
        raise ValueError("feasibility is defined for MIS instances only")
    for u, v in instance.graph.edges:
        if (x >> u) & 1 and (x >> v) & 1:
            return False
    return True


def feasible_mask(instance: ProblemInstance) -> np.ndarray:
    """Read-only boolean mask over all basis indices marking independent sets,
    computed on each call from the graph's violation counts."""
    if instance.kind != "mis":
        raise ValueError("feasibility is defined for MIS instances only")
    mask = instance.graph.mis[1].values == 0
    mask.setflags(write=False)
    return mask


def cost_hamiltonian(instance: ProblemInstance) -> DiagonalHamiltonian:
    """The bare (unpenalized) dense cost Hamiltonian of the instance."""
    return instance.graph.maxcut if instance.kind == "maxcut" else instance.graph.mis[0]


def driving_hamiltonian(instance: ProblemInstance) -> DiagonalHamiltonian:
    """The dense driving cost: instance.cost, or in feasible-subspace MIS,
    whose cost lives on the independent sets alone, the bare dense cost."""
    return instance.graph.mis[0] if instance.feasible_subspace else instance.cost
