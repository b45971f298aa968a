"""Tests for graphs, cost tables, spectrum bounds, and the rescaling map."""

import dataclasses
import importlib
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest

import mdqo
from mdqo import (
    Bounds,
    CapacityError,
    DegenerateSpectrumError,
    DiagonalHamiltonian,
    Graph,
    ProblemInstance,
    apply_rescaling,
    brute_force_optimum,
    build_maxcut,
    build_mis,
    cost_hamiltonian,
    count_independent_sets,
    driving_hamiltonian,
    feasible,
    feasible_mask,
    parse_edge_list,
    penalize,
    rescaling_from_bounds,
    spectrum_bounds,
)
from mdqo.problems import DENSE_CAP, SUBSPACE_CAP, Rescaling, check_rescaled

from conftest import feasible_bounds, rescaled_table


def test_graph_normalizes_and_deduplicates():
    g = Graph(3, ((2, 0), (0, 1)))
    assert g.edges == ((0, 2), (0, 1))
    assert g.m == 2
    assert g.neighbors(0) == (1, 2)
    assert g.neighbors(1) == (0,)


@pytest.mark.parametrize(
    "n,edges",
    [
        (3, ((0, 0),)),
        (3, ((0, 3),)),
        (3, ((0, 1), (1, 0))),
        (0, ()),
    ],
)
def test_graph_rejects_bad_input(n, edges):
    with pytest.raises(ValueError):
        Graph(n, edges)


def test_from_1indexed_range_check():
    with pytest.raises(ValueError):
        Graph.from_1indexed(3, [(0, 1)])
    with pytest.raises(ValueError):
        Graph.from_1indexed(3, [(1, 4)])


def test_parse_edge_list_with_header_and_comments():
    text = "# benchmark graph\nn 5\n1 2\n2 3  # chord\n3 4\n1 3\n2 4\n2 5\n"
    g = parse_edge_list(text)
    assert g.n == 5
    assert g.m == 6


def test_parse_edge_list_infers_vertex_count():
    g = parse_edge_list("1 2\n2 4\n")
    assert g.n == 4
    assert g.edges == ((0, 1), (1, 3))


@pytest.mark.parametrize("text", ["", "1 2 3\n", "n 5 7\n1 2\n"])
def test_parse_edge_list_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


def test_maxcut_cut_values(g5, maxcut_h):
    # The set {2, 3} (1-indexed) cuts five of the six edges.
    x = 0b00110
    assert maxcut_h.values[x] == 5.0
    assert maxcut_h.values[0] == 0.0
    assert maxcut_h.values[2**5 - 1] == 0.0
    assert maxcut_h.values.mean() == pytest.approx(3.0)


def test_maxcut_matches_direct_enumeration(g5, maxcut_h):
    for x in range(32):
        bits = [(x >> u) & 1 for u in range(5)]
        cut = sum(bits[u] != bits[v] for u, v in g5.edges)
        assert maxcut_h.values[x] == cut


def test_build_mis_tables(g5, mis_pair):
    h, p = mis_pair
    assert h.values[0b11001] == 3.0
    assert p.values[0b11001] == 0.0
    assert p.values[0b00011] == 1.0  # vertices 1 and 2 are adjacent
    assert int(np.sum(p.values == 0)) == 11


def test_feasible_predicate(g5, mis_instance):
    assert feasible(mis_instance, 0b11001)  # {1, 4, 5}
    assert not feasible(mis_instance, 0b00011)  # {1, 2}
    assert feasible(mis_instance, 0)
    mask = feasible_mask(mis_instance)
    for x in range(32):
        assert mask[x] == feasible(mis_instance, x)


def test_feasible_rejects_maxcut(g5):
    inst = ProblemInstance(g5, "maxcut")
    with pytest.raises(ValueError):
        feasible(inst, 0)


def test_penalize_spectrum(mis_pair):
    h, p = mis_pair
    hp = penalize(h, p, 3.0)
    assert hp.values.min() == -13.0
    assert hp.values.max() == 3.0
    assert hp.coeff_bounds == (13.0, 5.0)
    np.testing.assert_allclose(penalize(h, p, 0.0).values, h.values)
    with pytest.raises(ValueError):
        penalize(h, p, -1.0)


def test_penalized_max_is_feasible_optimum(mis_pair):
    h, p = mis_pair
    hp = penalize(h, p, 3.0)
    h_star, argmax = brute_force_optimum(hp)
    assert h_star == 3.0
    assert argmax == [0b11001]


@pytest.mark.parametrize(
    "mode,expected",
    [("brute-force", (0.0, 5.0)), ("coefficient-sum", (0.0, 6.0))],
)
def test_maxcut_spectrum_bounds(maxcut_h, mode, expected):
    b = spectrum_bounds(maxcut_h, mode)
    assert (b.s, b.t) == expected
    assert b.mode == mode


def test_mis_bounds_feasible_support(g5, mis_pair):
    h, _ = mis_pair
    tight = spectrum_bounds(g5.subspace, "brute-force")
    assert (tight.s, tight.t) == (0.0, 3.0)
    loose = spectrum_bounds(h, "coefficient-sum")
    assert (loose.s, loose.t) == (0.0, 5.0)


def test_penalized_bounds(mis_pair):
    h, p = mis_pair
    hp = penalize(h, p, 3.0)
    assert (spectrum_bounds(hp, "brute-force").s, spectrum_bounds(hp, "brute-force").t) == (13.0, 3.0)
    assert (spectrum_bounds(hp, "coefficient-sum").s, spectrum_bounds(hp, "coefficient-sum").t) == (13.0, 5.0)


def test_user_bounds_validated(maxcut_h):
    ok = spectrum_bounds(maxcut_h, "user-supplied", user=(0.0, 7.0))
    assert (ok.s, ok.t) == (0.0, 7.0)
    with pytest.raises(ValueError):
        spectrum_bounds(maxcut_h, "user-supplied", user=(0.0, 4.0))
    with pytest.raises(ValueError):
        spectrum_bounds(maxcut_h, "user-supplied")
    with pytest.raises(ValueError):
        spectrum_bounds(maxcut_h, "midpoint")


@pytest.mark.parametrize(
    "user", [(math.nan, 10.0), (0.0, math.nan), (math.inf, 10.0), (0.0, math.inf)]
)
def test_user_bounds_must_be_finite(maxcut_h, user):
    with pytest.raises(ValueError, match="are not finite"):
        spectrum_bounds(maxcut_h, "user-supplied", user=user)


def test_coefficient_sum_requires_metadata():
    raw = DiagonalHamiltonian(1, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        spectrum_bounds(raw, "coefficient-sum")


@pytest.mark.parametrize(
    "s,t,expected_eps",
    [
        (0.0, 5.0, math.pi / 20),
        (0.0, 6.0, math.pi / 24),
        (0.0, 3.0, math.pi / 12),
        (13.0, 3.0, math.pi / 64),
        (13.0, 5.0, math.pi / 72),
    ],
)
def test_rescaling_epsilon(s, t, expected_eps):
    r = rescaling_from_bounds(Bounds(s, t, "user-supplied"))
    assert r.alpha == s
    assert r.epsilon == pytest.approx(expected_eps, rel=1e-15)


def test_rescaling_rejects_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrumError):
        rescaling_from_bounds(Bounds(0.0, 0.0, "brute-force"))


@pytest.mark.parametrize(
    "s,t", [(math.nan, 10.0), (0.0, math.inf), (math.inf, 0.0), (1e308, 1e308)]
)
def test_rescaling_rejects_a_span_that_is_not_finite(s, t):
    # NaN <= 0 is False, so only a finiteness check stops NaN, and inf gives epsilon = 0
    with pytest.raises(ValueError, match="is not finite"):
        rescaling_from_bounds(Bounds(s, t, "user-supplied"))


def test_check_rescaled_rejects_nan():
    # NaN compares False both ways, so a range check written as two
    # violations would let it through
    with pytest.raises(ValueError, match=r"leaves \[0, pi/4\]"):
        check_rescaled(np.array([0.0, math.nan, 0.5]))
    check_rescaled(np.array([0.0, math.pi / 4]))


def test_apply_rescaling_range(maxcut_h):
    r = rescaling_from_bounds(spectrum_bounds(maxcut_h, "brute-force"))
    c = apply_rescaling(r, maxcut_h)
    assert c.values.min() == 0.0
    assert c.values.max() == pytest.approx(math.pi / 4)


def test_apply_rescaling_rejects_dishonest_bounds(maxcut_h):
    bad = rescaling_from_bounds(Bounds(0.0, 3.0, "user-supplied"))
    with pytest.raises(ValueError):
        apply_rescaling(bad, maxcut_h)


def test_apply_rescaling_support_restriction(g5, mis_pair, mis_instance):
    h, _ = mis_pair
    cost = g5.subspace
    r = rescaling_from_bounds(spectrum_bounds(cost, "brute-force"))
    with pytest.raises(ValueError):
        apply_rescaling(r, h)  # full spectrum reaches 5 > 3
    c = apply_rescaling(r, cost)
    assert c.values.max() == pytest.approx(math.pi / 4)
    mask = feasible_mask(mis_instance)
    assert c.values.tobytes() == rescaled_table(r, h).values[mask].tobytes()


def test_brute_force_optimum(g5, maxcut_h):
    assert brute_force_optimum(maxcut_h) == (5.0, [0b00110, 0b11001])
    assert brute_force_optimum(g5.subspace) == (3.0, [0b11001])


def test_instance_hamiltonian_selection(g5):
    bare = cost_hamiltonian(ProblemInstance(g5, "mis"))
    assert bare.values.max() == 5.0
    drive = driving_hamiltonian(ProblemInstance(g5, "mis", penalty_weight=3.0))
    assert drive.values.min() == -13.0
    assert driving_hamiltonian(ProblemInstance(g5, "maxcut")).values.max() == 5.0


def test_instance_validation(g5):
    with pytest.raises(ValueError):
        ProblemInstance(g5, "tsp")
    with pytest.raises(ValueError):
        ProblemInstance(g5, "maxcut", penalty_weight=1.0)
    with pytest.raises(ValueError):
        ProblemInstance(g5, "mis", penalty_weight=-2.0)
    # lam * m overflows: H - lam * P would hold -inf
    with pytest.raises(ValueError, match="penalty_weight 1e\\+308 times the edge count 6 is not"):
        ProblemInstance(g5, "mis", penalty_weight=1e308)
    assert ProblemInstance(Graph(2, ()), "mis", penalty_weight=1e308).cost.values.max() == 2.0


def test_capacity_cap():
    big = Graph(27, ())
    with pytest.raises(CapacityError):
        build_maxcut(big)
    with pytest.raises(CapacityError):
        build_mis(big)


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        DiagonalHamiltonian(2, np.zeros(3))
    with pytest.raises(ValueError):
        DiagonalHamiltonian(1, np.array([0.0, np.inf]))


def test_hamiltonian_checks_its_basis(g5):
    # A reversed full basis once passed _check_dense as a dense table, and
    # indices past 2**n - 1 were bounded by spectrum_bounds.
    with pytest.raises(ValueError, match="^basis must be a strictly increasing 1-d array$"):
        DiagonalHamiltonian(2, [0.0, 1.0, 2.0, 3.0], basis=np.array([3, 2, 1, 0]))
    with pytest.raises(ValueError, match=r"^basis indices must lie in 0\.\.2\*\*2 - 1$"):
        DiagonalHamiltonian(2, [0.0, 1.0], basis=np.array([7, 9]))
    with pytest.raises(ValueError, match="strictly increasing"):
        DiagonalHamiltonian(2, [0.0], basis=np.zeros((1, 1), dtype=np.int64))
    cost = g5.subspace
    rescaling = rescaling_from_bounds(Bounds(0.0, 5.0, "brute-force"))
    assert apply_rescaling(rescaling, cost).basis is cost.basis
    copied = DiagonalHamiltonian(2, [0.0, 1.0], basis=[1, 3])
    assert copied.basis.dtype == np.int64 and not copied.basis.flags.writeable


def test_values_are_write_protected(maxcut_h):
    with pytest.raises(ValueError):
        maxcut_h.values[0] = 7.0
    # a read-only float64 array that owns its data is shared; anything else is copied
    assert DiagonalHamiltonian(maxcut_h.n, maxcut_h.values).values is maxcut_h.values
    writeable = maxcut_h.values.copy()
    for values in (writeable, maxcut_h.values[:], writeable.astype(np.float32)):
        assert DiagonalHamiltonian(maxcut_h.n, values).values is not values


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def path(n: int) -> Graph:
    return Graph(n, tuple((u, u + 1) for u in range(n - 1)))


def cycle(n: int) -> Graph:
    return Graph(n, path(n).edges + ((0, n - 1),))


@pytest.mark.parametrize("n", range(1, 41))
def test_independent_set_counts_of_paths_and_cycles(n):
    # |IS(P_n)| = F(n + 2) and |IS(C_n)| = L(n) = F(n - 1) + F(n + 1)
    assert count_independent_sets(path(n)) == fibonacci(n + 2)
    if n >= 3:
        assert count_independent_sets(cycle(n)) == fibonacci(n - 1) + fibonacci(n + 1)
    if n <= 24:
        assert path(n).subspace.basis.size == fibonacci(n + 2)
        if n >= 3:
            assert cycle(n).subspace.basis.size == fibonacci(n - 1) + fibonacci(n + 1)


@pytest.mark.parametrize("n", range(1, 21))
def test_basis_is_the_dense_feasible_mask(n):
    rng = np.random.default_rng([n, 31])
    density = (0.1, 0.3, 0.6)[n % 3]
    graph = Graph(
        n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density)
    )
    instance = ProblemInstance(graph, "mis")
    basis = graph.subspace.basis
    assert basis.dtype == np.int64 and not basis.flags.writeable
    assert np.array_equal(basis, np.flatnonzero(feasible_mask(instance)))
    assert count_independent_sets(graph) == basis.size
    cost = graph.subspace
    assert cost.basis is basis
    assert cost.values.tobytes() == cost_hamiltonian(instance).values[basis].tobytes()


def test_package_binds_no_functools_cache():
    # the tables derived from a graph live on the graph, so each lives as
    # long as the graph a run holds: no module or class keeps a functools cache
    caches = []
    for info in pkgutil.iter_modules(mdqo.__path__):
        members = list(vars(importlib.import_module(f"mdqo.{info.name}")).values())
        members += [v for cls in members if isinstance(cls, type) for v in vars(cls).values()]
        caches += [v for v in members if hasattr(v, "cache_parameters")]
    assert caches == []


def test_graph_tables_are_built_once_per_graph():
    # an equal graph is another graph: it builds its own tables
    graph = Graph(4, ((0, 1), (1, 2), (2, 3)))
    assert graph.maxcut is graph.maxcut and graph.mis is graph.mis
    assert graph.subspace is graph.subspace and graph.mixer_pairs is graph.mixer_pairs
    assert graph.mis_pairs is graph.mis_pairs
    twin = Graph(4, graph.edges)
    assert twin == graph and twin.mis is not graph.mis
    instance = ProblemInstance(graph, "mis", 2.0)
    assert cost_hamiltonian(instance) is graph.mis[0]
    assert driving_hamiltonian(ProblemInstance(graph, "maxcut")) is graph.maxcut
    # a bare cost is the graph's own table; a penalised one is built once per
    # instance from the one dense build, and an equal instance builds its own
    assert ProblemInstance(graph, "maxcut").cost is graph.maxcut
    assert ProblemInstance(graph, "mis").cost is graph.subspace
    assert instance.cost is instance.cost and driving_hamiltonian(instance) is instance.cost
    equal = ProblemInstance(graph, "mis", 2.0)
    assert equal == instance and hash(equal) == hash(instance) and equal.cost is not instance.cost
    with pytest.raises(dataclasses.FrozenInstanceError):
        instance.cost = graph.maxcut


def test_penalised_levels_are_the_dense_levels():
    # levels gathered from the (size, violations) pairs are the levels a
    # sort of the dense penalised values gives: values, level array, dtype
    # and read-only flags; lam = 1 merges pairs such as (2, 0) and (3, 1)
    for i in range(36):
        n = 1 + i % 12
        rng = np.random.default_rng([n, i, 26])
        density = (0.2, 0.5, 0.8)[i // 12]
        graph = Graph(
            n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density)
        )
        # each reached (size, violations) key once, ascending, and each string's rank
        keys, rank = graph.mis_pairs
        assert np.all(keys[1:] > keys[:-1])
        assert set(rank.tolist()) == set(range(keys.size))
        assert rank.dtype == np.min_scalar_type(keys.size - 1)
        assert not keys.flags.writeable and not rank.flags.writeable
        h, p = graph.mis
        assert keys[rank].tobytes() == (h.values * (graph.m + 1) + p.values).tobytes()
        for lam in (0.0, 1e-300, 1 / 3, 0.5, 0.7, 1.0, 1.5, 3.0, 7.25, 1e8):
            instance = ProblemInstance(graph, "mis", lam)
            for cost in (instance.cost, driving_hamiltonian(ProblemInstance(graph, "mis", lam))):
                dense = DiagonalHamiltonian(n, cost.values).levels
                unique, inverse = np.unique(cost.values, return_inverse=True)
                for got, want in zip(cost.levels, dense):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                    assert not got.flags.writeable and not want.flags.writeable
                assert dense[0].tobytes() == unique.tobytes()
                assert np.array_equal(dense[1], inverse)


def test_subspace_cost_is_the_dense_cost_on_the_basis(g5, mis_pair, mis_instance):
    cost = g5.subspace
    mask = feasible_mask(mis_instance)
    assert np.array_equal(cost.basis, np.flatnonzero(mask))
    assert cost.values.tobytes() == mis_pair[0].values[cost.basis].tobytes()
    assert cost.coeff_bounds == mis_pair[0].coeff_bounds
    h = mis_pair[0].values
    assert spectrum_bounds(cost, "brute-force") == feasible_bounds(mis_pair[0], mask)
    loose = spectrum_bounds(cost, "coefficient-sum")
    assert loose == spectrum_bounds(mis_pair[0], "coefficient-sum")
    h_star = h[mask].max()
    assert brute_force_optimum(cost) == (h_star, np.flatnonzero(mask & (h == h_star)).tolist())
    resc = rescaling_from_bounds(spectrum_bounds(cost, "brute-force"))
    c = apply_rescaling(resc, cost)
    assert c.basis is cost.basis
    dense = rescaled_table(resc, mis_pair[0])
    assert c.values.tobytes() == dense.values[cost.basis].tobytes()


def test_subspace_cap(monkeypatch):
    # F(37) = 24,157,817 sets pass the cap and are counted, never listed;
    # an int64 basis index holds 63 vertices
    assert fibonacci(36) <= SUBSPACE_CAP < fibonacci(37)
    with pytest.raises(CapacityError, match="past the subspace cap of 16777216"):
        path(35).subspace
    with pytest.raises(CapacityError, match="63 vertices"):
        count_independent_sets(Graph(64, tuple((u, u + 1) for u in range(63))))
    # a star whose centre comes last keeps every set of leaves apart until
    # the end: the count stops once those patterns pass the cap
    monkeypatch.setattr("mdqo.problems.SUBSPACE_CAP", 2**10)
    star = Graph(16, tuple((u, 15) for u in range(15)))
    with pytest.raises(CapacityError, match="more independent sets than the subspace cap of 1024"):
        star.subspace
    with pytest.raises(CapacityError, match="has 1025 independent sets, past the subspace cap"):
        Graph(11, tuple((0, v) for v in range(1, 11))).subspace
    assert Graph(10, ()).subspace.basis.size == 1024


def shifted_tables(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The MaxCut, vertex-count and violation tables by shifting an index
    table: the body the byte-count builders replaced."""
    idx = np.arange(2**graph.n, dtype=np.uint32)
    cut = np.zeros(2**graph.n)
    occupancy = np.zeros(2**graph.n)
    violations = np.zeros(2**graph.n)
    for u, v in graph.edges:
        cut += ((idx >> u) ^ (idx >> v)) & 1
        violations += (idx >> u) & (idx >> v) & 1
    for u in range(graph.n):
        occupancy += (idx >> u) & 1
    return cut, occupancy, violations


def assert_seeded_levels(table: DiagonalHamiltonian) -> None:
    # the levels a build seeds are those the cached property would sort out
    values, level = table.__dict__["levels"]
    unique, inverse = np.unique(table.values, return_inverse=True)
    assert values.dtype == np.float64 and values.tobytes() == unique.tobytes()
    assert level.dtype == np.min_scalar_type(unique.size - 1)
    assert np.array_equal(level, inverse)
    assert not values.flags.writeable and not level.flags.writeable


def table_graphs():
    for n in range(1, 13):
        rng = np.random.default_rng([n, 41])
        density = (0.2, 0.5, 0.9)[n % 3]
        yield Graph(
            n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density)
        )
    yield Graph(6, ())  # edgeless
    yield Graph(9, ((0, 4), (4, 7), (0, 7), (2, 3)))  # vertices 1, 5, 6 and 8 isolated


@pytest.mark.parametrize("graph", list(table_graphs()), ids=lambda g: f"n{g.n}-m{g.m}")
def test_byte_count_tables_match_the_shifted_index_tables(graph):
    cut, occupancy, violations = shifted_tables(graph)
    tables = (build_maxcut(graph), *build_mis(graph))
    for table, want in zip(tables, (cut, occupancy, violations)):
        assert table.values.tobytes() == want.tobytes()
        assert_seeded_levels(table)


@pytest.mark.parametrize("graph", list(table_graphs()), ids=lambda g: f"n{g.n}-m{g.m}")
def test_subspace_stores_the_levels_of_its_counts(graph):
    assert_seeded_levels(graph.subspace)


def test_rescaled_tables_store_the_levels_of_their_values():
    # apply_rescaling rescales h's levels with the ufuncs it applies to the
    # values: the levels a sort of the rescaled values gives, with no sort
    rng = np.random.default_rng(53)
    tables = []
    for graph in table_graphs():
        tables += [graph.maxcut, graph.subspace, ProblemInstance(graph, "mis", 1.5).cost]
    for n in (1, 3, 6, 9):
        tables.append(DiagonalHamiltonian(n, rng.normal(size=2**n)))
        tables.append(DiagonalHamiltonian(n, rng.integers(-3, 4, size=2**n) / 7))
    for h in tables:
        bounds = spectrum_bounds(h, "brute-force")
        if bounds.s + bounds.t > 0:
            assert_seeded_levels(apply_rescaling(rescaling_from_bounds(bounds), h))
    # 1 + 1e-17 rounds to 1: h's levels 0 and 1e-17 merge into one
    h = DiagonalHamiltonian(2, [1e-17, 0.5, 0.0, 1.0])
    c = apply_rescaling(Rescaling(alpha=1.0, epsilon=math.pi / 8), h)
    assert h.levels[0].size == 4
    assert_seeded_levels(c)
    assert c.levels[0].size == 3 and c.levels[1].tolist() == [0, 1, 0, 2]


def lazy_rescaling_tables():
    """MaxCut at n = 16, feasible-subspace and penalised MIS, and a random float table."""
    rng = np.random.default_rng(71)
    graph = Graph(16, tuple((u, v) for u in range(16) for v in range(u + 1, 16) if rng.random() < 0.3))
    yield "maxcut", graph.maxcut
    yield "subspace", graph.subspace
    yield "penalised", ProblemInstance(graph, "mis", 1.5).cost
    yield "random", DiagonalHamiltonian(10, rng.normal(size=2**10) * 10.0 ** rng.integers(-8, 9, 2**10))


@pytest.mark.parametrize("name, h", list(lazy_rescaling_tables()), ids=lambda x: x if isinstance(x, str) else "")
def test_rescaled_values_are_gathered_on_first_read(name, h):
    # a rescaled table is built on its levels alone; its values, read
    # later, have the bytes of the per-entry rescaling
    r = rescaling_from_bounds(spectrum_bounds(h, "brute-force"))
    c = apply_rescaling(r, h)
    assert "values" not in c.__dict__
    values = c.values
    assert values.tobytes() == (r.epsilon * (r.alpha + h.values)).tobytes()
    assert values.dtype == np.float64 and not values.flags.writeable
    assert c.values is values and c.basis is h.basis
    assert_seeded_levels(c)


def test_rescaling_makes_no_dense_float_table_until_values_are_read():
    # numpy reports its buffers to tracemalloc: the levels' uint8 index and
    # the gather's blocks stay below one 2**n float64 table, which the first
    # read of values allocates
    n = 16
    h = build_maxcut(Graph(n, tuple((u, (u + 1) % n) for u in range(n))))
    r = rescaling_from_bounds(spectrum_bounds(h, "coefficient-sum"))
    dense = 2**n * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        c = apply_rescaling(r, h)
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        c.values
        _, read = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built < dense / 2
    assert read >= dense


def test_built_on_levels_keeps_the_value_checks(g5):
    # a table built on its levels checks its shape and the level values;
    # other missing attributes still raise AttributeError
    level = np.zeros(4, dtype=np.uint8)
    with pytest.raises(ValueError, match="must be finite"):
        DiagonalHamiltonian.on_levels(2, (np.array([np.inf]), level))
    with pytest.raises(ValueError, match="expected 8 values for n=3"):
        DiagonalHamiltonian.on_levels(3, (np.array([0.5]), level))
    table = DiagonalHamiltonian.on_levels(2, (np.array([0.5]), level))
    assert table.values.tolist() == [0.5] * 4
    with pytest.raises(AttributeError, match="no attribute 'weights'"):
        table.weights


def test_complete_graph_counts_at_the_dense_cap_do_not_wrap():
    # K20's 190 edges: a cut of k(20 - k) edges, C(k, 2) violations, k vertices
    n = DENSE_CAP
    graph = Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))
    k = np.bitwise_count(np.arange(2**n)).astype(np.int64)
    cut, (occupancy, violations) = build_maxcut(graph), build_mis(graph)
    for table, want in [(cut, k * (n - k)), (occupancy, k), (violations, k * (k - 1) // 2)]:
        assert table.values.tobytes() == want.astype(np.float64).tobytes()
    assert violations.values.max() == 190.0
    for table in (cut, occupancy, violations):
        assert_seeded_levels(table)
