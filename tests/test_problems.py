"""Tests for graphs, cost tables, spectrum bounds, and the rescaling map."""

import dataclasses
import importlib
import math
import pkgutil

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
from mdqo.problems import SUBSPACE_CAP

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
        # one string per reached (size, violations) pair, in ascending order
        string, pair = graph.mis_pairs
        assert pair.dtype == np.min_scalar_type(string.size - 1)
        h, p = graph.mis
        pairs = list(zip(h.values[string], p.values[string]))
        assert pairs == sorted(set(pairs))
        assert np.array_equal(h.values[string][pair], h.values)
        assert np.array_equal(p.values[string][pair], p.values)
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
