"""The study commands' level path against the dense oracle.

level_posterior and level_moments give p1, <H> and <P> after (k0, k1)
outcomes from a base's per-level weights.  The oracle builds the dense state
with analytic_state and reduces it with success_probability and expectation.
Both must agree within 1e-12 relative on random graphs, for every cost the
study commands drive, on starts that leave levels at zero weight, and at
huge counts.
"""

import math

import numpy as np
import pytest

from mdqo import (
    DegenerateCountsError,
    Graph,
    OutcomeCounts,
    ProblemInstance,
    StateVector,
    analytic_state,
    apply_rescaling,
    basis_state,
    build_mis,
    driving_hamiltonian,
    expectation,
    rescaling_from_bounds,
    spectrum_bounds,
    success_probability,
    uniform_superposition,
)
from mdqo import control
from mdqo.cli import main
from mdqo.control import level_moments, level_posterior, prepare_tables, weigh
from mdqo.problems import Bounds

from test_golden import COMMANDS, ROOT

COUNTS = [(0, 0), (0, 7), (5, 0), (4, 9), (50, 160), (10**6, 10**6 + 3), (10**300, 10**300)]
LAMBDAS = (0.7, 1.5, 3.0)


def random_graph(rng: np.random.Generator, n: int) -> Graph:
    return Graph(
        n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4)
    )


def instances(graph: Graph) -> list[ProblemInstance]:
    return [ProblemInstance(graph, "maxcut"), ProblemInstance(graph, "mis")] + [
        ProblemInstance(graph, "mis", lam) for lam in LAMBDAS
    ]


def starts(instance: ProblemInstance, rng: np.random.Generator) -> list[StateVector]:
    """Flat, random with zeroed entries, one basis state and, for penalised MIS,
    the dense feasible-uniform state: all but the first leave levels at weight 0."""
    n, basis = instance.graph.n, instance.cost.basis
    size = 2**n if basis is None else basis.size
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps[rng.random(size) < 0.5] = 0.0
    amps[0] = 1.0
    out = [
        uniform_superposition(n, basis),
        StateVector(n, amps / math.sqrt(float(np.sum(np.abs(amps) ** 2))), basis),
        basis_state(n, 0 if basis is None else int(basis[-1]), basis),
    ]
    if instance.penalty_weight is not None:
        feasible = (build_mis(instance.graph)[1].values == 0).astype(complex)
        out.append(StateVector(n, feasible / math.sqrt(feasible.sum().real)))
    return out


def dense_moments(instance, c, state0, counts):
    state, _ = analytic_state(state0, c, counts)
    penalty = None
    if instance.penalty_weight is not None:
        penalty = expectation(state, build_mis(instance.graph)[1])
    return success_probability(state, c), expectation(state, instance.cost), penalty


def level_path(tables, base, counts):
    return level_moments(tables, base, level_posterior(tables, base.w, counts))


GRAPHS = [random_graph(np.random.default_rng([7, n]), n) for n in range(3, 13)]


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_level_path_matches_the_dense_oracle(graph):
    rng = np.random.default_rng(graph.n)
    for instance in instances(graph):
        cost = instance.cost
        rescaling = rescaling_from_bounds(spectrum_bounds(cost, "brute-force"))
        c = apply_rescaling(rescaling, cost)
        tables = prepare_tables(instance, rescaling)
        for state0 in starts(instance, rng):
            base = weigh(tables, state0, instance.penalty_weight is not None)
            for k0, k1 in COUNTS:
                counts = OutcomeCounts(k0, k1)
                got = level_path(tables, base, counts)
                want = dense_moments(instance, c, state0, counts)
                assert (got[2] is None) == (instance.penalty_weight is None)
                for g, w in zip(got, want):
                    if w is not None:
                        assert math.isclose(g, w, rel_tol=1e-12), (instance, k0, k1, g, w)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_degenerate_counts_raise_where_the_oracle_raises():
    # bounds far below the spectrum put every rescaled cost near pi/4, where
    # cos**(10**308) underflows on every level; the sin side stays finite
    graph = Graph.from_1indexed(3, [(1, 2), (2, 3)])
    instance = ProblemInstance(graph, "maxcut")
    cost = driving_hamiltonian(instance)
    rescaling = rescaling_from_bounds(Bounds(100.0, 2.0, "user-supplied"))
    c = apply_rescaling(rescaling, cost)
    tables = prepare_tables(instance, rescaling)
    base = weigh(tables, uniform_superposition(3))
    for counts in (OutcomeCounts(10**308, 0), OutcomeCounts(10**308, 10**308)):
        with pytest.raises(DegenerateCountsError, match="vanish"):
            analytic_state(uniform_superposition(3), c, counts)
        with pytest.raises(DegenerateCountsError, match="vanish"):
            level_posterior(tables, base.w, counts)
    got = level_path(tables, base, OutcomeCounts(0, 10**308))
    want = dense_moments(instance, c, uniform_superposition(3), OutcomeCounts(0, 10**308))
    assert got[:2] == pytest.approx(want[:2], rel=1e-12)


def shipped_tables(monkeypatch, tmp_path) -> list:
    """The control tables every shipped config that builds them makes."""
    import mdqo.cli

    made = []

    def kept(instance, rescaling):
        made.append(prepare_tables(instance, rescaling))
        return made[-1]

    monkeypatch.setattr(control, "prepare_tables", kept)
    monkeypatch.setattr(mdqo.cli, "prepare_tables", kept)
    for name, command in sorted(COMMANDS.items()):
        if command in ("run", "sweep-counts", "postprocess"):
            config = str(ROOT / "configs" / name)
            assert main([command, "--config", config, "--out", str(tmp_path / name)]) == 0
    return made


def test_logs_taken_once_have_the_bits_of_logs_of_the_levels_reached(monkeypatch, tmp_path):
    # level_posterior reads log(x)[hit] from the tables where it took
    # log(x[hit]) on each call: on the shipped tables the two agree bit for
    # bit, for every set of levels a base can reach (a sample of them past
    # 2**12 sets)
    rng = np.random.default_rng(0)
    tables_seen = shipped_tables(monkeypatch, tmp_path)
    assert len(tables_seen) > len(COMMANDS) // 2
    for tables in tables_seen:
        resc = tables.rescaling
        angle = resc.epsilon * (resc.alpha + tables.h) + math.pi / 4
        size = angle.size
        if size <= 12:
            hits = [np.array([(m >> i) & 1 for i in range(size)], bool) for m in range(1, 2**size)]
        else:
            hits = list(np.eye(size, dtype=bool)) + list(rng.random((4096, size)) < 0.5)
        for x, logs in ((np.sin(angle) ** 2, tables.log_sin_sq), (np.cos(angle) ** 2, tables.log_cos_sq)):
            assert logs.tobytes() == np.log(x).tobytes()
            for hit in hits:
                assert logs[hit].tobytes() == np.log(x[hit]).tobytes()
