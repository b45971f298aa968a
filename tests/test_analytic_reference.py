"""The cost-level closed form against the dense body it replaced.

analytic_state and success_probability evaluate their transcendentals once
per cost level (DiagonalHamiltonian.levels).  The references below are the
dense bodies, one evaluation per basis state; every state, log-norm, p1 and
error message must match them exactly.  One continuation per base, called
on many counts, must match analytic_state called once per counts.
"""

import math
import re
import warnings

import numpy as np
import pytest

from mdqo import (
    AnsatzParams,
    DegenerateCountsError,
    DiagonalHamiltonian,
    Graph,
    OutcomeCounts,
    StateVector,
    analytic_state,
    apply_rescaling,
    basis_state,
    build_maxcut,
    build_mis,
    continuation,
    penalize,
    posterior_state,
    qaoa1_state,
    rescaling_from_bounds,
    spectrum_bounds,
    success_probability,
    uniform_superposition,
)
from mdqo import statevector
from mdqo.problems import BOUND_TOL

from conftest import G5_EDGES_1INDEXED, feasible_bounds, rescaled_table

COUNTS = [(0, 0), (0, 3), (0, 11), (3, 0), (11, 0), (4, 9), (50, 160)]


def reference_support(state: StateVector, c: DiagonalHamiltonian) -> np.ndarray:
    if c.n != state.n:
        raise ValueError(f"dimension mismatch: state n={state.n}, cost n={c.n}")
    support = np.abs(state.amps) > 0
    if support.any():
        vals = c.values[support]
        if vals.min() < -BOUND_TOL or vals.max() > math.pi / 4 + BOUND_TOL:
            raise ValueError(
                f"rescaled cost must lie in [0, pi/4] on the state support; "
                f"found range [{vals.min()}, {vals.max()}]"
            )
    return support


def reference_analytic_state(
    state0: StateVector, c: DiagonalHamiltonian, counts: OutcomeCounts
) -> tuple[np.ndarray, float]:
    """Log-weights per basis state on the support, one normalising norm."""
    support = reference_support(state0, c)
    if not support.any():
        raise DegenerateCountsError("state has empty support")
    angle = np.clip(c.values[support], 0.0, math.pi / 4) + math.pi / 4
    logw = np.zeros(angle.shape, dtype=np.float64)
    with np.errstate(divide="ignore"):
        if counts.k0:
            logw += counts.k0 * np.log(np.cos(angle))
        if counts.k1:
            logw += counts.k1 * np.log(np.sin(angle))
    top = logw.max()
    amps = np.zeros_like(state0.amps)
    amps[support] = state0.amps[support] * np.exp(logw - top)
    norm = np.linalg.norm(amps)
    log_norm = float(top + np.log(norm))
    if not np.isfinite(log_norm):
        raise DegenerateCountsError.vanishing(counts.k0, counts.k1)
    amps /= norm
    return amps, log_norm


def reference_success_probability(state: StateVector, c: DiagonalHamiltonian) -> float:
    reference_support(state, c)
    mean_sin = float(np.sum(state.probabilities() * np.sin(2.0 * c.values)))
    return 0.5 + 0.5 * mean_sin


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, DegenerateCountsError) as exc:
        return type(exc), str(exc)


def check_same(state0: StateVector, c: DiagonalHamiltonian, k0: int, k1: int) -> None:
    counts = OutcomeCounts(k0, k1)
    got = outcome(analytic_state, state0, c, counts)
    expected = outcome(reference_analytic_state, state0, c, counts)
    if isinstance(expected[0], type):
        assert got == expected
        if expected[0] is ValueError:  # the support check the three share
            assert outcome(success_probability, state0, c) == expected
            assert outcome(posterior_state, state0, c, 1) == expected
        return
    state, log_norm = got
    assert state.amps.tobytes() == expected[0].tobytes()
    assert log_norm == expected[1]
    assert success_probability(state, c) == reference_success_probability(state, c)


def costs(graph: Graph) -> list[tuple[str, DiagonalHamiltonian, np.ndarray | None]]:
    """MaxCut, feasible-subspace MIS and penalised MIS cost tables of a graph.

    Each entry is (name, rescaled cost, feasible mask or None).  The
    feasible-subspace table is rescaled on the independent sets only, so its
    infeasible strings leave [0, pi/4]: below 0 for the penalised variant,
    above pi/4 for the bare cost.
    """
    maxcut = build_maxcut(graph)
    h, p = build_mis(graph)
    feasible = p.values == 0
    pen = penalize(h, p, 1.5)
    out = [("maxcut", maxcut, "brute-force", None), ("maxcut-loose", maxcut, "coefficient-sum", None)]
    out.append(("mis-feasible", h, "brute-force", feasible))
    out.append(("mis-feasible-penalised", pen, "brute-force", feasible))
    out.append(("mis-penalised", pen, "brute-force", None))
    tables = []
    for name, table, mode, support in out:
        if support is None:
            bounds = spectrum_bounds(table, mode)
        else:
            bounds = feasible_bounds(table, support)
        if bounds.s + bounds.t <= 0:
            continue  # a constant cost has no rescaling
        r = rescaling_from_bounds(bounds)
        c = apply_rescaling(r, table) if support is None else rescaled_table(r, table)
        tables.append((name, c, support))
    return tables


def starts(graph: Graph, feasible: np.ndarray | None, rng: np.random.Generator):
    """Uniform, basis, feasible-uniform and complex depth-1 start states."""
    n = graph.n
    out = [uniform_superposition(n), basis_state(n, int(rng.integers(2**n)))]
    if feasible is not None:
        amps = feasible / math.sqrt(feasible.sum())
        out.append(StateVector(n, amps))
        out.append(basis_state(n, int(rng.choice(np.flatnonzero(feasible)))))
    out.append(qaoa1_state(build_maxcut(graph), AnsatzParams(0.37, 0.81)))
    return out


def random_graph(rng: np.random.Generator, n: int) -> Graph:
    return Graph(
        n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4)
    )


def all_graphs() -> list[Graph]:
    rng = np.random.default_rng(29)
    return [Graph.from_1indexed(5, G5_EDGES_1INDEXED)] + [
        random_graph(rng, n) for n in range(1, 13)
    ]


@pytest.mark.parametrize("graph", all_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
def test_analytic_state_matches_reference(graph):
    rng = np.random.default_rng(graph.n)
    for _, c, feasible in costs(graph):
        for state0 in starts(graph, feasible, rng):
            for k0, k1 in COUNTS:
                check_same(state0, c, k0, k1)


def test_out_of_range_support_gives_the_dense_message():
    graph = Graph.from_1indexed(5, G5_EDGES_1INDEXED)
    (_, c, _), = [t for t in costs(graph) if t[0] == "mis-feasible-penalised"]
    outside = np.flatnonzero((c.values < 0) | (c.values > math.pi / 4))
    for state0 in (uniform_superposition(5), basis_state(5, int(outside[0]))):
        with pytest.raises(ValueError, match="rescaled cost must lie in"):
            analytic_state(state0, c, OutcomeCounts(1, 2))
        check_same(state0, c, 1, 2)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_degenerate_paths_give_the_dense_messages():
    c = DiagonalHamiltonian(2, [0.0, 0.3, math.pi / 4, 0.1])
    # every weight on the support underflows to zero: cos(pi/2)**(10**308)
    # counts from 1e15 on print in %.3g form, smaller ones in full
    with pytest.raises(DegenerateCountsError, match=r"vanish .* for counts \(1e\+308, 0\)$"):
        analytic_state(basis_state(2, 2), c, OutcomeCounts(10**308, 0))
    for k1, shown in ((10**15 - 1, "999999999999999"), (10**15, "1e+15")):
        message = re.escape(f"for counts (1e+308, {shown})") + "$"
        with pytest.raises(DegenerateCountsError, match=message):
            analytic_state(basis_state(2, 2), c, OutcomeCounts(10**308, k1))
    check_same(basis_state(2, 2), c, 10**308, 0)
    # a state with no support at all can only be built around the checks
    empty = object.__new__(StateVector)
    object.__setattr__(empty, "n", 2)
    object.__setattr__(empty, "amps", np.zeros(4, dtype=np.complex128))
    with pytest.raises(DegenerateCountsError, match="empty support"):
        analytic_state(empty, c, OutcomeCounts(1, 1))
    check_same(empty, c, 1, 1)


def test_signed_zeros():
    c = DiagonalHamiltonian(2, [0.0, -0.0, 0.5, -0.0])
    values, level = c.levels
    assert values.size == 2
    for x in range(4):
        for k0, k1 in COUNTS:
            check_same(basis_state(2, x), c, k0, k1)
    check_same(uniform_superposition(2), c, 4, 9)
    # an out-of-range message prints the dense values, signed zeros included
    check_same(uniform_superposition(2), DiagonalHamiltonian(2, [0.0, -0.0, 1.0, -0.0]), 1, 1)
    # negative zeros off the support come out as +0
    state0 = StateVector(2, np.array([complex(-0.0, -0.0), 0.6, 0.8j, complex(0.0, -0.0)]))
    for k0, k1 in COUNTS:
        check_same(state0, c, k0, k1)


@pytest.mark.parametrize("graph", all_graphs()[:4], ids=lambda g: f"n{g.n}m{g.m}")
def test_levels_table(graph):
    for _, c, _ in costs(graph):
        values, level = c.levels
        assert np.array_equal(values[level], c.values)
        assert np.all(np.diff(values) > 0)
        assert level.dtype == np.min_scalar_type(values.size - 1)
        assert not values.flags.writeable and not level.flags.writeable
        assert c.levels is c.levels


def check_continuation(state0: StateVector, c: DiagonalHamiltonian, counts: list) -> None:
    """One continuation of state0, called on every counts in turn, against a
    fresh analytic_state per counts: the same bytes, log-norms and messages.
    A base the support check rejects raises when its continuation is built,
    with the message every analytic_state call from it gives."""
    at = outcome(continuation, state0, c)
    for k0, k1 in counts:
        got = at if isinstance(at, tuple) else outcome(at, OutcomeCounts(k0, k1))
        expected = outcome(analytic_state, state0, c, OutcomeCounts(k0, k1))
        if isinstance(expected[0], type):
            assert got == expected
            continue
        assert got[0].amps.tobytes() == expected[0].amps.tobytes()
        assert got[0].basis is expected[0].basis is state0.basis
        assert got[1] == expected[1]


# every counts twice, in both orders: a call must leave nothing the next one reads
RUN = COUNTS + COUNTS[::-1]


def test_continuation_matches_analytic_state_per_call():
    graph = Graph.from_1indexed(5, G5_EDGES_1INDEXED)
    for _, c, feasible in costs(graph):
        for state0 in starts(graph, feasible, np.random.default_rng(3)):
            check_continuation(state0, c, RUN + [(0, 10**4), (3000, 0)])
    # partial support: a start after large counts has exact zeros on the
    # levels whose weights underflow
    (_, c, _), *_ = costs(graph)
    for counts in (OutcomeCounts(0, 10**4), OutcomeCounts(3000, 0)):
        start, _ = analytic_state(uniform_superposition(5), c, counts)
        assert 0 < np.count_nonzero(start.amps) < 32
        check_continuation(start, c, RUN)


def test_continuation_from_amplitudes_whose_squares_underflow():
    # after (0, 10^4) the lowest-cost entries left hold about 1e-218, and
    # (3000, 0) puts all the weight on them: the dense norm of the modulated
    # amplitudes underflows to 0, though the state is well defined
    graph = Graph.from_1indexed(5, G5_EDGES_1INDEXED)
    (_, c, _), *_ = costs(graph)
    start, _ = analytic_state(uniform_superposition(5), c, OutcomeCounts(0, 10**4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no log(0), no division by zero
        state, log_norm = continuation(start, c)(OutcomeCounts(3000, 0))
    assert math.isfinite(log_norm)
    assert math.isclose(np.linalg.norm(state.amps), 1.0, rel_tol=1e-15)
    # the log-norm summed in log space, one term per support entry
    support = np.abs(start.amps) > 0
    angle = c.values[support] + math.pi / 4
    terms = np.log(np.abs(start.amps[support])) + 3000 * np.log(np.cos(angle))
    peak = terms.max()
    expected = peak + 0.5 * math.log(np.sum(np.exp(2 * (terms - peak))))
    assert math.isclose(log_norm, expected, rel_tol=1e-12)
    lowest = c.values[support].min()
    assert np.all((np.abs(state.amps) > 0) == (support & (c.values == lowest)))


def test_continuation_on_a_feasible_subspace_basis():
    graph = Graph.from_1indexed(5, G5_EDGES_1INDEXED)
    cost = graph.subspace
    c = apply_rescaling(rescaling_from_bounds(spectrum_bounds(cost, "brute-force")), cost)
    flat = uniform_superposition(5, cost.basis)
    start, _ = analytic_state(flat, c, OutcomeCounts(3000, 0))
    assert 0 < np.count_nonzero(start.amps) < cost.basis.size
    for state0 in (flat, start):
        check_continuation(state0, c, RUN)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_continuation_degenerate_counts_and_empty_support():
    c = DiagonalHamiltonian(2, [0.0, 0.3, math.pi / 4, 0.1])
    # the vanishing counts raise at the same counts with the same message,
    # and the continuation still serves the counts after them
    run = [(1, 1), (10**308, 0), (2, 3), (10**308, 10**15), (0, 0)]
    for state0 in (basis_state(2, 2), uniform_superposition(2)):
        check_continuation(state0, c, run)
    with pytest.raises(DegenerateCountsError, match=r"\(1e\+308, 0\)$"):
        continuation(basis_state(2, 2), c)(OutcomeCounts(10**308, 0))
    # an empty support raises when the continuation is built, before any counts
    empty = object.__new__(StateVector)
    object.__setattr__(empty, "n", 2)
    object.__setattr__(empty, "amps", np.zeros(4, dtype=np.complex128))
    object.__setattr__(empty, "basis", None)
    with pytest.raises(DegenerateCountsError, match="empty support"):
        continuation(empty, c)


@pytest.mark.parametrize("graph", all_graphs()[:7], ids=lambda g: f"n{g.n}m{g.m}")
def test_blocked_continuation_matches_reference(graph, monkeypatch):
    # blocks of 4 entries: the weights are gathered across many block
    # boundaries, and a basis of independent sets ends in a partial block
    monkeypatch.setattr(statevector, "_BLOCK", 4)
    rng = np.random.default_rng(graph.n)
    for _, c, feasible in costs(graph):
        for state0 in starts(graph, feasible, rng):
            for k0, k1 in COUNTS:
                check_same(state0, c, k0, k1)
    cost = graph.subspace
    if cost.values.min() < cost.values.max():
        c = apply_rescaling(rescaling_from_bounds(spectrum_bounds(cost, "brute-force")), cost)
        for k0, k1 in COUNTS:
            check_same(uniform_superposition(graph.n, cost.basis), c, k0, k1)


def modulated(
    state0: StateVector, c: DiagonalHamiltonian, counts: OutcomeCounts
) -> tuple[np.ndarray, float, int]:
    """The modulated amplitudes, weighed per entry, before the one
    normalisation: brought up by 2**shift where their squares underflow,
    their norm, and shift."""
    support = np.abs(state0.amps) > 0
    angle = np.clip(c.values[support], 0.0, math.pi / 4) + math.pi / 4
    logw = counts.k0 * np.log(np.cos(angle)) + counts.k1 * np.log(np.sin(angle))
    amps = np.zeros_like(state0.amps)
    amps[support] = state0.amps[support] * np.exp(logw - logw.max())
    norm, shift = np.linalg.norm(amps), 0
    if norm < 2.0**-500:
        parts = amps.view(np.float64)
        shift = -math.frexp(float(np.abs(amps).max()))[1]
        np.ldexp(parts, shift, out=parts)
        norm = math.sqrt(np.sum(parts * parts))
    return amps, norm, shift


def test_signed_zero_parts_normalise_as_a_division():
    # -0 real parts, -0 imaginary parts and (-0, -0), beside parts of both
    # signs, on cost 0 with amplitudes near 1e-200 and on higher costs with
    # normal ones; (3000, 0) makes every weight off cost 0 vanish, so the
    # squares of what is left underflow
    c = DiagonalHamiltonian(4, [0.0] * 6 + [0.3, 0.5, 0.3, math.pi / 4] * 2 + [0.5, 0.3])
    tiny = 1e-200
    parts = np.array([
        [-0.0, tiny], [-tiny, -0.0], [tiny, -0.0], [-0.0, -tiny], [-0.0, -0.0], [tiny, tiny],
        [-0.0, 0.6], [0.5, -0.0], [-0.4, -0.0], [-0.0, -0.3], [-0.0, -0.0], [0.0, -0.0],
        [-0.0, 0.0], [0.2, -0.7], [-0.1, 0.3], [-0.8, -0.2],
    ])
    parts[6:] /= math.sqrt(np.sum(parts[6:] ** 2))  # a real divisor keeps every sign
    state0 = StateVector(4, parts.view(np.complex128).ravel())
    shifts, flips = [], 0
    for counts in (OutcomeCounts(0, 0), OutcomeCounts(1, 2), OutcomeCounts(3000, 0)):
        amps, norm, shift = modulated(state0, c, counts)
        expected = amps.copy()
        expected /= norm
        for state in (continuation(state0, c)(counts)[0], analytic_state(state0, c, counts)[0]):
            assert state.amps.tobytes() == expected.tobytes()
        scaled = amps.view(np.float64) * (1.0 / norm)
        flips += np.count_nonzero(np.signbit(scaled) != np.signbit(expected.view(np.float64)))
        shifts.append(shift)
    # both branches ran, and a product alone would have kept some -0 parts
    assert shifts[0] == shifts[1] == 0 and shifts[2] > 0
    assert flips > 0
