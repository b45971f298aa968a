"""The in-place rotation kernel against the index-array reference it replaced.

The reference gathers and scatters the (x, x | 2**u) pairs through index
arrays built from np.arange(2**n).  Every kernel caller must reproduce it
byte for byte and leave its input state untouched.  A state on the
independent sets must get, from the mixers, the bytes the reference gives
those strings, and the reference must leave exactly 0 on every other string.
"""

import math

import numpy as np
import pytest

from mdqo import (
    MIS_CONTROLLED,
    TRANSVERSE_FIELD,
    Graph,
    MixerSpec,
    StateVector,
    apply_controlled_x_rotation,
    apply_mixer,
    apply_x_rotation_all,
    feasible_initial_state,
)
from mdqo import statevector

from conftest import random_state


def reference_controlled_rotation(
    amps: np.ndarray, n: int, u: int, controls: tuple[int, ...], chi: float
) -> np.ndarray:
    """X rotation on qubit u where every control bit is 0, through index arrays."""
    amps = amps.copy()
    x = np.arange(2**n, dtype=np.int64)
    active = (x >> u) & 1 == 0
    for ctl in controls:
        active &= (x >> ctl) & 1 == 0
    rows = x[active]
    partners = rows | (1 << u)
    c, s = math.cos(chi), math.sin(chi)
    a0 = amps[rows]
    a1 = amps[partners]
    amps[rows] = c * a0 - 1j * s * a1
    amps[partners] = c * a1 - 1j * s * a0
    return amps


def reference_mixer(amps: np.ndarray, n: int, graph: Graph | None, chi: float) -> np.ndarray:
    """Transverse field (graph None) or mis-controlled mixer, one vertex at a time."""
    for u in range(n):
        controls = () if graph is None else graph.neighbors(u)
        amps = reference_controlled_rotation(amps, n, u, controls, chi)
    return amps


def random_graph(rng: np.random.Generator, n: int) -> Graph:
    return Graph(
        n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4)
    )


def special_graphs() -> list[Graph]:
    return [
        Graph(1, ()),  # a lone vertex: the whole state is one rotation pair
        Graph(4, ((0, 1), (1, 2))),  # vertex 3 is isolated
        Graph(5, tuple((0, v) for v in range(1, 5))),  # star
        # K4: every target is controlled on all other qubits (a 0-d view)
        Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4))),
        Graph(2, ((0, 1),)),
    ]


def all_graphs() -> list[Graph]:
    rng = np.random.default_rng(11)
    return [random_graph(rng, n) for n in range(1, 13)] + special_graphs()


def check_same(state: StateVector, out: StateVector, expected: np.ndarray, before: bytes):
    assert out.amps.tobytes() == expected.tobytes()
    assert state.amps.tobytes() == before


@pytest.mark.parametrize("graph", all_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
@pytest.mark.parametrize("chi", [0.0, 0.37, -1.1, math.pi / 2])
def test_mixers_match_reference(graph, chi):
    n = graph.n
    state = random_state(n + 100, n)
    before = state.amps.tobytes()
    for spec_graph, kind in ((None, TRANSVERSE_FIELD), (graph, MIS_CONTROLLED)):
        expected = reference_mixer(state.amps, n, spec_graph, chi)
        out = apply_mixer(state, MixerSpec(kind, chi, spec_graph))
        check_same(state, out, expected, before)
    expected = reference_mixer(state.amps, n, None, chi)
    check_same(state, apply_x_rotation_all(state, chi), expected, before)


@pytest.mark.parametrize("graph", all_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
def test_controlled_rotation_matches_reference(graph):
    n = graph.n
    state = random_state(n + 200, n)
    before = state.amps.tobytes()
    everyone = tuple(range(n))
    for u in range(n):
        others = everyone[:u] + everyone[u + 1:]
        # the neighborhood, no control, every other qubit (a 0-d view), and
        # the neighborhood listed twice
        for controls in (graph.neighbors(u), (), others, graph.neighbors(u) * 2):
            expected = reference_controlled_rotation(state.amps, n, u, controls, 0.81)
            out = apply_controlled_x_rotation(state, u, controls, 0.81)
            check_same(state, out, expected, before)


@pytest.mark.parametrize("graph", [g for g in all_graphs() if g.n <= 10], ids=lambda g: f"n{g.n}m{g.m}")
@pytest.mark.parametrize("block", [1, 4])
def test_blocked_rotation_matches_reference(graph, block, monkeypatch):
    # blocks of 1 or 4 pairs: each half spans many blocks, and a target
    # controlled on every other qubit still gets its one 0-d block
    monkeypatch.setattr(statevector, "_BLOCK", block)
    n = graph.n
    state = random_state(n + 300, n)
    before = state.amps.tobytes()
    for spec_graph, kind in ((None, TRANSVERSE_FIELD), (graph, MIS_CONTROLLED)):
        expected = reference_mixer(state.amps, n, spec_graph, 0.37)
        check_same(state, apply_mixer(state, MixerSpec(kind, 0.37, spec_graph)), expected, before)
    everyone = tuple(range(n))
    for u in range(n):
        others = everyone[:u] + everyone[u + 1:]
        expected = reference_controlled_rotation(state.amps, n, u, others, 0.81)
        check_same(state, apply_controlled_x_rotation(state, u, others, 0.81), expected, before)


@pytest.mark.parametrize("graph", all_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
def test_feasible_initial_state_matches_reference(graph):
    empty = np.zeros(2**graph.n, dtype=np.complex128)
    empty[0] = 1.0
    expected = reference_mixer(empty, graph.n, graph, 0.6)
    assert feasible_initial_state(graph, 0.6).amps.tobytes() == expected.tobytes()



def subspace_state(graph: Graph, seed: int) -> StateVector:
    """A random state on the graph's independent sets."""
    basis = graph.subspace.basis
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    return StateVector(graph.n, amps / np.linalg.norm(amps), basis)


def check_subspace(out: StateVector, expected: np.ndarray, basis: np.ndarray):
    """out holds the reference's bytes on basis, which holds every nonzero entry."""
    assert out.basis is basis
    assert out.amps.tobytes() == expected[basis].tobytes()
    off = np.ones(expected.size, dtype=bool)
    off[basis] = False
    assert np.all(expected[off] == 0)


@pytest.mark.parametrize("graph", all_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
@pytest.mark.parametrize("chi", [0.0, 0.37, -1.1, math.pi / 2])
def test_subspace_mixer_matches_reference(graph, chi):
    n = graph.n
    state = subspace_state(graph, n + 500)
    before = state.amps.tobytes()
    dense = np.zeros(2**n, dtype=np.complex128)
    dense[state.basis] = state.amps
    expected = reference_mixer(dense, n, graph, chi)
    check_subspace(apply_mixer(state, MixerSpec(MIS_CONTROLLED, chi, graph)), expected, state.basis)
    assert state.amps.tobytes() == before
    transverse = MixerSpec(TRANSVERSE_FIELD, chi)
    if graph.m:
        with pytest.raises(ValueError, match="transverse-field mixer puts amplitude"):
            apply_mixer(state, transverse)
    else:  # every string is independent: the transverse field keeps them all
        expected = reference_mixer(dense, n, None, chi)
        check_subspace(apply_mixer(state, transverse), expected, state.basis)


@pytest.mark.parametrize("graph", all_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
def test_subspace_initial_state_matches_reference(graph):
    empty = np.zeros(2**graph.n, dtype=np.complex128)
    empty[0] = 1.0
    expected = reference_mixer(empty, graph.n, graph, 0.6)
    state = feasible_initial_state(graph, 0.6, graph.subspace.basis)
    check_subspace(state, expected, graph.subspace.basis)


def test_subspace_mixer_rejects_another_basis():
    path, star = Graph(4, ((0, 1), (1, 2), (2, 3))), Graph(4, ((0, 1), (0, 2), (0, 3)))
    state = subspace_state(path, 1)
    with pytest.raises(ValueError, match="not the independent sets of the mixer's graph"):
        apply_mixer(state, MixerSpec(MIS_CONTROLLED, 0.3, star))
