"""Shared fixtures: the 5-vertex benchmark graph and its standard rescalings."""

import numpy as np
import pytest

from mdqo import (
    Bounds,
    DiagonalHamiltonian,
    Graph,
    ProblemInstance,
    StateVector,
    apply_rescaling,
    build_maxcut,
    build_mis,
    feasible_mask,
    rescaling_from_bounds,
    spectrum_bounds,
    uniform_superposition,
)

G5_EDGES_1INDEXED = [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (2, 5)]


@pytest.fixture(scope="session")
def g5():
    return Graph.from_1indexed(5, G5_EDGES_1INDEXED)


@pytest.fixture(scope="session")
def maxcut_h(g5):
    return build_maxcut(g5)


@pytest.fixture(scope="session")
def mis_pair(g5):
    return build_mis(g5)


@pytest.fixture(scope="session")
def mis_instance(g5):
    return ProblemInstance(g5, "mis")


@pytest.fixture(scope="session")
def tight_rescaling(maxcut_h):
    return rescaling_from_bounds(spectrum_bounds(maxcut_h, "brute-force"))


@pytest.fixture(scope="session")
def loose_rescaling(maxcut_h):
    return rescaling_from_bounds(spectrum_bounds(maxcut_h, "coefficient-sum"))


@pytest.fixture(scope="session")
def feasible_rescaling(mis_pair, mis_instance):
    """Tight rescaling of the bare MIS cost over the independent sets of g5."""
    return rescaling_from_bounds(feasible_bounds(mis_pair[0], feasible_mask(mis_instance)))


@pytest.fixture(scope="session")
def c_tight(maxcut_h, tight_rescaling):
    return apply_rescaling(tight_rescaling, maxcut_h)


@pytest.fixture(scope="session")
def c_loose(maxcut_h, loose_rescaling):
    return apply_rescaling(loose_rescaling, maxcut_h)


@pytest.fixture(scope="session")
def uniform5():
    return uniform_superposition(5)


def random_state(seed: int, n: int = 5) -> StateVector:
    """Haar-ish random dense state from a seeded generator."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def feasible_bounds(h: DiagonalHamiltonian, mask: np.ndarray) -> Bounds:
    """Brute-force bounds of a dense cost over the entries a mask marks, read off
    the values: the dense reference for the bounds of a cost on a basis."""
    vals = h.values[mask]
    return Bounds(0.0 - float(vals.min()), float(vals.max()), "brute-force")


def tight(h, mask=None):
    """Brute-force rescaling of a dense cost, over the entries mask marks if given."""
    bounds = spectrum_bounds(h, "brute-force") if mask is None else feasible_bounds(h, mask)
    return rescaling_from_bounds(bounds)


def rescaled_table(r, h: DiagonalHamiltonian) -> DiagonalHamiltonian:
    """The dense table epsilon * (alpha + h) built directly, unchecked: under a
    rescaling from feasible_bounds it leaves [0, pi/4] off the mask."""
    return DiagonalHamiltonian(h.n, r.epsilon * (r.alpha + h.values))
