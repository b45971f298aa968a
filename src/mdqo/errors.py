"""Error types shared across the package.

The CLI maps ConfigError to exit code 2 and CapacityError to exit code 3.
A run whose trajectory hits max_steps_per_trajectory (StepCapError) also
exits 2, with one "config error: run: no return criterion fired within N
steps; ..." line and no artifacts.  A study whose counts raise
DegenerateCountsError exits 2 the same way.  Everything else is an ordinary
ValueError/RuntimeError.
"""


class CapacityError(Exception):
    """Problem size exceeds a cap: DENSE_CAP qubits for dense tables, SUBSPACE_CAP
    independent sets (or 63 vertices) for feasible-subspace MIS, or GRID_CAP
    for the depth-1 grid."""


class ConfigError(Exception):
    """Experiment configuration is malformed or inconsistent."""


class StepCapError(RuntimeError):
    """No return criterion fired within the per-trajectory step cap."""


class DegenerateSpectrumError(ValueError):
    """Constant cost function: rescaling is undefined (s + t = 0)."""


class ZeroBranchError(ValueError):
    """Conditioning on a measurement outcome of (near-)zero probability."""


class DegenerateCountsError(ValueError):
    """Aggregated measurement weights vanish on the entire state support."""
