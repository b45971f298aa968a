"""Run one `mdqo` CLI invocation in this process, as `python -m mdqo` would.

    python3 child.py --mark FILE  -- <mdqo argv>   untraced
    python3 child.py --probe FILE -- <mdqo argv>   set-up only
    python3 child.py --spans FILE -- <mdqo argv>   traced

Untraced, the first call into a compute entry point writes the
CLOCK_MONOTONIC time to FILE and puts every original function back, so the
rest of the run executes unwrapped.  The parent subtracts its spawn time to
get the set-up time.  A probe exits at that first call instead.

Traced, the public functions of every mdqo module are wrapped where their
callers look them up.  Each call becomes a span (name, start, end, parent
index, note) kept in memory and written to FILE as JSON when main returns.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Calls after which the CLI has parsed its config and built its tables,
# rescaling and initial state: the boundary between set-up and compute.
COMPUTE_ENTRIES = (
    "outer_loop",
    "optimize_qaoa1",
    "analytic_state",
    "apply_mixer",
    "walk_monte_carlo",
    "expected_steps_surplus_bound",
    "expected_steps_with_reset_exact",
    "expected_steps_run",
)

# Public functions traced, by layer.  Cheap per-step helpers such as
# peak_position are left out: their wrapper would cost more than their body.
TRACED = {
    "problems": (
        "build_maxcut", "build_mis", "feasible_mask", "driving_hamiltonian",
        "cost_hamiltonian", "penalize", "spectrum_bounds", "rescaling_from_bounds",
        "apply_rescaling",
    ),
    "statevector": (
        "uniform_superposition", "basis_state", "apply_diagonal_phase",
        "apply_x_rotation_all", "apply_controlled_x_rotation", "expectation",
        "cost_distribution", "sample_bitstring",
    ),
    "weak_measurement": ("weak_step", "success_probability", "posterior_state", "analytic_state"),
    "mixers": ("apply_mixer", "optimize_qaoa1", "qaoa1_state", "feasible_initial_state"),
    "control": ("outer_loop", "run_algorithm1", "run_algorithm2", "prepare_tables"),
    "analysis": (
        "walk_monte_carlo", "expected_steps_with_reset_exact",
        "expected_steps_with_reset_closed_form", "expected_steps_surplus_bound",
        "expected_steps_run",
    ),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)


def _import_mdqo():
    import mdqo.cli

    if not Path(mdqo.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"mdqo was imported from {mdqo.__file__}, not from {SRC}")
    return [sys.modules[f"mdqo.{layer}"] for layer in LAYERS]


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_marked(mark: Path, argv: list[str], stop: bool) -> int:
    modules = _import_mdqo()
    cli = modules[-1]
    originals = [
        (cli, name, getattr(cli, name)) for name in COMPUTE_ENTRIES if hasattr(cli, name)
    ]

    def first_call(fn):
        def marked(*args, **kwargs):
            mark.write_text(repr(_monotonic()))
            if stop:
                os._exit(0)
            for module, name, orig in originals:
                setattr(module, name, orig)
            return fn(*args, **kwargs)

        return marked

    for module, name, orig in originals:
        setattr(module, name, first_call(orig))
    return cli.main(argv)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, note]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if note is not None:
                spans[idx][4] = note(result)
            return result

        return traced

    def install(self, modules) -> None:
        """Replace each traced function in every module that binds it by name."""
        notes = {"walk_monte_carlo": lambda r: r.capped}
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name in TRACED[layer]:
                fn = getattr(module, name, None)
                if fn is not None:
                    wrappers[id(fn)] = self.wrap(f"{layer}.{name}", fn, notes.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])


def run_traced(spans_path: Path, argv: list[str]) -> int:
    start = time.perf_counter()
    modules = _import_mdqo()
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(modules)
    code = modules[-1].main(argv)
    spans_path.write_text(json.dumps({"import_s": import_s, "spans": tracer.spans}))
    return code


def main() -> int:
    mode, path, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("--mark", "--probe", "--spans"):
        sys.exit(__doc__)
    sys.path.insert(0, str(SRC))
    if mode != "--spans":
        return run_marked(Path(path), argv, stop=mode == "--probe")
    return run_traced(Path(path), argv)


if __name__ == "__main__":
    sys.exit(main())
