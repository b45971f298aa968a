"""Experiment runner: JSON configs in, CSV/JSON artifacts out.

Subcommands
-----------
sweep-counts    cost/success curves of analytic aggregated-outcome states
postprocess     cost densities and a summary table for uniform / depth-1 /
                after-success states
scramble-study  effect of mixer scrambling on a stuck aggregated state
run             stochastic control-loop trajectories under a budget
walk            walk-model analytics: exact recurrence, closed forms, Monte Carlo

Every command reads and checks its whole config, through one `_Block` per JSON
object, before its first compute call; each message names the full key path.
Every invocation writes a JSON sidecar with the resolved config and seed next
to its data files.  CSV files carry a header row and 12-significant-digit
floats.  Exit codes: 0 success, 2 configuration error (including a --seed
below 0, negative outcome counts and a run whose criteria never fire within
run.max_steps_per_trajectory), 3 capacity error; logs go to standard error.
--threads is accepted and echoed into the run sidecar but has no effect:
trajectories always run sequentially.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    MC_STEP_CAP,
    WalkModel,
    expected_steps_run,
    expected_steps_surplus_bound,
    expected_steps_with_reset_closed_form,
    walk_monte_carlo,
)
from .control import (
    DEFAULT_MAX_STEPS,
    Budget,
    CriteriaConfig,
    OuterConfig,
    outer_loop,
    trajectory_rng,
)
from .errors import CapacityError, ConfigError, DegenerateSpectrumError, StepCapError
from .mixers import (
    MIS_CONTROLLED,
    TRANSVERSE_FIELD,
    MixerSpec,
    apply_mixer,
    feasible_initial_state,
    optimize_qaoa1,
    qaoa1_state,
)
from .problems import (
    DiagonalHamiltonian,
    Graph,
    InstanceTables,
    ProblemInstance,
    Rescaling,
    apply_rescaling,
    driving_hamiltonian,
    instance_tables,
    parse_edge_list,
    penalize,
    rescaling_from_bounds,
    spectrum_bounds,
)
from .statevector import (
    StateVector,
    basis_state,
    bitstring_to_index,
    cost_distribution,
    expectation,
    index_to_bitstring,
    uniform_superposition,
)
from .weak_measurement import OutcomeCounts, analytic_state, success_probability

log = logging.getLogger("mdqo")

CHI_TILDE_UNIT = math.pi / 28  # chi = chi_tilde * (1/7) * (pi/4)

_BOUND_SHORTHAND = {
    "tight": {"name": "tight", "mode": "brute-force"},
    "loose": {"name": "loose", "mode": "coefficient-sum"},
}
_BOUND_MODES = ("brute-force", "coefficient-sum", "user-supplied")
_INITIAL_KINDS = ("uniform", "feasible-uniform", "basis", "qaoa1", "mixer-prepared")
_MIXER_KINDS = (TRANSVERSE_FIELD, MIS_CONTROLLED)


# ---------------------------------------------------------------------------
# config reader


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past 4300 digits
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("top-level config must be a JSON object")
    return obj


_REQUIRED = object()
_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string"}


def _value(value, path: str, kind: type, minimum=None, choices=None, null: bool = False):
    """One config value: its type (ints pass as numbers), then its range or choices."""
    if null and value is None:
        return None
    # float() of an int overflows from 2**1024 - 2**970 up (it rounds to 2**1024)
    if kind is float and type(value) is int and abs(value) < 2**1024 - 2**970:
        value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ConfigError(f"{path} must be {_TYPE_NAMES[kind]}, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path} must be one of {choices}, got {value!r}")
    if minimum is not None and value < minimum:
        bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ConfigError(f"{path} must be {bound}, got {value!r}")
    return value


def _nonempty_list(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a nonempty list")
    return value


def _pair(value, path: str, kind: type, minimum=None) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path} must be a pair")
    return tuple(_value(v, f"{path}[{i}]", kind, minimum) for i, v in enumerate(value))


class _Block:
    """One JSON object of a config, read through typed getters.

    Built once per object from its key path ("" at the top level) and its
    required and optional keys, so unknown and missing keys fail at once.
    Getters return `default` for an absent key and name the full key path
    in every message.
    """

    def __init__(self, data, path: str, required=(), optional=()) -> None:
        if not isinstance(data, dict):
            raise ConfigError(f"{path} must be an object")
        self.data, self.path = data, path
        for key in data:
            if key not in required and key not in optional:
                raise ConfigError(f"unknown key {self.key(key)}")
        for key in required:
            if key not in data:
                raise ConfigError(f"missing required key {self.key(key)}")

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def key(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def raw(self, key: str, default=_REQUIRED):
        if key in self.data:
            return self.data[key]
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {self.key(key)}")
        return default

    def get(self, key, kind: type, default=_REQUIRED, minimum=None, choices=None, null=False):
        if key not in self.data and default is not _REQUIRED:
            return default
        return _value(self.raw(key), self.key(key), kind, minimum, choices, null)

    def items(self, key, kind: type, default=_REQUIRED, minimum=None, choices=None, null=False):
        """A nonempty list, every entry checked as by get."""
        path = self.key(key)
        values = _nonempty_list(self.raw(key, default), path)
        return [_value(v, f"{path}[{i}]", kind, minimum, choices, null)
                for i, v in enumerate(values)]

    def pair(self, key: str, kind: type, minimum=None) -> tuple:
        return _pair(self.raw(key), self.key(key), kind, minimum)

    def block(self, key: str, required=(), optional=()) -> _Block:
        """The nested object at key; an absent one reads as empty."""
        return _Block(self.data.get(key, {}), self.key(key), required, optional)

    def grid(self, key: str, minimum=None) -> list[int]:
        """An int list, {"values": [...]} or an inclusive {"start", "stop", "step"} range."""
        if isinstance(self.data.get(key), list):
            return self.items(key, int, minimum=minimum)
        grid = self.block(key, (), ("values", "start", "stop", "step"))
        if "values" in grid:
            if any(k in grid for k in ("start", "stop", "step")):
                raise ConfigError(f"{grid.path}: give either values or start/stop/step, not both")
            return grid.items("values", int, minimum=minimum)
        start = grid.get("start", int, minimum=minimum)
        stop = grid.get("stop", int)
        step = grid.get("step", int, 1, minimum=1)
        if stop < start:
            raise ConfigError(f"{grid.path}: stop < start")
        return list(range(start, stop + 1, step))


def _parse_problem(cfg: _Block) -> ProblemInstance:
    problem = cfg.block("problem", ("kind", "graph"), ("penalty_weight",))
    kind = problem.get("kind", str, choices=("maxcut", "mis"))
    from_file = isinstance(problem.data["graph"], dict) and "path" in problem.data["graph"]
    graph_block = problem.block("graph", ("path",) if from_file else ("n", "edges"))
    try:
        if from_file:
            graph = parse_edge_list(Path(graph_block.get("path", str)).read_text())
        else:
            edges = graph_block.key("edges")
            pairs = [
                _pair(e, f"{edges}[{i}]", int)
                for i, e in enumerate(_nonempty_list(graph_block.raw("edges"), edges))
            ]
            graph = Graph.from_1indexed(graph_block.get("n", int), pairs)
    except OSError as exc:
        raise ConfigError(f"cannot read graph file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"problem.graph: {exc}") from exc
    penalty = problem.get("penalty_weight", float, None)
    try:
        return ProblemInstance(graph=graph, kind=kind, penalty_weight=penalty)
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from exc


def _bound_entry(value, path: str, named: bool = True) -> dict:
    """A spectrum-bound entry: a shorthand, or an object with a mode.

    Named entries (the study commands' bound lists) may be a shorthand and
    must carry a name; the run's rescaling block names itself after its mode
    by default.
    """
    if named and isinstance(value, str):
        if value not in _BOUND_SHORTHAND:
            raise ConfigError(f"{path}: unknown bound shorthand {value!r}")
        return dict(_BOUND_SHORTHAND[value])
    block = _Block(value, path, ("name", "mode") if named else ("mode",), ("name", "bounds"))
    mode = block.get("mode", str, choices=_BOUND_MODES)
    entry = {"name": block.get("name", str, mode), "mode": mode}
    if mode == "user-supplied":
        entry["bounds"] = block.pair("bounds", float)
    elif "bounds" in block:
        raise ConfigError(f"{path}.bounds only applies to user-supplied mode")
    return entry


def _resolve_rescaling(
    entry: dict, h: DiagonalHamiltonian, support
) -> tuple[Rescaling, dict]:
    """Build the rescaling for a normalized bound entry; returns it plus an echo dict."""
    user = entry["bounds"] if entry["mode"] == "user-supplied" else None
    try:
        bounds = spectrum_bounds(h, entry["mode"], support=support, user=user)
        rescaling = rescaling_from_bounds(bounds)
    except (ValueError, DegenerateSpectrumError) as exc:
        raise ConfigError(f"bound {entry['name']!r}: {exc}") from exc
    echo = {"name": entry["name"], "mode": entry["mode"], "s": bounds.s, "t": bounds.t,
            "alpha": rescaling.alpha, "epsilon": rescaling.epsilon}
    return rescaling, echo


def _rescaled(
    entry: dict, h: DiagonalHamiltonian, support=None
) -> tuple[DiagonalHamiltonian, dict]:
    """The rescaled cost table of a study command, plus its echo dict.

    Coefficient-sum bounds of a penalised MIS cost are not honest on every
    graph (an isolated vertex lowers the minimum), so the range check of
    apply_rescaling is a config error too.
    """
    rescaling, echo = _resolve_rescaling(entry, h, support)
    try:
        return apply_rescaling(rescaling, h, support), echo
    except ValueError as exc:
        raise ConfigError(f"bound {entry['name']!r}: {exc}") from exc


def _parse_criteria(cfg: _Block) -> CriteriaConfig:
    block = cfg.block(
        "criteria", (), ("threshold_T", "surplus_L", "ceiling_KT", "reset_R", "min_steps_ell")
    )
    try:
        return CriteriaConfig(
            threshold_T=block.get("threshold_T", float, None),
            surplus_L=block.get("surplus_L", int, None),
            ceiling_KT=block.get("ceiling_KT", int, None),
            reset_R=block.get("reset_R", int, None),
            min_steps_ell=block.get("min_steps_ell", int, 0),
        )
    except ValueError as exc:
        raise ConfigError(f"criteria: {exc}") from exc


def _chi(chi_tilde: int, path: str) -> float:
    """The mixer angle of an integer chi_tilde, which must convert to a float."""
    return _value(chi_tilde, path, float) * CHI_TILDE_UNIT


def _parse_mixer(cfg: _Block, graph: Graph, required: bool) -> MixerSpec | None:
    if "mixer" not in cfg:
        if required:
            raise ConfigError("missing required key mixer (algorithm 2 needs one)")
        return None
    block = cfg.block("mixer", ("kind",), ("chi", "chi_tilde"))
    kind = block.get("kind", str, choices=_MIXER_KINDS)
    if ("chi" in block) == ("chi_tilde" in block):
        raise ConfigError("mixer: give exactly one of chi or chi_tilde")
    if "chi" in block:
        chi = block.get("chi", float)
    else:
        chi = _chi(block.get("chi_tilde", int), block.key("chi_tilde"))
    return MixerSpec(kind=kind, chi=chi, graph=graph if kind == MIS_CONTROLLED else None)


def _feasible_uniform(n: int, mask: np.ndarray) -> StateVector:
    amps = mask.astype(np.complex128)
    amps /= math.sqrt(int(mask.sum()))
    return StateVector(n, amps)


def _parse_initial_state(cfg: _Block, instance: ProblemInstance) -> dict:
    """The checked initial-state block, as the echo dict the state is built from."""
    if "initial_state" not in cfg:
        return {"kind": "uniform"}
    block = cfg.block("initial_state", ("kind",), ("bitstring", "grid_resolution", "chi0"))
    echo: dict = {"kind": block.get("kind", str, choices=_INITIAL_KINDS)}
    n = instance.graph.n
    if echo["kind"] == "feasible-uniform" and instance.kind != "mis":
        raise ConfigError("initial_state: feasibility is defined for MIS instances only")
    if echo["kind"] == "basis":
        bits = echo["bitstring"] = block.get("bitstring", str)
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise ConfigError(f"initial_state.bitstring must be {n} characters 0 or 1")
    elif echo["kind"] == "qaoa1":
        echo["grid_resolution"] = block.get("grid_resolution", int, 256, minimum=2)
    elif echo["kind"] == "mixer-prepared":
        echo["chi0"] = block.get("chi0", float)
        if instance.kind != "mis":
            raise ConfigError("initial_state: mixer-prepared applies to MIS instances")
    return echo


def _initial_state(echo: dict, instance: ProblemInstance, tables: InstanceTables) -> StateVector:
    """Build the state a checked initial-state echo describes; qaoa1 adds its angles."""
    n = instance.graph.n
    kind = echo["kind"]
    if kind == "uniform":
        return uniform_superposition(n)
    if kind == "feasible-uniform":
        return _feasible_uniform(n, tables.feasible)
    if kind == "basis":
        return basis_state(n, bitstring_to_index(echo["bitstring"]))
    if kind == "qaoa1":
        params = optimize_qaoa1(tables.drive, echo["grid_resolution"])
        echo.update(gamma=params.gamma, beta=params.beta)
        return qaoa1_state(tables.drive, params)
    return feasible_initial_state(instance.graph, echo["chi0"])


def _resolve_seed(config: dict, cli_seed: int | None, required: bool) -> int | None:
    seed = _value(config.get("seed"), "seed", int, minimum=0, null=True)
    if cli_seed is not None:
        seed = _value(cli_seed, "--seed", int, minimum=0)
    if required and seed is None:
        raise ConfigError("a seed is required for stochastic runs (config key seed or --seed)")
    return seed


# ---------------------------------------------------------------------------
# artifact writers


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])
    log.info("wrote %s (%d rows)", path, len(rows))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    log.info("wrote %s", path)


def _write_sidecar(outdir: Path, command: str, config: dict, seed, extra: dict) -> None:
    payload = {"command": command, "config": config, "resolved": dict(extra), "seed": seed}
    _write_json(outdir / f"{command.replace('-', '_')}_config.json", payload)


# ---------------------------------------------------------------------------
# sweep-counts


def cmd_sweep_counts(config: dict, outdir: Path, seed) -> None:
    cfg = _Block(config, "", ("problem", "sweep"), ("seed",))
    instance = _parse_problem(cfg)
    sweep = cfg.block("sweep", ("k0", "bounds", "surplus_grid"), ("variants", "penalty_weights"))
    k0_list = sweep.items("k0", int, minimum=0)
    surplus = sweep.grid("surplus_grid", minimum=0)
    bound_entries = [
        _bound_entry(e, f"sweep.bounds[{i}]")
        for i, e in enumerate(_nonempty_list(sweep.raw("bounds"), "sweep.bounds"))
    ]

    # (label, driving cost, extra reported cost P, support, initial state)
    n = instance.graph.n
    uniform = uniform_superposition(n)
    if instance.kind == "maxcut":
        if "variants" in sweep or "penalty_weights" in sweep:
            raise ConfigError("sweep.variants/penalty_weights apply to MIS instances only")
        variants = [("maxcut", driving_hamiltonian(instance), None, None, uniform)]
    else:
        kinds = sweep.items(
            "variants",
            str,
            ["feasible", "penalized"] if "penalty_weights" in sweep else ["feasible"],
            choices=("feasible", "penalized"),
        )
        lams = sweep.items("penalty_weights", float, minimum=0) if "penalized" in kinds else []
        bare = instance_tables(ProblemInstance(instance.graph, "mis"))
        variants = []
        if "feasible" in kinds:
            initial = _feasible_uniform(n, bare.support)
            variants.append(("feasible", bare.drive, None, bare.support, initial))
        for lam in lams:
            h_pen = penalize(bare.drive, bare.violations, lam)
            variants.append((f"penalized_lam{lam:g}", h_pen, bare.violations, None, uniform))

    scaled = []
    echoes: list[dict] = []
    for label, h_drive, h_extra, support, initial in variants:
        for entry in bound_entries:
            c, echo = _rescaled(entry, h_drive, support)
            echo["variant"] = label
            echoes.append(echo)
            scaled.append((f"{label}_{entry['name']}", h_drive, h_extra, initial, c))

    headers: list[str] = ["L"]
    columns: list[list[float]] = []
    for name, h_drive, h_extra, initial, c in scaled:
        for k0 in k0_list:
            col_h: list[float] = []
            col_p1: list[float] = []
            col_extra: list[float] = []
            for ell in surplus:
                state, _ = analytic_state(initial, c, OutcomeCounts(k0, k0 + ell))
                col_h.append(expectation(state, h_drive))
                col_p1.append(success_probability(state, c))
                if h_extra is not None:
                    col_extra.append(expectation(state, h_extra))
            prefix = f"{name}_k0_{k0}"
            headers += [f"H_{prefix}", f"p1_{prefix}"]
            columns += [col_h, col_p1]
            if h_extra is not None:
                headers.append(f"P_{prefix}")
                columns.append(col_extra)

    rows = [[surplus[i]] + [col[i] for col in columns] for i in range(len(surplus))]
    _write_csv(outdir / "sweep_counts.csv", headers, rows)
    _write_sidecar(outdir, "sweep-counts", config, seed, {"rescalings": echoes})


# ---------------------------------------------------------------------------
# postprocess


def cmd_postprocess(config: dict, outdir: Path, seed) -> None:
    cfg = _Block(config, "", ("problem",), ("postprocess", "seed"))
    instance = _parse_problem(cfg)
    post = cfg.block("postprocess", (), ("grid_resolution", "k1", "bound"))
    resolution = post.get("grid_resolution", int, 256, minimum=2)
    k1_list = post.items("k1", int, [1, 2, 3], minimum=0)
    bound_entry = _bound_entry(post.raw("bound", "tight"), "postprocess.bound")

    h = driving_hamiltonian(instance)
    c, echo = _rescaled(bound_entry, h)
    params = optimize_qaoa1(h, resolution)
    states: list[tuple[str, StateVector]] = [
        ("uniform", uniform_superposition(h.n)),
        ("qaoa1", qaoa1_state(h, params)),
    ]
    for k1 in k1_list:
        state, _ = analytic_state(states[1][1], c, OutcomeCounts(0, k1))
        states.append((f"qaoa1_k1_{k1}", state))

    dists = [(label, cost_distribution(state, h)) for label, state in states]
    # the uniform state weights every string, so its support lists all costs
    support = dists[0][1].support
    header = ["cost"] + [f"p_{label}" for label, _ in dists]
    rows = []
    for cost in support:
        mask = np.abs(h.values - cost) <= 1e-9
        row = [float(cost)]
        row += [float(np.sum(state.probabilities()[mask])) for _, state in states]
        rows.append(row)
    _write_csv(outdir / "postprocess_density.csv", header, rows)

    summary_rows = [[label, dist.mean] for label, dist in dists]
    _write_csv(outdir / "postprocess_summary.csv", ["state", "H"], summary_rows)
    qaoa1 = {"gamma": params.gamma, "beta": params.beta, "grid_resolution": resolution}
    _write_sidecar(outdir, "postprocess", config, seed, {"rescaling": echo, "qaoa1": qaoa1})


# ---------------------------------------------------------------------------
# scramble-study


def cmd_scramble_study(config: dict, outdir: Path, seed) -> None:
    cfg = _Block(config, "", ("problem", "scramble"), ("seed",))
    instance = _parse_problem(cfg)
    block = cfg.block("scramble", ("start_counts",), ("bound", "mixer_kind", "top", "bottom"))
    start_counts = OutcomeCounts(*block.pair("start_counts", int, minimum=0))
    bound_entry = _bound_entry(block.raw("bound", "tight"), "scramble.bound")
    mixer_kind = block.get("mixer_kind", str, TRANSVERSE_FIELD, choices=_MIXER_KINDS)
    if "top" not in block and "bottom" not in block:
        raise ConfigError("scramble: at least one of top/bottom panels is required")
    if "top" in block:
        top = block.block("top", ("k1_grid",), ("k0_tilde", "chi_tilde"))
        top_k0 = top.get("k0_tilde", int, 0, minimum=0)
        chi_tildes = top.items("chi_tilde", int, [1, 2, 3, 4, 5, 6])
        top_chis = {ct: _chi(ct, f"scramble.top.chi_tilde[{i}]")
                    for i, ct in enumerate(chi_tildes)}
        k1_grid = top.grid("k1_grid", minimum=0)
    if "bottom" in block:
        bottom = block.block("bottom", ("surplus_grid",), ("k0_tilde", "chi_tilde"))
        chi_t = bottom.get("chi_tilde", int, 3)
        bottom_chi = _chi(chi_t, "scramble.bottom.chi_tilde")
        k0_tildes = bottom.items("k0_tilde", int, [0, 1, 2, 3], minimum=0)
        surplus = bottom.grid("surplus_grid", minimum=0)

    h = driving_hamiltonian(instance)
    c, echo = _rescaled(bound_entry, h)
    initial = uniform_superposition(h.n)
    start, _ = analytic_state(initial, c, start_counts)

    mixer_graph = instance.graph if mixer_kind == MIS_CONTROLLED else None

    def scramble(chi: float) -> StateVector:
        return apply_mixer(start, MixerSpec(mixer_kind, chi, mixer_graph))

    def continued(base: StateVector, k0: int, k1: int) -> float:
        state, _ = analytic_state(base, c, OutcomeCounts(k0, k1))
        return expectation(state, h)

    resolved: dict = {"rescaling": echo, "start_counts": [start_counts.k0, start_counts.k1]}

    if "top" in block:
        scrambled = {ct: scramble(chi) for ct, chi in top_chis.items()}
        header = ["k1_tilde", "H_baseline"] + [f"H_chi_{ct}" for ct in chi_tildes]
        rows = []
        for k1 in k1_grid:
            row = [k1, continued(start, top_k0, k1)]
            row += [continued(scrambled[ct], top_k0, k1) for ct in chi_tildes]
            rows.append(row)
        _write_csv(outdir / "scramble_top.csv", header, rows)
        resolved["top"] = {"k0_tilde": top_k0, "chi_tilde": chi_tildes}

    if "bottom" in block:
        scrambled = scramble(bottom_chi)
        header = ["L_tilde"]
        for k0_t in k0_tildes:
            header += [f"H_k0_{k0_t}", f"H_baseline_k0_{k0_t}"]
        rows = []
        for ell in surplus:
            row: list = [ell]
            for k0_t in k0_tildes:
                row.append(continued(scrambled, k0_t, k0_t + ell))
                row.append(continued(start, k0_t, k0_t + ell))
            rows.append(row)
        _write_csv(outdir / "scramble_bottom.csv", header, rows)
        resolved["bottom"] = {"chi_tilde": chi_t, "k0_tilde": k0_tildes}

    _write_sidecar(outdir, "scramble-study", config, seed, resolved)


# ---------------------------------------------------------------------------
# run


def cmd_run(config: dict, outdir: Path, seed, threads: int) -> None:
    cfg = _Block(
        config, "", ("problem", "rescaling", "criteria", "run"), ("initial_state", "mixer", "seed")
    )
    instance = _parse_problem(cfg)
    entry = _bound_entry(cfg.raw("rescaling"), "rescaling", named=False)
    run = cfg.block(
        "run",
        ("algorithm", "budget"),
        ("adaptive_threshold", "surplus_delta", "max_steps_per_trajectory", "trajectory_csv"),
    )
    algorithm = run.get("algorithm", int, choices=(1, 2))
    budget = run.block("budget", (), ("max_trajectories", "max_total_steps", "target_cost"))
    try:
        budget = Budget(
            max_trajectories=budget.get("max_trajectories", int, None, null=True),
            max_total_steps=budget.get("max_total_steps", int, None, null=True),
            target_cost=budget.get("target_cost", float, None, null=True),
        )
    except ValueError as exc:
        raise ConfigError(f"run: {exc}") from exc
    options = {
        "adaptive_threshold": run.get("adaptive_threshold", bool, False),
        "surplus_delta": run.get("surplus_delta", int, 0),
        "max_steps_per_trajectory": run.get("max_steps_per_trajectory", int, DEFAULT_MAX_STEPS),
    }
    trajectory_csv = run.get("trajectory_csv", bool, False)
    criteria = _parse_criteria(cfg)
    mixer = _parse_mixer(cfg, instance.graph, required=algorithm == 2)
    initial_echo = _parse_initial_state(cfg, instance)

    tables = instance_tables(instance)
    rescaling, echo = _resolve_rescaling(entry, tables.drive, tables.support)
    try:
        # checked before the initial state, whose qaoa1 kind runs a grid search
        outer = OuterConfig(algorithm, rescaling, None, criteria, mixer, **options)
    except ValueError as exc:
        raise ConfigError(f"run: {exc}") from exc
    initial = _initial_state(initial_echo, instance, tables)
    outer = dataclasses.replace(outer, initial_state=initial)

    try:
        summary = outer_loop(instance, outer, budget, seed)
    except (ValueError, StepCapError) as exc:
        # Setup-consistency failures (threshold range, infeasible support,
        # unreachable criteria, ...)
        raise ConfigError(f"run: {exc}") from exc

    n = instance.graph.n
    payload = {
        "best_bitstring": summary.best_bitstring,
        "best_bitstring_text": index_to_bitstring(summary.best_bitstring, n),
        "best_cost": summary.best_cost,
        "cost_histogram": {f"{c:.12g}": k for c, k in summary.cost_histogram.items()},
        "param_log": list(summary.param_log),
        "seed": seed,
        "total_steps": summary.total_steps,
        "trajectories_run": summary.trajectories_run,
    }
    _write_json(outdir / "run_summary.json", payload)

    if trajectory_csv:
        header = [
            "index", "steps", "k0", "k1", "scrambles",
            "terminal_reason", "final_sample", "final_cost",
        ]
        rows = [
            [i, traj.steps, traj.counts.k0, traj.counts.k1, len(traj.scramble_events),
             traj.terminal_reason, index_to_bitstring(traj.final_sample, n), traj.final_cost]
            for i, traj in enumerate(summary.trajectories)
        ]
        _write_csv(outdir / "trajectories.csv", header, rows)

    resolved = {"rescaling": echo, "initial_state": initial_echo, "threads": threads}
    _write_sidecar(outdir, "run", config, seed, resolved)


# ---------------------------------------------------------------------------
# walk


def cmd_walk(config: dict, outdir: Path, seed) -> None:
    cfg = _Block(config, "", ("walk",), ("seed",))
    block = cfg.block("walk", ("p", "L"), ("R", "mc_trials", "mc_step_cap", "include_run_rule"))
    p_list = block.items("p", float)
    l_list = block.items("L", int)
    r_values = block.items("R", int, [None], null=True)
    trials = block.get("mc_trials", int, 0, minimum=0)
    # The cap counts aggregate steps, so one below mc_trials never takes a step.
    step_cap = block.get("mc_step_cap", int, MC_STEP_CAP, minimum=max(trials, 1))
    include_run_rule = block.get("include_run_rule", bool, True)
    if trials > 0 and seed is None:
        raise ConfigError("walk: Monte Carlo trials need a seed (config key seed or --seed)")
    try:
        models = [WalkModel(p=p, L=length, R=r) for p in p_list for length in l_list
                  for r in r_values]
    except ValueError as exc:
        raise ConfigError(f"walk: {exc}") from exc

    stream = 0

    def next_rng() -> np.random.Generator:
        nonlocal stream
        rng = trajectory_rng(seed, stream)
        stream += 1
        return rng

    header = [
        "p", "L", "R", "exact", "bound",
        "closed_printed", "closed_corrected", "printed_matches", "corrected_matches",
        "mc_mean", "mc_stderr", "mc_capped", "mc_within_3sigma",
    ]
    rows = []
    for model in models:
        p, length, r = model.p, model.L, model.R
        bound = expected_steps_surplus_bound(p, length) if p > 0.5 else None
        if r is None:
            exact = bound  # the no-reset hitting time L/(2p-1) when it exists
            closed = None
        else:
            closed = expected_steps_with_reset_closed_form(model)
            exact = closed.exact
        row = [
            p, length, r, exact, bound,
            closed.printed if closed else None,
            closed.corrected if closed else None,
            closed.printed_matches if closed else None,
            closed.corrected_matches if closed else None,
        ]
        if trials > 0:
            mc = walk_monte_carlo(model, trials, next_rng(), max_total_steps=step_cap)
            within = (
                abs(mc.mean - exact) <= 3.0 * mc.stderr
                if exact is not None and mc.completed > 1
                else None
            )
            row += [mc.mean, mc.stderr, mc.capped, within]
        else:
            row += [None, None, None, None]
        rows.append(row)
    _write_csv(outdir / "walk.csv", header, rows)

    if include_run_rule:
        header2 = ["p", "L", "expected", "mc_mean", "mc_stderr", "mc_within_3sigma"]
        rows2 = []
        for p in p_list:
            for length in l_list:
                expected = expected_steps_run(p, length)
                row = [p, length, expected]
                if trials > 0:
                    mc = walk_monte_carlo(
                        WalkModel(p=p, L=length),
                        trials,
                        next_rng(),
                        rule="consecutive",
                        max_total_steps=step_cap,
                    )
                    within = (
                        abs(mc.mean - expected) <= 3.0 * mc.stderr
                        if mc.completed > 1
                        else None
                    )
                    row += [mc.mean, mc.stderr, within]
                else:
                    row += [None, None, None]
                rows2.append(row)
        _write_csv(outdir / "walk_runs.csv", header2, rows2)

    _write_sidecar(outdir, "walk", config, seed, {"mc_streams_used": stream})


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "sweep-counts": (cmd_sweep_counts, False),
    "postprocess": (cmd_postprocess, False),
    "scramble-study": (cmd_scramble_study, False),
    "run": (cmd_run, True),
    "walk": (cmd_walk, False),  # seed checked inside when MC is enabled
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mdqo",
        description="Measurement-driven optimization: simulators, sweeps, and walk analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=1, help="ignored; kept for compatibility")
    args = parser.parse_args(argv)

    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    handler, seed_required = _COMMANDS[args.command]
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be a positive integer")
        config = _load_config(args.config)
        seed = _resolve_seed(config, args.seed, required=seed_required)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        extra = {"threads": args.threads} if args.command == "run" else {}
        handler(config, outdir, seed, **extra)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except CapacityError as exc:
        log.error("capacity error: %s", exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
