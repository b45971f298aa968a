"""Experiment runner: JSON configs in, CSV/JSON artifacts out.

Subcommands
-----------
sweep-counts    cost/success curves of analytic aggregated-outcome states
postprocess     cost densities and a summary table for uniform / depth-1 /
                after-success states
scramble-study  effect of mixer scrambling on a stuck aggregated state
run             stochastic control-loop trajectories under a budget
walk            walk-model analytics: exact recurrence, closed forms, Monte Carlo

Every invocation writes a JSON sidecar with the resolved config and seed next
to its data files.  CSV files carry a header row and 12-significant-digit
floats.  Exit codes: 0 success, 2 configuration error (including a run whose
criteria never fire within run.max_steps_per_trajectory), 3 capacity error;
logs go to standard error.  --threads is accepted and echoed into the run
sidecar but has no effect: trajectories always run sequentially.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    WalkModel,
    expected_steps_run,
    expected_steps_surplus_bound,
    expected_steps_with_reset_closed_form,
    expected_steps_with_reset_exact,
    walk_monte_carlo,
)
from .control import (
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
    ProblemInstance,
    Rescaling,
    apply_rescaling,
    build_maxcut,
    build_mis,
    driving_hamiltonian,
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


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("top-level config must be a JSON object")
    return obj


def _check_keys(block, path: str, required: set[str], optional: set[str]) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{path} must be an object")
    for key in block:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {path}.{key}")
    for key in required:
        if key not in block:
            raise ConfigError(f"missing required key {path}.{key}")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    return float(value)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be a boolean, got {value!r}")
    return value


def _as_str(value, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path} must be one of {choices}, got {value!r}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a nonempty list")
    return value


def _parse_int_grid(block, path: str) -> list[int]:
    """Either {"values": [...]} or an inclusive {"start", "stop", "step"} range."""
    if isinstance(block, list):
        return [_as_int(v, f"{path}[]") for v in block]
    _check_keys(block, path, set(), {"values", "start", "stop", "step"})
    if "values" in block:
        if any(k in block for k in ("start", "stop", "step")):
            raise ConfigError(f"{path}: give either values or start/stop/step, not both")
        return [_as_int(v, f"{path}.values[]") for v in _as_list(block["values"], path)]
    for key in ("start", "stop"):
        if key not in block:
            raise ConfigError(f"missing required key {path}.{key}")
    start = _as_int(block["start"], f"{path}.start")
    stop = _as_int(block["stop"], f"{path}.stop")
    step = _as_int(block.get("step", 1), f"{path}.step")
    if step < 1:
        raise ConfigError(f"{path}.step must be positive")
    if stop < start:
        raise ConfigError(f"{path}: stop < start")
    return list(range(start, stop + 1, step))


def _parse_problem(config: dict) -> ProblemInstance:
    if "problem" not in config:
        raise ConfigError("missing required key problem")
    block = config["problem"]
    _check_keys(block, "problem", {"kind", "graph"}, {"penalty_weight"})
    kind = _as_str(block["kind"], "problem.kind", ("maxcut", "mis"))
    graph_block = block["graph"]
    if not isinstance(graph_block, dict):
        raise ConfigError("problem.graph must be an object")
    try:
        if "path" in graph_block:
            _check_keys(graph_block, "problem.graph", {"path"}, set())
            graph = parse_edge_list(Path(graph_block["path"]).read_text())
        else:
            _check_keys(graph_block, "problem.graph", {"n", "edges"}, set())
            n = _as_int(graph_block["n"], "problem.graph.n")
            edges = _as_list(graph_block["edges"], "problem.graph.edges")
            pairs = []
            for i, e in enumerate(edges):
                if not isinstance(e, list) or len(e) != 2:
                    raise ConfigError(f"problem.graph.edges[{i}] must be a pair")
                pairs.append((_as_int(e[0], "edge"), _as_int(e[1], "edge")))
            graph = Graph.from_1indexed(n, pairs)
    except OSError as exc:
        raise ConfigError(f"cannot read graph file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"problem.graph: {exc}") from exc
    penalty = None
    if "penalty_weight" in block:
        penalty = _as_number(block["penalty_weight"], "problem.penalty_weight")
    try:
        return ProblemInstance(graph=graph, kind=kind, penalty_weight=penalty)
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from exc


def _normalize_bound_entry(entry, path: str) -> dict:
    if isinstance(entry, str):
        if entry not in _BOUND_SHORTHAND:
            raise ConfigError(f"{path}: unknown bound shorthand {entry!r}")
        return dict(_BOUND_SHORTHAND[entry])
    _check_keys(entry, path, {"name", "mode"}, {"bounds"})
    mode = _as_str(
        entry["mode"], f"{path}.mode", ("brute-force", "coefficient-sum", "user-supplied")
    )
    out = {"name": _as_str(entry["name"], f"{path}.name"), "mode": mode}
    if mode == "user-supplied":
        if "bounds" not in entry:
            raise ConfigError(f"{path}: user-supplied mode requires bounds [s, t]")
        pair = entry["bounds"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{path}.bounds must be a pair [s, t]")
        out["bounds"] = [_as_number(pair[0], "s"), _as_number(pair[1], "t")]
    elif "bounds" in entry:
        raise ConfigError(f"{path}.bounds only applies to user-supplied mode")
    return out


def _resolve_rescaling(
    entry: dict, h: DiagonalHamiltonian, support
) -> tuple[Rescaling, dict]:
    """Build the rescaling for a normalized bound entry; returns it plus an echo dict."""
    user = tuple(entry["bounds"]) if entry["mode"] == "user-supplied" else None
    try:
        bounds = spectrum_bounds(h, entry["mode"], support=support, user=user)
        rescaling = rescaling_from_bounds(bounds)
    except (ValueError, DegenerateSpectrumError) as exc:
        raise ConfigError(f"bound {entry['name']!r}: {exc}") from exc
    echo = {
        "name": entry["name"],
        "mode": entry["mode"],
        "s": bounds.s,
        "t": bounds.t,
        "alpha": rescaling.alpha,
        "epsilon": rescaling.epsilon,
    }
    return rescaling, echo


def _parse_criteria(config: dict) -> CriteriaConfig:
    if "criteria" not in config:
        raise ConfigError("missing required key criteria")
    block = config["criteria"]
    _check_keys(
        block,
        "criteria",
        set(),
        {"threshold_T", "surplus_L", "ceiling_KT", "reset_R", "min_steps_ell"},
    )
    kwargs = {}
    if "threshold_T" in block:
        kwargs["threshold_T"] = _as_number(block["threshold_T"], "criteria.threshold_T")
    for key in ("surplus_L", "ceiling_KT", "reset_R", "min_steps_ell"):
        if key in block:
            kwargs[key] = _as_int(block[key], f"criteria.{key}")
    try:
        return CriteriaConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"criteria: {exc}") from exc


def _parse_mixer(config: dict, graph: Graph, required: bool) -> MixerSpec | None:
    if "mixer" not in config:
        if required:
            raise ConfigError("missing required key mixer (algorithm 2 needs one)")
        return None
    block = config["mixer"]
    _check_keys(block, "mixer", {"kind"}, {"chi", "chi_tilde"})
    kind = _as_str(block["kind"], "mixer.kind", (TRANSVERSE_FIELD, MIS_CONTROLLED))
    if ("chi" in block) == ("chi_tilde" in block):
        raise ConfigError("mixer: give exactly one of chi or chi_tilde")
    if "chi" in block:
        chi = _as_number(block["chi"], "mixer.chi")
    else:
        chi = _as_int(block["chi_tilde"], "mixer.chi_tilde") * CHI_TILDE_UNIT
    try:
        return MixerSpec(kind=kind, chi=chi, graph=graph if kind == MIS_CONTROLLED else None)
    except ValueError as exc:
        raise ConfigError(f"mixer: {exc}") from exc


def _feasible_uniform(n: int, mask: np.ndarray) -> StateVector:
    amps = mask.astype(np.complex128)
    amps /= math.sqrt(int(mask.sum()))
    return StateVector(n, amps)


def _run_tables(instance: ProblemInstance) -> tuple[DiagonalHamiltonian, np.ndarray | None]:
    """Driving Hamiltonian and, for MIS, the independent-set mask from one table build."""
    if instance.kind != "mis":
        return driving_hamiltonian(instance), None
    h, p = build_mis(instance.graph)
    if instance.penalty_weight is not None:
        h = penalize(h, p, instance.penalty_weight)
    return h, p.values == 0


def _parse_initial_state(
    config: dict,
    instance: ProblemInstance,
    h_drive: DiagonalHamiltonian,
    feasible: np.ndarray | None,
) -> tuple[StateVector, dict]:
    n = instance.graph.n
    if "initial_state" not in config:
        return uniform_superposition(n), {"kind": "uniform"}
    block = config["initial_state"]
    _check_keys(
        block, "initial_state", {"kind"}, {"bitstring", "grid_resolution", "chi0"}
    )
    kind = _as_str(
        block["kind"],
        "initial_state.kind",
        ("uniform", "feasible-uniform", "basis", "qaoa1", "mixer-prepared"),
    )
    echo: dict = {"kind": kind}
    try:
        if kind == "uniform":
            return uniform_superposition(n), echo
        if kind == "feasible-uniform":
            if feasible is None:
                raise ValueError("feasibility is defined for MIS instances only")
            return _feasible_uniform(n, feasible), echo
        if kind == "basis":
            if "bitstring" not in block:
                raise ConfigError("initial_state: basis kind requires bitstring")
            bits = _as_str(block["bitstring"], "initial_state.bitstring")
            if len(bits) != n:
                raise ConfigError(f"initial_state.bitstring must have length {n}")
            echo["bitstring"] = bits
            return basis_state(n, bitstring_to_index(bits)), echo
        if kind == "qaoa1":
            resolution = _as_int(block.get("grid_resolution", 256), "grid_resolution")
            params = optimize_qaoa1(h_drive, resolution)
            echo.update(
                {"grid_resolution": resolution, "gamma": params.gamma, "beta": params.beta}
            )
            return qaoa1_state(h_drive, params), echo
        # mixer-prepared
        if "chi0" not in block:
            raise ConfigError("initial_state: mixer-prepared kind requires chi0")
        chi0 = _as_number(block["chi0"], "initial_state.chi0")
        if instance.kind != "mis":
            raise ConfigError("initial_state: mixer-prepared applies to MIS instances")
        echo["chi0"] = chi0
        return feasible_initial_state(instance.graph, chi0), echo
    except ValueError as exc:
        raise ConfigError(f"initial_state: {exc}") from exc


def _resolve_seed(config: dict, cli_seed: int | None, required: bool) -> int | None:
    seed = config.get("seed")
    if seed is not None:
        seed = _as_int(seed, "seed")
        if seed < 0:
            raise ConfigError("seed must be nonnegative")
    if cli_seed is not None:
        seed = cli_seed
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
    payload = {
        "command": command,
        "config": config,
        "resolved": dict(extra),
        "seed": seed,
    }
    _write_json(outdir / f"{command.replace('-', '_')}_config.json", payload)


# ---------------------------------------------------------------------------
# sweep-counts


def _sweep_variant_columns(
    label: str,
    h_drive: DiagonalHamiltonian,
    h_report_extra: DiagonalHamiltonian | None,
    extra_label: str | None,
    support,
    initial: StateVector,
    bound_entries: list[dict],
    k0_list: list[int],
    surplus: list[int],
) -> tuple[list[str], list[list[float]], list[dict]]:
    """Column block for one sweep variant: (H, p1[, extra]) per bound per k0."""
    headers: list[str] = []
    columns: list[list[float]] = []
    echoes: list[dict] = []
    for entry in bound_entries:
        rescaling, echo = _resolve_rescaling(entry, h_drive, support)
        echo["variant"] = label
        echoes.append(echo)
        c = apply_rescaling(rescaling, h_drive, support)
        for k0 in k0_list:
            if k0 < 0:
                raise ConfigError(f"sweep.k0 entries must be nonnegative, got {k0}")
            prefix = f"{label}_{entry['name']}_k0_{k0}"
            col_h: list[float] = []
            col_p1: list[float] = []
            col_extra: list[float] = []
            for ell in surplus:
                counts = OutcomeCounts(k0, k0 + ell)
                state, _ = analytic_state(initial, c, counts)
                col_h.append(expectation(state, h_drive))
                col_p1.append(success_probability(state, c))
                if h_report_extra is not None:
                    col_extra.append(expectation(state, h_report_extra))
            headers.append(f"H_{prefix}")
            columns.append(col_h)
            headers.append(f"p1_{prefix}")
            columns.append(col_p1)
            if h_report_extra is not None:
                headers.append(f"{extra_label}_{prefix}")
                columns.append(col_extra)
    return headers, columns, echoes


def cmd_sweep_counts(config: dict, outdir: Path, seed) -> None:
    instance = _parse_problem(config)
    _check_keys(config, "config", {"problem", "sweep"}, {"seed"})
    block = config["sweep"]
    _check_keys(
        block,
        "sweep",
        {"k0", "bounds", "surplus_grid"},
        {"variants", "penalty_weights"},
    )
    k0_list = [_as_int(v, "sweep.k0[]") for v in _as_list(block["k0"], "sweep.k0")]
    surplus = _parse_int_grid(block["surplus_grid"], "sweep.surplus_grid")
    if any(ell < 0 for ell in surplus):
        raise ConfigError("sweep.surplus_grid values must be nonnegative")
    bound_entries = [
        _normalize_bound_entry(e, f"sweep.bounds[{i}]")
        for i, e in enumerate(_as_list(block["bounds"], "sweep.bounds"))
    ]

    headers: list[str] = ["L"]
    columns: list[list[float]] = []
    echoes: list[dict] = []
    if instance.kind == "maxcut":
        if "variants" in block or "penalty_weights" in block:
            raise ConfigError("sweep.variants/penalty_weights apply to MIS instances only")
        h = build_maxcut(instance.graph)
        hdr, cols, ech = _sweep_variant_columns(
            "maxcut", h, None, None, None,
            uniform_superposition(instance.graph.n),
            bound_entries, k0_list, surplus,
        )
        headers += hdr
        columns += cols
        echoes += ech
    else:
        variants = block.get("variants")
        if variants is None:
            variants = ["feasible", "penalized"] if "penalty_weights" in block else ["feasible"]
        else:
            variants = [
                _as_str(v, "sweep.variants[]", ("feasible", "penalized"))
                for v in _as_list(variants, "sweep.variants")
            ]
        h_bare, p_viol = build_mis(instance.graph)
        if "feasible" in variants:
            mask = p_viol.values == 0
            hdr, cols, ech = _sweep_variant_columns(
                "feasible", h_bare, None, None,
                mask,
                _feasible_uniform(instance.graph.n, mask),
                bound_entries, k0_list, surplus,
            )
            headers += hdr
            columns += cols
            echoes += ech
        if "penalized" in variants:
            if "penalty_weights" not in block:
                raise ConfigError("sweep.penalty_weights is required for the penalized variant")
            lams = [
                _as_number(v, "sweep.penalty_weights[]")
                for v in _as_list(block["penalty_weights"], "sweep.penalty_weights")
            ]
            for lam in lams:
                try:
                    h_pen = penalize(h_bare, p_viol, lam)
                except ValueError as exc:
                    raise ConfigError(f"sweep.penalty_weights: {exc}") from exc
                hdr, cols, ech = _sweep_variant_columns(
                    f"penalized_lam{lam:g}", h_pen, p_viol, "P", None,
                    uniform_superposition(instance.graph.n),
                    bound_entries, k0_list, surplus,
                )
                headers += hdr
                columns += cols
                echoes += ech

    rows = [[surplus[i]] + [col[i] for col in columns] for i in range(len(surplus))]
    _write_csv(outdir / "sweep_counts.csv", headers, rows)
    _write_sidecar(outdir, "sweep-counts", config, seed, {"rescalings": echoes})


# ---------------------------------------------------------------------------
# postprocess


def cmd_postprocess(config: dict, outdir: Path, seed) -> None:
    instance = _parse_problem(config)
    _check_keys(config, "config", {"problem"}, {"postprocess", "seed"})
    block = config.get("postprocess", {})
    _check_keys(block, "postprocess", set(), {"grid_resolution", "k1", "bound"})
    resolution = _as_int(block.get("grid_resolution", 256), "postprocess.grid_resolution")
    k1_list = [
        _as_int(v, "postprocess.k1[]")
        for v in _as_list(block.get("k1", [1, 2, 3]), "postprocess.k1")
    ]
    bound_entry = _normalize_bound_entry(block.get("bound", "tight"), "postprocess.bound")

    h = driving_hamiltonian(instance)
    rescaling, echo = _resolve_rescaling(bound_entry, h, None)
    c = apply_rescaling(rescaling, h)
    try:
        params = optimize_qaoa1(h, resolution)
    except ValueError as exc:
        raise ConfigError(f"postprocess: {exc}") from exc
    states: list[tuple[str, StateVector]] = [
        ("uniform", uniform_superposition(h.n)),
        ("qaoa1", qaoa1_state(h, params)),
    ]
    for k1 in k1_list:
        if k1 < 0:
            raise ConfigError("postprocess.k1 entries must be nonnegative")
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
    _write_sidecar(
        outdir,
        "postprocess",
        config,
        seed,
        {
            "rescaling": echo,
            "qaoa1": {"gamma": params.gamma, "beta": params.beta,
                      "grid_resolution": resolution},
        },
    )


# ---------------------------------------------------------------------------
# scramble-study


def cmd_scramble_study(config: dict, outdir: Path, seed) -> None:
    instance = _parse_problem(config)
    _check_keys(config, "config", {"problem", "scramble"}, {"seed"})
    block = config["scramble"]
    _check_keys(
        block,
        "scramble",
        {"start_counts"},
        {"bound", "mixer_kind", "top", "bottom"},
    )
    pair = block["start_counts"]
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError("scramble.start_counts must be a pair [k0, k1]")
    start_counts = OutcomeCounts(
        _as_int(pair[0], "scramble.start_counts[0]"),
        _as_int(pair[1], "scramble.start_counts[1]"),
    )
    bound_entry = _normalize_bound_entry(block.get("bound", "tight"), "scramble.bound")
    mixer_kind = _as_str(
        block.get("mixer_kind", TRANSVERSE_FIELD),
        "scramble.mixer_kind",
        (TRANSVERSE_FIELD, MIS_CONTROLLED),
    )
    if "top" not in block and "bottom" not in block:
        raise ConfigError("scramble: at least one of top/bottom panels is required")

    h = driving_hamiltonian(instance)
    rescaling, echo = _resolve_rescaling(bound_entry, h, None)
    c = apply_rescaling(rescaling, h)
    initial = uniform_superposition(h.n)
    start, _ = analytic_state(initial, c, start_counts)

    def mixer(chi: float) -> MixerSpec:
        return MixerSpec(
            kind=mixer_kind,
            chi=chi,
            graph=instance.graph if mixer_kind == MIS_CONTROLLED else None,
        )

    def continued(base: StateVector, k0: int, k1: int) -> float:
        state, _ = analytic_state(base, c, OutcomeCounts(k0, k1))
        return expectation(state, h)

    resolved: dict = {"rescaling": echo, "start_counts": [start_counts.k0, start_counts.k1]}

    if "top" in block:
        top = block["top"]
        _check_keys(top, "scramble.top", {"k1_grid"}, {"k0_tilde", "chi_tilde"})
        k0_t = _as_int(top.get("k0_tilde", 0), "scramble.top.k0_tilde")
        chi_tildes = [
            _as_int(v, "scramble.top.chi_tilde[]")
            for v in _as_list(top.get("chi_tilde", [1, 2, 3, 4, 5, 6]), "scramble.top.chi_tilde")
        ]
        k1_grid = _parse_int_grid(top["k1_grid"], "scramble.top.k1_grid")
        scrambled = {ct: apply_mixer(start, mixer(ct * CHI_TILDE_UNIT)) for ct in chi_tildes}
        header = ["k1_tilde", "H_baseline"] + [f"H_chi_{ct}" for ct in chi_tildes]
        rows = []
        for k1 in k1_grid:
            row = [k1, continued(start, k0_t, k1)]
            row += [continued(scrambled[ct], k0_t, k1) for ct in chi_tildes]
            rows.append(row)
        _write_csv(outdir / "scramble_top.csv", header, rows)
        resolved["top"] = {"k0_tilde": k0_t, "chi_tilde": chi_tildes}

    if "bottom" in block:
        bottom = block["bottom"]
        _check_keys(
            bottom, "scramble.bottom", {"surplus_grid"}, {"k0_tilde", "chi_tilde"}
        )
        chi_t = _as_int(bottom.get("chi_tilde", 3), "scramble.bottom.chi_tilde")
        k0_tildes = [
            _as_int(v, "scramble.bottom.k0_tilde[]")
            for v in _as_list(bottom.get("k0_tilde", [0, 1, 2, 3]), "scramble.bottom.k0_tilde")
        ]
        surplus = _parse_int_grid(bottom["surplus_grid"], "scramble.bottom.surplus_grid")
        scrambled = apply_mixer(start, mixer(chi_t * CHI_TILDE_UNIT))
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
    instance = _parse_problem(config)
    _check_keys(
        config,
        "config",
        {"problem", "rescaling", "criteria", "run"},
        {"initial_state", "mixer", "seed"},
    )
    resc_block = config["rescaling"]
    _check_keys(resc_block, "rescaling", {"mode"}, {"bounds", "name"})
    entry = _normalize_bound_entry(
        {
            "name": resc_block.get("name", resc_block["mode"]),
            "mode": resc_block["mode"],
            **({"bounds": resc_block["bounds"]} if "bounds" in resc_block else {}),
        },
        "rescaling",
    )
    run_block = config["run"]
    _check_keys(
        run_block,
        "run",
        {"algorithm", "budget"},
        {
            "adaptive_threshold",
            "surplus_delta",
            "max_steps_per_trajectory",
            "trajectory_csv",
        },
    )
    algorithm = _as_int(run_block["algorithm"], "run.algorithm")
    budget_block = run_block["budget"]
    _check_keys(
        budget_block, "run.budget", set(), {"max_trajectories", "max_total_steps", "target_cost"}
    )
    budget_kwargs = {}
    for key in ("max_trajectories", "max_total_steps"):
        if budget_block.get(key) is not None:
            budget_kwargs[key] = _as_int(budget_block[key], f"run.budget.{key}")
    if budget_block.get("target_cost") is not None:
        budget_kwargs["target_cost"] = _as_number(
            budget_block["target_cost"], "run.budget.target_cost"
        )
    h_drive, feasible = _run_tables(instance)
    support = feasible if instance.penalty_weight is None else None
    rescaling, echo = _resolve_rescaling(entry, h_drive, support)
    initial, initial_echo = _parse_initial_state(config, instance, h_drive, feasible)
    criteria = _parse_criteria(config)
    mixer = _parse_mixer(config, instance.graph, required=algorithm == 2)

    try:
        budget = Budget(**budget_kwargs)
        outer = OuterConfig(
            algorithm=algorithm,
            rescaling=rescaling,
            initial_state=initial,
            criteria=criteria,
            mixer=mixer,
            adaptive_threshold=_as_bool(
                run_block.get("adaptive_threshold", False), "run.adaptive_threshold"
            ),
            surplus_delta=_as_int(run_block.get("surplus_delta", 0), "run.surplus_delta"),
            max_steps_per_trajectory=_as_int(
                run_block.get("max_steps_per_trajectory", 1_000_000),
                "run.max_steps_per_trajectory",
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"run: {exc}") from exc

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
        "cost_histogram": {
            f"{cost:.12g}": count for cost, count in summary.cost_histogram.items()
        },
        "param_log": list(summary.param_log),
        "seed": seed,
        "total_steps": summary.total_steps,
        "trajectories_run": summary.trajectories_run,
    }
    _write_json(outdir / "run_summary.json", payload)

    if _as_bool(run_block.get("trajectory_csv", False), "run.trajectory_csv"):
        header = [
            "index", "steps", "k0", "k1", "scrambles",
            "terminal_reason", "final_sample", "final_cost",
        ]
        rows = []
        for i, traj in enumerate(summary.trajectories):
            rows.append([
                i,
                traj.steps,
                traj.counts.k0,
                traj.counts.k1,
                len(traj.scramble_events),
                traj.terminal_reason,
                index_to_bitstring(traj.final_sample, n),
                traj.final_cost,
            ])
        _write_csv(outdir / "trajectories.csv", header, rows)

    _write_sidecar(
        outdir,
        "run",
        config,
        seed,
        {"rescaling": echo, "initial_state": initial_echo, "threads": threads},
    )


# ---------------------------------------------------------------------------
# walk


def cmd_walk(config: dict, outdir: Path, seed) -> None:
    _check_keys(config, "config", {"walk"}, {"seed"})
    block = config["walk"]
    _check_keys(
        block,
        "walk",
        {"p", "L"},
        {"R", "mc_trials", "mc_step_cap", "include_run_rule"},
    )
    p_list = [_as_number(v, "walk.p[]") for v in _as_list(block["p"], "walk.p")]
    l_list = [_as_int(v, "walk.L[]") for v in _as_list(block["L"], "walk.L")]
    r_list = block.get("R", [None])
    if not isinstance(r_list, list) or not r_list:
        raise ConfigError("walk.R must be a nonempty list (entries integer or null)")
    r_values = [None if v is None else _as_int(v, "walk.R[]") for v in r_list]
    trials = _as_int(block.get("mc_trials", 0), "walk.mc_trials")
    if trials < 0:
        raise ConfigError("walk.mc_trials must be nonnegative")
    step_cap = _as_int(block.get("mc_step_cap", 10**8), "walk.mc_step_cap")
    include_run_rule = _as_bool(block.get("include_run_rule", True), "walk.include_run_rule")
    if trials > 0 and seed is None:
        raise ConfigError("walk: Monte Carlo trials need a seed (config key seed or --seed)")

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
    for p in p_list:
        for length in l_list:
            for r in r_values:
                try:
                    model = WalkModel(p=p, L=length, R=r)
                except ValueError as exc:
                    raise ConfigError(f"walk: {exc}") from exc
                bound = expected_steps_surplus_bound(p, length) if p > 0.5 else None
                if r is None:
                    exact = bound  # the no-reset hitting time L/(2p-1) when it exists
                    closed = None
                else:
                    exact = expected_steps_with_reset_exact(model)
                    closed = expected_steps_with_reset_closed_form(model)
                row = [
                    p, length, r, exact, bound,
                    closed.printed if closed else None,
                    closed.corrected if closed else None,
                    closed.printed_matches if closed else None,
                    closed.corrected_matches if closed else None,
                ]
                if trials > 0:
                    mc = walk_monte_carlo(
                        model, trials, next_rng(), max_total_steps=step_cap
                    )
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
