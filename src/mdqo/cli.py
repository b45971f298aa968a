"""Experiment runner: JSON configs in, CSV/JSON artifacts out.

Subcommands
-----------
sweep-counts    cost/success curves of aggregated-outcome level posteriors
postprocess     cost densities and a summary table for uniform / depth-1 /
                after-success states
scramble-study  effect of mixer scrambling on a stuck aggregated state
run             stochastic control-loop trajectories under a budget
walk            walk-model analytics: exact renewal time, closed forms, Monte Carlo

Every command reads and checks its whole config, through one `_Block` per JSON
object, before its first compute call; each message names the full key path.
Every invocation writes a JSON sidecar with the resolved config and seed next
to its data files.  CSV files carry a header row and 12-significant-digit
floats.  Exit codes: 0 success, 2 configuration error (including an unknown
key, i.e. one the command does not read, even if it belongs to another kind; a
--seed below 0; negative outcome counts; an outcome count, a k1 = k0 + L of a
surplus grid or a walk.L or walk.R past the float range; a feasible-subspace
MIS run with a uniform start, a basis start that is not an independent set or
a transverse-field mixer, and a postprocess or scramble-study of
feasible-subspace MIS, on a graph with an edge; a run.max_steps_per_trajectory
below 1, or a run whose criteria never fire within it; a run with
criteria.ceiling_KT = 0 and no run.budget.max_trajectories; a
problem.graph.edges that is not a list, an empty one being an edgeless
graph; a walk.mc_step_cap, given or default, below walk.mc_trials; a study
whose outcome counts make every closed-form weight vanish, or whose output
columns would repeat a name; an --out that cannot be made a directory; and an
artifact that cannot be written under --out),
3 capacity error (n above the dense cap where a dense table is built, more
independent sets than SUBSPACE_CAP or more than 63 vertices where
feasible-subspace MIS lives on them, a depth-1 grid above GRID_CAP); logs go
to standard error.  `_checked` is the one place where a library or I/O error
becomes a config error, and an invocation that fails removes every artifact
it wrote.
--threads is accepted and echoed into the run sidecar but has no effect:
trajectories always run sequentially.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import logging
import math
import sys
from contextlib import contextmanager
from pathlib import Path

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
    level_moments,
    level_posterior,
    outer_loop,
    prepare_tables,
    trajectory_rng,
    weigh,
)
from .errors import CapacityError, ConfigError, DegenerateCountsError, StepCapError
from .mixers import (
    MIS_CONTROLLED,
    TRANSVERSE_FIELD,
    MixerSpec,
    apply_mixer,
    check_grid_size,
    feasible_initial_state,
    optimize_qaoa1,
    qaoa1_state,
)
from .problems import (
    DiagonalHamiltonian,
    Graph,
    ProblemInstance,
    apply_rescaling,
    driving_hamiltonian,
    feasible,
    feasible_mask,
    parse_edge_list,
    rescaling_from_bounds,
    spectrum_bounds,
)
from .statevector import (
    StateVector,
    basis_state,
    bitstring_to_index,
    index_to_bitstring,
    level_distribution,
    uniform_superposition,
)
from .weak_measurement import OutcomeCounts, analytic_state, continued_expectation

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


@contextmanager
def _checked(prefix: str, errors=ValueError):
    """Re-raise errors from the block as ConfigError(f"{prefix}: {exc}"): the one
    place where a library or I/O error becomes a config error."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc


def _load_config(path: str) -> dict:
    with _checked(f"cannot read config file {path}", (OSError, UnicodeDecodeError)):
        text = Path(path).read_text()
    with _checked(f"config file {path} is not valid JSON"):  # or a literal past 4300 digits
        obj = json.loads(text)
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


def _pair(value, path: str, kind: type, minimum=None) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path} must be a pair")
    return tuple(_value(v, f"{path}[{i}]", kind, minimum) for i, v in enumerate(value))


class _Block:
    """One JSON object of a config, read through typed getters.

    Built from the object, its key path ("" at the top level) and the block it
    was read from.  Getters record the key they read, return `default` for an
    absent key and name the full key path in every message; close() rejects
    each key that no getter of this block or of a block opened from it read.
    """

    def __init__(self, data, path: str, parent: _Block | None = None) -> None:
        if not isinstance(data, dict):
            raise ConfigError(f"{path} must be an object")
        self.data, self.path = data, path
        self.read: set[str] = set()
        self.opened: list[_Block] = []
        if parent is not None:
            parent.opened.append(self)

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def key(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def raw(self, key: str, default=_REQUIRED):
        self.read.add(key)
        if key in self.data:
            return self.data[key]
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {self.key(key)}")
        return default

    def get(self, key, kind: type, default=_REQUIRED, minimum=None, choices=None, null=False):
        if key not in self.data and default is not _REQUIRED:
            return default
        return _value(self.raw(key), self.key(key), kind, minimum, choices, null)

    def entry(self, key: str, default=_REQUIRED) -> tuple:
        """(value, key path) of the unchecked value at key."""
        return self.raw(key, default), self.key(key)

    def entries(self, key: str, default=_REQUIRED) -> list[tuple]:
        """(value, key path) of each entry of the nonempty list at key."""
        values, path = self.entry(key, default)
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{path} must be a nonempty list")
        return [(v, f"{path}[{i}]") for i, v in enumerate(values)]

    def items(self, key, kind: type, default=_REQUIRED, minimum=None, choices=None, null=False):
        """A nonempty list, every entry checked as by get."""
        return [_value(v, p, kind, minimum, choices, null) for v, p in self.entries(key, default)]

    def pair(self, key: str, kind: type, minimum=None) -> tuple:
        return _pair(*self.entry(key), kind, minimum)

    def block(self, key: str, default=_REQUIRED) -> _Block:
        return _Block(*self.entry(key, default), self)

    def close(self) -> None:
        """Reject every key that no getter of this block or of a nested one has read."""
        for key in self.data:
            if key not in self.read:
                raise ConfigError(f"unknown key {self.key(key)}")
        for child in self.opened:
            child.close()

    def grid(self, key: str, minimum=None) -> list[int]:
        """An int list, {"values": [...]} or an inclusive {"start", "stop", "step"} range."""
        if isinstance(self.data.get(key), list):
            return self.items(key, int, minimum=minimum)
        grid = self.block(key)
        if "values" in grid:
            return grid.items("values", int, minimum=minimum)
        start = grid.get("start", int, minimum=minimum)
        stop = grid.get("stop", int)
        step = grid.get("step", int, 1, minimum=1)
        if stop < start:
            raise ConfigError(f"{grid.path}: stop < start")
        return list(range(start, stop + 1, step))


def _parse_problem(cfg: _Block, penalized: bool = True) -> ProblemInstance:
    """The problem block; penalized=False leaves penalty_weight unread, so unknown."""
    problem = cfg.block("problem")
    kind = problem.get("kind", str, choices=("maxcut", "mis"))
    graph_block = problem.block("graph")
    with _checked("cannot read graph file", OSError), _checked(graph_block.path):
        if "path" in graph_block:
            graph = parse_edge_list(Path(graph_block.get("path", str)).read_text())
        else:
            edges, path = graph_block.entry("edges")
            if not isinstance(edges, list):  # an empty list is an edgeless graph
                raise ConfigError(f"{path} must be a list")
            pairs = [_pair(e, f"{path}[{i}]", int) for i, e in enumerate(edges)]
            graph = Graph.from_1indexed(graph_block.get("n", int), pairs)
    penalty = problem.get("penalty_weight", float, None) if penalized else None
    with _checked("problem"):
        return ProblemInstance(graph, kind, penalty)


def _bound_entry(owner: _Block, value, path: str, named: bool = True) -> dict:
    """A spectrum-bound entry: a shorthand, or an object with a mode.

    Named entries (the study commands' bound lists) may be a shorthand and
    must carry a name; the run's rescaling block names itself after its mode
    by default.
    """
    if named and isinstance(value, str):
        if value not in _BOUND_SHORTHAND:
            raise ConfigError(f"{path}: unknown bound shorthand {value!r}")
        return dict(_BOUND_SHORTHAND[value])
    block = _Block(value, path, owner)
    mode = block.get("mode", str, choices=_BOUND_MODES)
    entry = {"name": block.get("name", str, _REQUIRED if named else mode), "mode": mode}
    if mode == "user-supplied":
        entry["bounds"] = block.pair("bounds", float)
    return entry


def _rescaled(entry: dict, h: DiagonalHamiltonian, build=lambda r: r) -> tuple:
    """build(rescaling) of a bound entry on the cost h, plus its echo dict.  A ValueError
    of the bounds, the rescaling or build is a config error naming the bound: the
    range check of apply_rescaling and prepare_tables too, as coefficient-sum bounds
    of a penalised MIS cost are not honest on every graph (an isolated vertex lowers
    the minimum)."""
    user = entry["bounds"] if entry["mode"] == "user-supplied" else None
    with _checked(f"bound {entry['name']!r}"):
        bounds = spectrum_bounds(h, entry["mode"], user=user)
        rescaling = rescaling_from_bounds(bounds)
        built = build(rescaling)
    echo = {"name": entry["name"], "mode": entry["mode"], "s": bounds.s, "t": bounds.t,
            "alpha": rescaling.alpha, "epsilon": rescaling.epsilon}
    return built, echo


def _columns(header: list[str]) -> list[str]:
    """A CSV header, checked before any compute: no column name may repeat."""
    if len(set(header)) < len(header):
        name = next(name for name in header if header.count(name) > 1)
        raise ConfigError(f"output column {name} would repeat (two entries print alike)")
    return header


def _parse_criteria(cfg: _Block) -> CriteriaConfig:
    block = cfg.block("criteria")
    with _checked("criteria"):
        return CriteriaConfig(
            threshold_T=block.get("threshold_T", float, None),
            surplus_L=block.get("surplus_L", int, None),
            ceiling_KT=block.get("ceiling_KT", int, None),
            reset_R=block.get("reset_R", int, None),
            min_steps_ell=block.get("min_steps_ell", int, 0),
        )


def _chi(chi_tilde: int, path: str) -> float:
    """The mixer angle of an integer chi_tilde, which must convert to a float."""
    return _value(chi_tilde, path, float) * CHI_TILDE_UNIT


def _float_sized(values, path: str):
    """Integers that reach float arithmetic (outcome counts, walk lengths): each
    must convert to a float, as chi_tilde does in _chi; None, where the list
    allows it, passes."""
    for i, value in enumerate(values):
        _value(value, f"{path}[{i}]", float, null=True)
    return values


def _leaves_subspace(instance: ProblemInstance, what: str, fix: str) -> None:
    """ConfigError for a start or mixer that puts amplitude on infeasible strings,
    in feasible-subspace mode on a graph with an edge (an edgeless one has none)."""
    if instance.feasible_subspace and instance.graph.m:
        raise ConfigError(
            f"{what} puts amplitude on infeasible strings, so it cannot "
            f"{fix} feasible-subspace MIS (give problem.penalty_weight)"
        )


def _parse_mixer(cfg: _Block, instance: ProblemInstance) -> MixerSpec:
    if "mixer" not in cfg:
        raise ConfigError("missing required key mixer (algorithm 2 needs one)")
    block = cfg.block("mixer")
    kind = block.get("kind", str, choices=_MIXER_KINDS)
    if kind == TRANSVERSE_FIELD:
        _leaves_subspace(instance, "mixer: transverse-field", "scramble")
    if ("chi" in block) == ("chi_tilde" in block):
        raise ConfigError("mixer: give exactly one of chi or chi_tilde")
    if "chi" in block:
        chi = block.get("chi", float)
    else:
        chi = _chi(block.get("chi_tilde", int), block.key("chi_tilde"))
    graph = instance.graph if kind == MIS_CONTROLLED else None
    return MixerSpec(kind=kind, chi=chi, graph=graph)


def _parse_initial_state(cfg: _Block, instance: ProblemInstance) -> dict:
    """The checked initial-state block, as the echo dict the state is built from."""
    block = cfg.block("initial_state", {"kind": "uniform"})
    echo: dict = {"kind": block.get("kind", str, choices=_INITIAL_KINDS)}
    n = instance.graph.n
    if echo["kind"] == "feasible-uniform" and instance.kind != "mis":
        raise ConfigError("initial_state: feasibility is defined for MIS instances only")
    if echo["kind"] in ("uniform", "qaoa1"):
        _leaves_subspace(instance, f"initial_state: {echo['kind']}", "start")
    if echo["kind"] == "basis":
        bits = echo["bitstring"] = block.get("bitstring", str)
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise ConfigError(f"{block.key('bitstring')} must be {n} characters 0 or 1")
        if instance.feasible_subspace and not feasible(instance, bitstring_to_index(bits)):
            raise ConfigError(
                f"{block.key('bitstring')} {bits} is not an independent set, so it cannot "
                "start feasible-subspace MIS (give problem.penalty_weight)"
            )
    elif echo["kind"] == "qaoa1":
        echo["grid_resolution"] = block.get("grid_resolution", int, 256, minimum=2)
        check_grid_size(n, echo["grid_resolution"])
    elif echo["kind"] == "mixer-prepared":
        echo["chi0"] = block.get("chi0", float)
        if instance.kind != "mis":
            raise ConfigError("initial_state: mixer-prepared applies to MIS instances")
    return echo


def _initial_state(echo: dict, instance: ProblemInstance) -> StateVector:
    """Build the state a checked initial-state echo describes; qaoa1 adds its angles.

    The state lives on the basis of instance.cost, in feasible-subspace mode
    the independent sets: there the uniform start, which only an edgeless
    graph allows, is the feasible-uniform one, and a qaoa1 start is dense, as
    the basis then holds every string in order.
    """
    n = instance.graph.n
    kind = echo["kind"]
    cost = instance.cost
    basis = cost.basis
    if kind == "qaoa1":
        params = optimize_qaoa1(cost, echo["grid_resolution"])
        echo.update(gamma=params.gamma, beta=params.beta)
        return qaoa1_state(cost, params)
    if kind == "basis":
        return basis_state(n, bitstring_to_index(echo["bitstring"]), basis)
    if kind == "mixer-prepared":
        return feasible_initial_state(instance.graph, echo["chi0"], basis)
    if basis is not None or kind == "uniform":
        return uniform_superposition(n, basis)
    mask = feasible_mask(instance)
    return StateVector(n, mask / math.sqrt(int(mask.sum())))


def _resolve_seed(cfg: _Block, cli_seed: int | None, required: bool) -> int | None:
    seed = cfg.get("seed", int, None, minimum=0, null=True)
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


class _Artifacts:
    """The files one invocation writes under --out: remove() deletes those
    written so far, so that a command that fails leaves all or none."""

    def __init__(self, outdir: Path):
        self.outdir, self.written = outdir, []

    def write(self, name: str, text: str) -> Path:
        path = self.outdir / name
        with _checked(f"--out: cannot write {name}", OSError), open(path, "w", newline="") as fh:
            self.written.append(path)
            fh.write(text)
        return path

    def remove(self) -> None:
        for path in self.written:
            path.unlink(missing_ok=True)


def _write_csv(out: _Artifacts, name: str, header: list[str], rows: list[list]) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(v) for v in row])
    log.info("wrote %s (%d rows)", out.write(name, text.getvalue()), len(rows))


def _write_json(out: _Artifacts, name: str, payload: dict) -> None:
    log.info("wrote %s", out.write(name, json.dumps(payload, sort_keys=True, indent=2) + "\n"))


def _write_sidecar(out: _Artifacts, command: str, cfg: _Block, seed, extra: dict) -> None:
    payload = {"command": command, "config": cfg.data, "resolved": dict(extra), "seed": seed}
    _write_json(out, f"{command.replace('-', '_')}_config.json", payload)


# ---------------------------------------------------------------------------
# sweep-counts


def cmd_sweep_counts(cfg: _Block, out: _Artifacts, seed) -> None:
    instance = _parse_problem(cfg, penalized=False)  # it sweeps sweep.penalty_weights
    sweep = cfg.block("sweep")
    k0_list = _float_sized(sweep.items("k0", int, minimum=0), sweep.key("k0"))
    surplus = sweep.grid("surplus_grid", minimum=0)
    _value(max(k0_list) + max(surplus), f"k1 = {sweep.key('k0')} + {sweep.key('surplus_grid')}",
           float)
    bound_entries = [_bound_entry(sweep, v, path) for v, path in sweep.entries("bounds")]
    if instance.kind == "mis":
        default = ["feasible", "penalized"] if "penalty_weights" in sweep else ["feasible"]
        kinds = sweep.items("variants", str, default, choices=("feasible", "penalized"))
        lams = sweep.items("penalty_weights", float, minimum=0) if "penalized" in kinds else []
        for i, lam in enumerate(lams):
            with _checked(f"{sweep.key('penalty_weights')}[{i}]"):
                ProblemInstance(instance.graph, "mis", lam)
    cfg.close()

    # one penalty weight per variant, None for the bare one: the feasible
    # variant lives on the independent sets, as run keeps it, the others on
    # dense tables; penalised ones also report P
    if instance.kind == "maxcut":
        variants = [("maxcut", None)]
    else:
        variants = [("feasible", None)] if "feasible" in kinds else []
        variants += [(f"penalized_lam{lam:g}", lam) for lam in lams]
    headers = ["L"]
    for label, lam in variants:
        moments = ("H", "p1", "P")[: 3 if lam is not None else 2]
        headers += [f"{m}_{label}_{entry['name']}_k0_{k0}"
                    for entry in bound_entries for k0 in k0_list for m in moments]
    _columns(headers)

    # each variant's instance, and so its 2**n cost, lives only while its tables are built
    scaled, echoes = [], []
    for label, lam in variants:
        inst = ProblemInstance(instance.graph, instance.kind, lam)
        built = [_rescaled(e, inst.cost, lambda r: prepare_tables(inst, r)) for e in bound_entries]
        scaled.append((lam is not None, [tables for tables, _ in built]))
        echoes += [{**echo, "variant": label} for _, echo in built]

    columns: list[tuple] = []
    for penalised, tables_list in scaled:
        # a variant's tables share its levels, so its flat start is weighed once
        flat = uniform_superposition(instance.graph.n, tables_list[0].basis)
        base = weigh(tables_list[0], flat, penalised)
        for tables, k0 in itertools.product(tables_list, k0_list):
            qs = [level_posterior(tables, base.w, OutcomeCounts(k0, k0 + ell)) for ell in surplus]
            p1, h, p = zip(*(level_moments(tables, base, q) for q in qs))
            columns += [h, p1] if base.penalty is None else [h, p1, p]

    rows = [[ell, *cells] for ell, cells in zip(surplus, zip(*columns))]
    _write_csv(out, "sweep_counts.csv", headers, rows)
    _write_sidecar(out, "sweep-counts", cfg, seed, {"rescalings": echoes})


# ---------------------------------------------------------------------------
# postprocess


def cmd_postprocess(cfg: _Block, out: _Artifacts, seed) -> None:
    instance = _parse_problem(cfg)
    _leaves_subspace(instance, "postprocess: the depth-1 ansatz", "study")
    post = cfg.block("postprocess", {})
    resolution = post.get("grid_resolution", int, 256, minimum=2)
    check_grid_size(instance.graph.n, resolution)
    k1_list = _float_sized(post.items("k1", int, [1, 2, 3], minimum=0), post.key("k1"))
    bound_entry = _bound_entry(post, *post.entry("bound", "tight"))
    cfg.close()
    labels = ["uniform", "qaoa1"] + [f"qaoa1_k1_{k1}" for k1 in k1_list]
    header = _columns(["cost"] + [f"p_{label}" for label in labels])

    h = driving_hamiltonian(instance)
    tables, echo = _rescaled(bound_entry, h, lambda r: prepare_tables(instance, r))
    params = optimize_qaoa1(h, resolution)
    weights = [weigh(tables, uniform_superposition(h.n)).w, weigh(tables, qaoa1_state(h, params)).w]
    weights += [level_posterior(tables, weights[1], OutcomeCounts(0, k1)) for k1 in k1_list]
    dists = [level_distribution(tables.h, w) for w in weights]
    # every distribution groups the same levels, so they share one support
    columns = [dists[0].support] + [dist.probs for dist in dists]
    rows = [[float(cell) for cell in row] for row in zip(*columns)]
    _write_csv(out, "postprocess_density.csv", header, rows)

    summary_rows = [[label, dist.mean] for label, dist in zip(labels, dists)]
    _write_csv(out, "postprocess_summary.csv", ["state", "H"], summary_rows)
    qaoa1 = {"gamma": params.gamma, "beta": params.beta, "grid_resolution": resolution}
    _write_sidecar(out, "postprocess", cfg, seed, {"rescaling": echo, "qaoa1": qaoa1})


# ---------------------------------------------------------------------------
# scramble-study


def cmd_scramble_study(cfg: _Block, out: _Artifacts, seed) -> None:
    instance = _parse_problem(cfg)
    _leaves_subspace(instance, "scramble: the uniform start", "study")
    block = cfg.block("scramble")
    start_pair = block.pair("start_counts", int, minimum=0)
    start_counts = OutcomeCounts(*_float_sized(start_pair, block.key("start_counts")))
    bound_entry = _bound_entry(block, *block.entry("bound", "tight"))
    mixer_kind = block.get("mixer_kind", str, TRANSVERSE_FIELD, choices=_MIXER_KINDS)
    if "top" not in block and "bottom" not in block:
        raise ConfigError("scramble: at least one of top/bottom panels is required")
    chis: dict[int, float] = {}  # the mixer angle of each chi_tilde of either panel
    # each panel's rows: a label and the (base, k0, k1) of each <H> cell, the
    # base the start (None) or the start mixed by a chi_tilde of either panel
    panels, resolved = [], {"start_counts": [start_counts.k0, start_counts.k1]}
    if "top" in block:
        top = block.block("top")
        top_k0 = top.get("k0_tilde", int, 0, minimum=0)
        _value(top_k0, top.key("k0_tilde"), float)
        chi_tildes = top.items("chi_tilde", int, [1, 2, 3, 4, 5, 6])
        chis.update((ct, _chi(ct, f"{top.key('chi_tilde')}[{i}]"))
                    for i, ct in enumerate(chi_tildes))
        k1_grid = _float_sized(top.grid("k1_grid", minimum=0), top.key("k1_grid"))
        header = _columns(["k1_tilde", "H_baseline"] + [f"H_chi_{ct}" for ct in chi_tildes])
        rows = [(k1, [(ct, top_k0, k1) for ct in [None, *chi_tildes]]) for k1 in k1_grid]
        panels.append(("scramble_top.csv", header, rows))
        resolved["top"] = {"k0_tilde": top_k0, "chi_tilde": chi_tildes}
    if "bottom" in block:
        bottom = block.block("bottom")
        chi_t = bottom.get("chi_tilde", int, 3)
        chis[chi_t] = _chi(chi_t, bottom.key("chi_tilde"))
        k0_tildes = _float_sized(
            bottom.items("k0_tilde", int, [0, 1, 2, 3], minimum=0), bottom.key("k0_tilde")
        )
        surplus = bottom.grid("surplus_grid", minimum=0)
        _value(max(k0_tildes) + max(surplus),
               f"k1 = {bottom.key('k0_tilde')} + {bottom.key('surplus_grid')}", float)
        header = _columns(["L_tilde"] + [f"H{kind}_k0_{k0_t}" for k0_t in k0_tildes
                                         for kind in ("", "_baseline")])
        rows = [(ell, [(ct, k0_t, k0_t + ell) for k0_t in k0_tildes for ct in (chi_t, None)])
                for ell in surplus]
        panels.append(("scramble_bottom.csv", header, rows))
        resolved["bottom"] = {"chi_tilde": chi_t, "k0_tilde": k0_tildes}
    cfg.close()

    h = driving_hamiltonian(instance)
    c, resolved["rescaling"] = _rescaled(bound_entry, h, lambda r: apply_rescaling(r, h))
    start, _ = analytic_state(uniform_superposition(h.n), c, start_counts)
    mixer_graph = instance.graph if mixer_kind == MIS_CONTROLLED else None

    # the distinct cells in the rows' order, evaluated base by base in the
    # order the rows first read the bases, one mixed base alive at a time
    cells = dict.fromkeys(key for _, _, rows in panels for _, keys in rows for key in keys)
    for base in dict.fromkeys(ct for ct, _, _ in cells):
        spec = None if base is None else MixerSpec(mixer_kind, chis[base], mixer_graph)
        at = continued_expectation(start if spec is None else apply_mixer(start, spec), c, h)
        for ct, k0, k1 in cells:
            if ct == base:
                try:
                    cells[ct, k0, k1] = at(OutcomeCounts(k0, k1))
                except DegenerateCountsError as exc:  # kept without the frames that hold the base
                    cells[ct, k0, k1] = exc.with_traceback(None)
        del at  # the base dies here, before the next mixer call
    for value in cells.values():
        if isinstance(value, DegenerateCountsError):
            raise value  # the first failing cell in the rows' order, before any file is written
    for name, header, rows in panels:
        _write_csv(out, name, header, [[label] + [cells[k] for k in keys] for label, keys in rows])
    _write_sidecar(out, "scramble-study", cfg, seed, resolved)


# ---------------------------------------------------------------------------
# run


def cmd_run(cfg: _Block, out: _Artifacts, seed, threads: int) -> None:
    instance = _parse_problem(cfg)
    entry = _bound_entry(cfg, *cfg.entry("rescaling"), named=False)
    run = cfg.block("run")
    algorithm = run.get("algorithm", int, choices=(1, 2))
    budget = run.block("budget")
    with _checked("run"):
        budget = Budget(
            max_trajectories=budget.get("max_trajectories", int, None, null=True),
            max_total_steps=budget.get("max_total_steps", int, None, null=True),
            target_cost=budget.get("target_cost", float, None, null=True),
        )
    options = {
        "adaptive_threshold": run.get("adaptive_threshold", bool, False),
        "surplus_delta": run.get("surplus_delta", int, 0),
        "max_steps_per_trajectory": run.get(
            "max_steps_per_trajectory", int, DEFAULT_MAX_STEPS, minimum=1
        ),
    }
    trajectory_csv = run.get("trajectory_csv", bool, False)
    criteria = _parse_criteria(cfg)
    # only algorithm 2 scrambles, so algorithm 1 leaves a mixer block unread
    mixer = _parse_mixer(cfg, instance) if algorithm == 2 else None
    initial_echo = _parse_initial_state(cfg, instance)
    cfg.close()

    rescaling, echo = _rescaled(entry, instance.cost)
    with _checked("run"):
        # checked before the initial state, whose qaoa1 kind runs a grid search
        outer = OuterConfig(rescaling, None, criteria, mixer, **options)
    initial = _initial_state(initial_echo, instance)
    outer = dataclasses.replace(outer, initial_state=initial)

    # setup-consistency failures (threshold range, infeasible support,
    # unreachable criteria, ...)
    with _checked("run", (ValueError, StepCapError)):
        summary = outer_loop(instance, outer, budget, seed)

    n = instance.graph.n
    histogram: dict[str, int] = {}
    for c, k in summary.cost_histogram.items():  # costs that print alike share a key
        histogram[f"{c:.12g}"] = histogram.get(f"{c:.12g}", 0) + k
    payload = {
        "best_bitstring": summary.best_bitstring,
        "best_bitstring_text": index_to_bitstring(summary.best_bitstring, n),
        "best_cost": summary.best_cost,
        "cost_histogram": histogram,
        "param_log": list(summary.param_log),
        "seed": seed,
        "total_steps": summary.total_steps,
        "trajectories_run": summary.trajectories_run,
    }
    _write_json(out, "run_summary.json", payload)

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
        _write_csv(out, "trajectories.csv", header, rows)

    resolved = {"rescaling": echo, "initial_state": initial_echo, "threads": threads}
    _write_sidecar(out, "run", cfg, seed, resolved)


# ---------------------------------------------------------------------------
# walk


def cmd_walk(cfg: _Block, out: _Artifacts, seed) -> None:
    block = cfg.block("walk")
    p_list = block.items("p", float)
    l_list = _float_sized(block.items("L", int), block.key("L"))
    r_values = _float_sized(block.items("R", int, [None], null=True), block.key("R"))
    trials = block.get("mc_trials", int, 0, minimum=0)
    # The cap counts aggregate steps: one below mc_trials, default too, never steps.
    step_cap = _value(*block.entry("mc_step_cap", MC_STEP_CAP), int, trials) if trials else None
    include_run_rule = block.get("include_run_rule", bool, True)
    cfg.close()
    if trials > 0 and seed is None:
        raise ConfigError("walk: Monte Carlo trials need a seed (config key seed or --seed)")
    with _checked("walk"):
        models = [WalkModel(p=p, L=length, R=r) for p in p_list for length in l_list
                  for r in r_values]

    streams = itertools.count()

    def monte_carlo(model: WalkModel, value, rule: str = "surplus") -> list:
        """Mean, stderr, capped and the 3-sigma flag against value; four None without trials."""
        if not trials:
            return [None] * 4
        rng = trajectory_rng(seed, next(streams))
        mc = walk_monte_carlo(model, trials, rng, rule=rule, max_total_steps=step_cap)
        within = None
        if value is not None and mc.completed > 1:
            within = abs(mc.mean - value) <= 3.0 * mc.stderr
        return [mc.mean, mc.stderr, mc.capped, within]

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
        rows.append(row + monte_carlo(model, exact))
    _write_csv(out, "walk.csv", header, rows)

    if include_run_rule:
        header2 = ["p", "L", "expected", "mc_mean", "mc_stderr", "mc_within_3sigma"]
        rows2 = []
        for p in p_list:
            for length in l_list:
                expected = expected_steps_run(p, length)
                mean, stderr, _, within = monte_carlo(
                    WalkModel(p=p, L=length), expected, "consecutive"
                )
                rows2.append([p, length, expected, mean, stderr, within])
        _write_csv(out, "walk_runs.csv", header2, rows2)

    # the next stream index is the number of streams drawn
    _write_sidecar(out, "walk", cfg, seed, {"mc_streams_used": next(streams)})


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
    out = _Artifacts(Path(args.out))
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be a positive integer")
        cfg = _Block(_load_config(args.config), "")
        seed = _resolve_seed(cfg, args.seed, required=seed_required)
        with _checked("--out: cannot create output directory", OSError):
            out.outdir.mkdir(parents=True, exist_ok=True)
        extra = {"threads": args.threads} if args.command == "run" else {}
        handler(cfg, out, seed, **extra)
    except (ConfigError, DegenerateCountsError) as exc:
        out.remove()
        log.error("config error: %s", exc)
        return 2
    except CapacityError as exc:
        log.error("capacity error: %s", exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
