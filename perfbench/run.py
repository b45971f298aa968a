"""The mdqo benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass spawns the workload's `mdqo` CLI
invocations one after another, each in a fresh interpreter (child.py), checks
every artifact they write, and repeats until S seconds have passed.

--trace 0 prints the end-to-end metrics: medians over the passes of the
per-pass sums of wall time, set-up time and CPU time, and of the largest
resident set.  After each pass a set-up probe reruns the invocations up to
their first compute call, which doubles the set-up samples.

--trace 1 alternates an untraced pass with a traced one and prints the
per-layer metrics of the traced passes, the tracing overhead, and the line
count of every module under src/mdqo.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.

Operations are the CLI invocations plus one correctness check per expected
artifact (and, traced, one byte-identity check per artifact); a nonzero exit
or a failed check counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import child
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}

# Traced span names per layer, and the groups whose outermost calls are timed.
LAYER_SPANS = {layer: {f"{layer}.{fn}" for fn in fns} for layer, fns in child.TRACED.items()}
TIMED = {
    "problems.build_s": {f"problems.{fn}" for fn in (
        "build_maxcut", "build_mis", "feasible_mask", "driving_hamiltonian",
        "cost_hamiltonian", "penalize",
    )},
    "problems.rescale_s": {f"problems.{fn}" for fn in (
        "spectrum_bounds", "rescaling_from_bounds", "apply_rescaling",
    )},
    "weak_measurement.step_s": {"weak_measurement.weak_step"},
    "weak_measurement.analytic_s": {"weak_measurement.analytic_state"},
    "statevector.sample_s": {"statevector.sample_bitstring"},
    "statevector.expect_s": {"statevector.expectation", "statevector.cost_distribution"},
    "statevector.rotate_s": {"statevector.apply_x_rotation_all"},
    "mixers.apply_s": {"mixers.apply_mixer"},
    "mixers.qaoa_grid_s": {"mixers.optimize_qaoa1"},
    "analysis.mc_s": {"analysis.walk_monte_carlo"},
    "analysis.exact_s": LAYER_SPANS["analysis"] - {"analysis.walk_monte_carlo"},
}
COUNTED = {
    "problems.table_builds": {"problems.build_maxcut", "problems.build_mis"},
    "weak_measurement.step_calls": {"weak_measurement.weak_step"},
    "weak_measurement.analytic_calls": {"weak_measurement.analytic_state"},
    "statevector.sample_calls": {"statevector.sample_bitstring"},
    "mixers.apply_calls": {"mixers.apply_mixer"},
    "analysis.mc_calls": {"analysis.walk_monte_carlo"},
}
STEP_CHILDREN = {
    "weak_measurement.p1_s": "weak_measurement.success_probability",
    "weak_measurement.posterior_s": "weak_measurement.posterior_state",
}
TRAJECTORY = {"control.run_algorithm1", "control.run_algorithm2"}
MODULE_FILES = (
    "problems", "statevector", "weak_measurement", "mixers", "control", "analysis", "cli",
    "errors", "__init__", "__main__",
)

PER_LAYER: dict[str, tuple[str, str]] = {}  # name -> (unit, better)
for _layer in child.LAYERS:
    PER_LAYER[f"{_layer}.busy_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
for _name in TIMED:
    PER_LAYER[_name] = ("s", "lower")
for _name in COUNTED:
    PER_LAYER[_name] = ("count", "lower")
for _name in STEP_CHILDREN:
    PER_LAYER[_name] = ("s", "lower")
PER_LAYER.update({
    "weak_measurement.step_us": ("us", "lower"),
    "control.trajectories": ("count", "higher"),
    "control.steps": ("count", "higher"),
    "control.scrambles": ("count", "lower"),
    "control.traj_ms_p50": ("ms", "lower"),
    "control.traj_ms_p90": ("ms", "lower"),
    "control.traj_samples": ("count", "higher"),
    "control.useful_frac": ("ratio", "higher"),
    "control.wasted_step_frac": ("ratio", "lower"),
    "control.steps_per_s": ("1/s", "higher"),
    "control.trajectories_per_s": ("1/s", "higher"),
    "analysis.mc_capped": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
})
for _mod in MODULE_FILES:
    PER_LAYER[f"{_mod.strip('_')}.lines"] = ("count", "lower")
PER_LAYER["src.lines"] = ("count", "lower")


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


@dataclass
class Pass:
    wall: float = 0.0
    setup: float = 0.0
    cpu: float = 0.0
    rss_mib: float = 0.0
    outdirs: list[Path] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def invoke(argv: list[str], flag: str, probe: Path, log: Path):
    """Spawn child.py on `argv`; return (exit code, wall_s, setup_s, cpu_s, rss_mib).

    Set-up runs from the spawn to the mark the child writes at its first
    compute call; without a mark it is the whole wall time.
    """
    cmd = [sys.executable, str(HERE / "child.py"), flag, str(probe), "--", *argv]
    with open(log, "wb") as err:
        start = _monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=err, stderr=err, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = _monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = end - start
    setup = wall
    if flag != "--spans" and probe.is_file():
        setup = float(probe.read_text()) - start
    return (
        proc.returncode, wall, setup, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
    )


def cli_argv(inv, outdir: Path) -> list[str]:
    config = WORK / "configs" / f"{inv.out}.json"
    return [inv.command, "--config", str(config), "--out", str(outdir), "--threads", "1"]


def run_pass(wl, passdir: Path, golden: dict | None, tally: Tally, traced: bool) -> Pass:
    result = Pass()
    passdir.mkdir(parents=True)
    for inv in wl.invocations:
        outdir = passdir / inv.out
        probe = passdir / f"{inv.out}.{'spans' if traced else 'mark'}"
        code, wall, setup, cpu, rss = invoke(
            cli_argv(inv, outdir),
            "--spans" if traced else "--mark",
            probe,
            passdir / f"{inv.out}.log",
        )
        result.wall += wall
        result.setup += setup
        result.cpu += cpu
        result.rss_mib = max(result.rss_mib, rss)
        result.outdirs.append(outdir)
        log_tail = (passdir / f"{inv.out}.log").read_text(errors="replace")[-400:]
        if not tally.record(code == 0, f"{inv.command} exited {code}: {log_tail}"):
            continue
        if traced:
            result.traces.append(json.loads(probe.read_text()))
        expected = None if golden is None else golden.get(inv.out, {})
        for name, errs in workloads.check_invocation(inv, outdir, expected).items():
            tally.record(not errs, f"{inv.out}/{name}: {'; '.join(errs)}")
    return result


def setup_probe(wl, probedir: Path) -> float:
    """One more set-up sample: each invocation stopped at its first compute call."""
    probedir.mkdir(parents=True)
    total = 0.0
    for inv in wl.invocations:
        _, _, setup, _, _ = invoke(
            cli_argv(inv, probedir / inv.out),
            "--probe",
            probedir / f"{inv.out}.mark",
            probedir / f"{inv.out}.log",
        )
        total += setup
    return total


def compare_artifacts(wl, untraced: Pass, traced: Pass, tally: Tally) -> None:
    for inv, a, b in zip(wl.invocations, untraced.outdirs, traced.outdirs):
        for name in inv.artifacts:
            pa, pb = a / name, b / name
            same = pa.is_file() and pb.is_file() and pa.read_bytes() == pb.read_bytes()
            tally.record(same, f"traced {inv.out}/{name} differs from the untraced run")


def trace_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer times and counts of one traced pass, summed over its invocations.

    A span's self time is its duration minus its direct children's durations;
    a group's busy time sums its outermost spans, so nested calls of one
    group are not counted twice.
    """
    m: dict[str, float] = defaultdict(float)
    for trace in traces:
        spans = trace["spans"]
        m["cli.import_s"] += trace["import_s"]
        m["trace.spans"] += len(spans)
        dur = [end - start for _, start, end, _, _ in spans]
        self_time = list(dur)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self_time[span[3]] -= dur[i]

        def busy(names: set[str]) -> float:
            total = 0.0
            for i, span in enumerate(spans):
                if span[0] not in names:
                    continue
                parent = span[3]
                while parent >= 0 and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if parent < 0:
                    total += dur[i]
            return total

        for layer, names in LAYER_SPANS.items():
            m[f"{layer}.busy_s"] += busy(names)
            m[f"{layer}.calls"] += sum(1 for s in spans if s[0] in names)
            m[f"{layer}.self_s"] += sum(t for s, t in zip(spans, self_time) if s[0] in names)
        for name, names in TIMED.items():
            m[name] += busy(names)
        for name, names in COUNTED.items():
            m[name] += sum(1 for s in spans if s[0] in names)
        for name, fn in STEP_CHILDREN.items():
            m[name] += sum(
                d for s, d in zip(spans, dur)
                if s[0] == fn and s[3] >= 0 and spans[s[3]][0] == "weak_measurement.weak_step"
            )
        m["analysis.mc_capped"] += sum(s[4] for s in spans if s[0] == "analysis.walk_monte_carlo")
    m["weak_measurement.step_us"] = (
        1e6 * m["weak_measurement.step_s"] / m["weak_measurement.step_calls"]
        if m["weak_measurement.step_calls"] else 0.0
    )
    return m


def trajectory_ms(traces: list[dict]) -> list[float]:
    return [
        1e3 * (end - start)
        for trace in traces
        for name, start, end, _, _ in trace["spans"]
        if name in TRAJECTORY
    ]


def run_counts(outdirs: list[Path]) -> dict[str, float]:
    """Deterministic control-loop counts read back from the run artifacts."""
    m = {"control.trajectories": 0, "control.steps": 0, "control.scrambles": 0}
    useful = wasted = 0
    for outdir in outdirs:
        path = outdir / "trajectories.csv"
        if not path.is_file():
            continue
        for r in workloads._rows(path):
            steps = int(r["steps"])
            m["control.trajectories"] += 1
            m["control.steps"] += steps
            m["control.scrambles"] += int(r["scrambles"])
            if r["terminal_reason"] in ("threshold", "surplus"):
                useful += 1
            else:
                wasted += steps
    trajectories = m["control.trajectories"]
    m["control.useful_frac"] = useful / trajectories if trajectories else 0.0
    m["control.wasted_step_frac"] = wasted / m["control.steps"] if m["control.steps"] else 0.0
    return m


def line_counts() -> dict[str, int]:
    src = ROOT / "src" / "mdqo"
    counts = {}
    for mod in MODULE_FILES:
        path = src / f"{mod}.py"
        counts[f"{mod.strip('_')}.lines"] = (
            len(path.read_text().splitlines()) if path.is_file() else 0
        )
    counts["src.lines"] = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    return counts


def _read(path: Path | str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(wl) -> dict:
    """Versions, BLAS, thread variables as found, CPU, caches and the state size."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    model = next(
        (line.split(":", 1)[1].strip()
         for line in (_read("/proc/cpuinfo") or "").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = caches.get("L3")
    l3_bytes = int(l3.rstrip("K")) * 1024 if l3 and l3.endswith("K") else None
    state_bytes = 16 * 2**wl.n if wl.n else 0
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "commit": _git_commit(),
        "workload_n": wl.n,
        "state_bytes_computed": state_bytes,
        "state_over_l3_computed": state_bytes / l3_bytes if l3_bytes and state_bytes else None,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(wl, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict[str, float]]:
    golden = None
    if seed == workloads.DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text()).get(wl.name, {})
    tally = Tally()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    setups: list[float] = []
    start = _monotonic()
    while not untraced or _monotonic() - start < seconds:
        k = len(untraced)
        untraced.append(run_pass(wl, WORK / f"pass{k}", golden, tally, False))
        if not trace:
            setups += [untraced[-1].setup, setup_probe(wl, WORK / f"probe{k}")]
            shutil.rmtree(WORK / f"probe{k}")
        else:
            traced.append(run_pass(wl, WORK / f"traced{k}", golden, tally, True))
            compare_artifacts(wl, untraced[-1], traced[-1], tally)
            shutil.rmtree(WORK / f"traced{k}")
        if k:
            shutil.rmtree(WORK / f"pass{k - 1}")
    last = untraced[-1].outdirs
    counts = run_counts(last)
    walls = [p.wall for p in untraced]
    steps_per_s = [counts["control.steps"] / w for w in walls]
    trajs_per_s = [counts["control.trajectories"] / w for w in walls]
    if not trace:
        metrics = {
            "wall_s": _median(walls),
            "setup_s": _median(setups),
            "cpu_s": _median([p.cpu for p in untraced]),
            "peak_rss_mib": _median([p.rss_mib for p in untraced]),
            "fail_frac": tally.failed / tally.attempted,
            "steps_per_s": _median(steps_per_s),
            "trajectories_per_s": _median(trajs_per_s),
        }
        return tally, metrics
    per_pass = [trace_metrics(p.traces) for p in traced if len(p.traces) == len(wl.invocations)]
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in metrics:
        values = [m[name] for m in per_pass if name in m]
        if values:
            metrics[name] = _median(values)
    traj = [ms for p in traced for ms in trajectory_ms(p.traces)]
    metrics["control.traj_samples"] = len(traj)
    if len(traj) >= 100:
        metrics["control.traj_ms_p50"], metrics["control.traj_ms_p90"] = (
            float(v) for v in np.percentile(traj, [50, 90])
        )
    metrics.update(counts)
    metrics["control.steps_per_s"] = _median(steps_per_s)
    metrics["control.trajectories_per_s"] = _median(trajs_per_s)
    metrics["cli.bytes_written"] = sum(
        f.stat().st_size for d in last for f in d.rglob("*") if f.is_file()
    )
    metrics["trace.overhead_s"] = _median([p.wall for p in traced]) - _median(walls)
    metrics.update(line_counts())
    return tally, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    # Turn SIGTERM into SystemExit so that invoke() stops the running child.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "mdqo" / "cli.py").is_file():
        print(f"no mdqo sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "configs").mkdir(parents=True)
    for inv in wl.invocations:
        (WORK / "configs" / f"{inv.out}.json").write_text(json.dumps(inv.config))
    # Compile and cache the sources once so that no timed pass pays for it.
    code, *_ = invoke(["--help"], "--mark", WORK / "warmup.mark", WORK / "warmup.log")
    if code != 0:
        print((WORK / "warmup.log").read_text(errors="replace"), file=sys.stderr)
        print("importing mdqo from the checkout failed", file=sys.stderr)
        return 2

    tally, metrics = measure(wl, args.seed, args.seconds, bool(args.trace))
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    units = {k: v[0] for k, v in PER_LAYER.items()} if args.trace else {
        **END_TO_END, "fail_frac": "ratio", "steps_per_s": "1/s", "trajectories_per_s": "1/s",
    }
    for name, value in metrics.items():
        print(f"{wl.name:14s} {name:34s} {value:14.6g} {units[name]}")
    print(json.dumps({"environment": environment(wl)}, sort_keys=True))
    gated = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
