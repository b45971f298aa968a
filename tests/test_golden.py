"""Golden artifact hashes for every shipped config in configs/.

Each config is run in-process through the CLI entry point and every file it
writes, sidecars included, must match the sha256 recorded in
golden_configs.json.  Unlike a rerun comparison, this catches a change in
RNG draw order or float summation order.  Hashes are tied to the numpy build
that wrote them.  After an intended change of output, regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and say why in the change log.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mdqo import Graph
from mdqo.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_configs.json")

COMMANDS = {
    "maxcut_sweep.json": "sweep-counts",
    "mis_sweep.json": "sweep-counts",
    "mis_sweep_lambdas.json": "sweep-counts",
    "postprocess.json": "postprocess",
    "run_maxcut.json": "run",
    "run_maxcut_n12.json": "run",
    "run_mis_feasible.json": "run",
    "run_mis_feasible_n12.json": "run",
    "run_mis_feasible_n28.json": "run",
    "run_mis_penalty_n12.json": "run",
    "scramble.json": "scramble-study",
    "walk.json": "walk",
    "walk_mc.json": "walk",
}


def written_hashes(outdir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outdir.iterdir())
    }


def artifact_hashes(name: str, outdir: Path) -> dict[str, str]:
    config = ROOT / "configs" / name
    assert main([COMMANDS[name], "--config", str(config), "--out", str(outdir)]) == 0
    return written_hashes(outdir)


def test_every_shipped_config_is_covered():
    shipped = sorted(path.name for path in (ROOT / "configs").glob("*.json"))
    assert shipped == sorted(COMMANDS)
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(COMMANDS)


def every_artifact_hash(outroot: Path, names=COMMANDS) -> dict[str, dict[str, str]]:
    return {name: artifact_hashes(name, outroot / name) for name in sorted(names)}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_shipped_config_artifacts_match_golden(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert artifact_hashes(name, tmp_path) == expected


def hashes_in_fresh_interpreter(tmp_path: Path, names, **settings) -> dict:
    """every_artifact_hash of `names` in a subprocess whose environment adds
    settings: OpenBLAS and numpy's CPU dispatch read theirs once, when numpy loads."""
    env = dict(os.environ, **settings)
    paths = [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    script = (
        "import json, sys; from pathlib import Path; "
        "from test_golden import every_artifact_hash; "
        "out = Path(sys.argv[1]); "
        "names = json.loads(sys.argv[2]); "
        "(out / 'hashes.json').write_text(json.dumps(every_artifact_hash(out / 'runs', names)))"
    )
    command = [sys.executable, "-c", script, str(tmp_path), json.dumps(sorted(names))]
    subprocess.run(command, env=env, check=True)
    return json.loads((tmp_path / "hashes.json").read_text())


@pytest.mark.parametrize(
    "name", sorted(n for n, c in COMMANDS.items() if c in ("run", "sweep-counts", "postprocess"))
)
def test_no_sort_passes_the_levels_or_pairs(name, tmp_path, monkeypatch):
    # every table these commands drive stores its levels, read off integer
    # counts or the penalty-free pairs, so np.unique never sorts more entries
    # than the graph's cost has levels, or its MIS (size, violations) pairs;
    # count_independent_sets merges vertex patterns, not costs
    config = json.loads((ROOT / "configs" / name).read_text())
    problem = config["problem"]
    graph = Graph.from_1indexed(problem["graph"]["n"], problem["graph"]["edges"])
    if problem["kind"] == "maxcut":
        bound = graph.maxcut.levels[0].size
    elif "penalty_weight" in problem or "penalty_weights" in config.get("sweep", {}):
        bound = graph.mis_pairs[0].size
    else:
        bound = graph.subspace.levels[0].size
    sizes = []
    unique = np.unique

    def sized(values, *args, **kwargs):
        if sys._getframe(1).f_code.co_name != "count_independent_sets":
            sizes.append(np.size(values))
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", sized)
    artifact_hashes(name, tmp_path)
    assert max(sizes, default=0) <= bound


# the platform settings the goldens must survive: the OpenBLAS thread count
# and kernel, and numpy's CPU dispatch cut to its X86_V2 baseline.  Only the
# n = 18 closed forms read BLAS, and no shipped config reaches n = 18; the
# run path and the level-space studies make no BLAS call at all
KERNEL_SETTINGS = {
    "one-blas-thread": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    "blas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "blas-sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "numpy-x86-v2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}


@pytest.mark.parametrize("setting", list(KERNEL_SETTINGS))
def test_golden_hashes_hold_under_every_kernel_setting(setting, tmp_path):
    env = KERNEL_SETTINGS[setting]
    # numpy refuses dispatch names this build or machine lacks with an
    # ImportWarning, which is ignored by default: the case would pass untested
    probe = [sys.executable, "-W", "error::ImportWarning", "-c", "import numpy"]
    refused = subprocess.run(probe, env=dict(os.environ, **env), capture_output=True, text=True)
    if refused.returncode:
        message = " ".join(refused.stderr.split("ImportWarning:")[-1].split())
        pytest.skip(f"numpy refuses {env}: {message}")
    hashes = hashes_in_fresh_interpreter(tmp_path, COMMANDS, **env)
    assert hashes == json.loads(GOLDEN.read_text())


# einsum reaches BLAS only when asked to optimize its contraction order
BLAS_CALL = re.compile(
    r"linalg| @ |np\.dot|\.dot\(|matmul|tensordot|inner\(|vdot|einsum\(.*optimize"
)


def test_only_analytic_state_calls_blas():
    # BLAS sums in an order that follows the OpenBLAS kernel and thread count;
    # analytic_state's norm is the one documented call left, and it feeds
    # only the study commands
    hits = [
        (path.name, line.strip())
        for path in sorted((ROOT / "src" / "mdqo").glob("*.py"))
        for line in path.read_text().splitlines()
        if BLAS_CALL.search(line)
    ]
    assert hits == [("weak_measurement.py", "norm = np.linalg.norm(amps)")]


def test_module_entry_point(tmp_path):
    # `python -m mdqo` runs the same CLI: the walk config writes its golden
    # artifacts, and an unknown subcommand exits with the usage code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "walk"
    config = ROOT / "configs" / "walk.json"
    command = [sys.executable, "-m", "mdqo", "walk", "--config", str(config), "--out", str(out)]
    assert subprocess.run(command, env=env, capture_output=True).returncode == 0
    assert written_hashes(out) == json.loads(GOLDEN.read_text())["walk.json"]
    unknown = [sys.executable, "-m", "mdqo", "no-such-command"]
    assert subprocess.run(unknown, env=env, capture_output=True).returncode == 2


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = every_artifact_hash(Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
