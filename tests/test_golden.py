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

import pytest

from mdqo.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_configs.json")

COMMANDS = {
    "maxcut_sweep.json": "sweep-counts",
    "mis_sweep.json": "sweep-counts",
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


def hashes_in_fresh_interpreter(tmp_path: Path, names, **blas_env) -> dict:
    """every_artifact_hash of `names` in a subprocess whose environment adds
    blas_env: OpenBLAS reads its variables once, when numpy loads."""
    env = dict(os.environ, **blas_env)
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


def test_golden_hashes_hold_under_one_blas_thread(tmp_path):
    # only the n = 18 closed forms depend on the BLAS thread count, and no
    # shipped config reaches n = 18
    hashes = hashes_in_fresh_interpreter(
        tmp_path, COMMANDS, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"
    )
    assert hashes == json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("coretype", ["Prescott", "Sandybridge"])
def test_run_hashes_hold_under_other_blas_kernels(coretype, tmp_path):
    # the run path and the level-space studies (sweep-counts, postprocess)
    # make no BLAS call, so the OpenBLAS kernel cannot move the summation
    # order of any of their artifacts
    studies = ["maxcut_sweep.json", "mis_sweep.json", "postprocess.json"]
    names = [name for name in COMMANDS if COMMANDS[name] == "run"] + studies
    hashes = hashes_in_fresh_interpreter(tmp_path, names, OPENBLAS_CORETYPE=coretype)
    golden = json.loads(GOLDEN.read_text())
    assert hashes == {name: golden[name] for name in names}


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
