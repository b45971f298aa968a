"""The benchmark's traced names must exist: its tracer skips a missing one silently."""

import importlib
import importlib.util
from pathlib import Path

import mdqo.cli

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"

# COMPUTE_ENTRIES names that mdqo.cli does not bind: the set-up marker skips
# them, so a walk whose first reset cell has p <= 1/2 counts that cell's
# closed form as set-up.  Any new gap fails below.
KNOWN_UNBOUND_ENTRIES = ["expected_steps_with_reset_exact"]


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_every_traced_name_exists():
    child = load_child()
    missing = [
        f"mdqo.{layer}.{name}"
        for layer, names in child.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"mdqo.{layer}"), name, None))
    ]
    assert missing == []


def test_every_setup_marker_is_bound_in_the_cli():
    unbound = [
        name for name in load_child().COMPUTE_ENTRIES if not callable(getattr(mdqo.cli, name, None))
    ]
    assert unbound == KNOWN_UNBOUND_ENTRIES
