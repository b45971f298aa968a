"""The benchmark's traced names must exist: its tracer skips a missing one silently."""

import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = [
        f"mdqo.{layer}.{name}"
        for layer, names in child.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"mdqo.{layer}"), name, None))
    ]
    assert missing == []
