"""README's Python examples run as written, so they name no removed function."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_one_namespace():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2  # the later blocks reuse the first one's names
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
