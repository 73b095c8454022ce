"""README's python examples run as written, so they cannot go stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_has_a_python_example():
    assert len(python_blocks(README.read_text())) >= 1


def test_readme_python_examples_run():
    for block in python_blocks(README.read_text()):
        exec(compile(block, str(README), "exec"), {})
