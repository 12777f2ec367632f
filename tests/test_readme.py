"""Every ```python block of README.md runs, and each `print(...)  # text`
line in it prints the text after its `#`."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example(block):
    expected = re.findall(r"^print\(.*?\)\s+# (.*)$", block, re.MULTILINE)
    prints = re.findall(r"^print\(", block, re.MULTILINE)
    assert len(expected) == len(prints), "every print in a README example states its output"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
