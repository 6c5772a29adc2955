"""Run every ```python block of README.md, so the examples cannot go
stale."""

import os
import re
import subprocess
import sys

import pytest

import wittlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
    BLOCKS = re.findall(r"^```python\n(.*?)^```$", fh.read(),
                        re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(wittlab.__file__))
    proc = subprocess.run([sys.executable, "-c", BLOCKS[index]],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
