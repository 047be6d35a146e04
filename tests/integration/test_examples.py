"""Every script under ``examples/`` runs to completion.

The examples are documentation that executes: each one is run in a fresh
interpreter (working directory a temporary one, so nothing lands in the
checkout) and must exit 0.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))
EXAMPLES = sorted(glob.glob(os.path.join(_ROOT, "examples", "*.py")))


def test_examples_are_found():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_example_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
