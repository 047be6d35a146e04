"""Every script under ``examples/`` and the package quick start run to completion.

The examples are documentation that executes: each one is run in a fresh
interpreter (working directory a temporary one, so nothing lands in the
checkout) and must exit 0.  The ``Quick start::`` block of ``repro.__doc__``
runs in-process and must print the run's summary.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys
import textwrap

import pytest

import repro

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


def test_package_quick_start_runs(capsys):
    code = textwrap.dedent(repro.__doc__.split("Quick start::", 1)[1])
    namespace: dict = {}
    exec(compile(code, "repro.__doc__", "exec"), namespace)
    result = namespace["result"]
    assert result.completed
    assert result.stats.checkpoints_taken > 0
    assert capsys.readouterr().out.splitlines() == result.stats.summary_lines()
