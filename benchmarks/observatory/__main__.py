"""Entry point: ``python3 benchmarks/observatory/__main__.py ...``.

Also reachable as ``python -m benchmarks.observatory``.  Either way the
repository root and ``src/`` are put on ``sys.path`` here, so no
``PYTHONPATH`` is needed, and the package is imported under its full name.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(_HERE))
# Run as a script, sys.path[0] is this directory: its modules must only be
# importable as benchmarks.observatory.*, never as top-level names.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.getcwd()) != _HERE]
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

try:
    from benchmarks.observatory.cli import main  # noqa: E402
except ModuleNotFoundError as exc:
    if exc.name != "repro":
        raise
    raise SystemExit(f"observatory: the program under test is missing from {ROOT}/src "
                     f"({exc}); run from a full checkout") from None

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
