"""Layered performance observatory (see README.md in this directory).

Six named workloads measured end to end and, in a separate traced run,
layer by layer.  Entry point: ``python3 benchmarks/observatory/__main__.py``
(or ``python -m benchmarks.observatory``) with ``run | trace | compare`` or
the single-workload form ``--workload NAME --seed N --seconds S --trace 0|1``.
"""
