"""Benchmark of the bornlab command-line interface.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload defect-scan --seed 1 --seconds 20 --trace 0

``campaign`` builds each workload's argv lists and checks every reply,
``tracing`` records per-layer spans for ``--trace 1`` runs, and ``run``
times the campaign and prints the metrics named in ``BENCHMARK.json``.
"""
