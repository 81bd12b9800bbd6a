"""End-to-end and per-layer benchmark of the sdmatch CLI.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N``;
``--workload all`` runs every workload in a fresh process each and prints a
table. See ``perfbench/README.md``.
"""
