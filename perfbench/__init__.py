"""The repository's benchmark: seeded workloads, output checks and layer spans.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>``; see
``perfbench/README.md`` for the workloads, metrics and predictions.
"""
