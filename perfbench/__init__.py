"""End-to-end and per-layer benchmark of the GPU-FPX reproduction.

Run ``python3 perfbench/run.py --workload {eval,sweep-pool,serve}
--seed N --seconds S --trace {0,1}`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and predictions.
"""
