"""End-to-end and per-layer benchmark of the vnfplace placers.

Run it from the repository root:

    python3 perfbench/run.py --workload island --seed 0 --seconds 30 --trace 0

See perfbench/LAYERS.md for the workloads, the layer -> metric ->
workload map and what the benchmark cannot see.
"""
