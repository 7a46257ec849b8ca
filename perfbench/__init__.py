"""Benchmark of the fastron package: three workloads, timed end to end and by layer.

Run ``python3 perfbench/run.py --workload <name>`` from the repository root;
see README.md in this directory.
"""
