"""Benchmark for qkd_eve_lab: timed workloads, correctness gates and a traced run.

Run ``python3 perfbench/run.py --help`` from the repository root; the
workloads, metrics and baseline numbers are described in ``perfbench/README.md``.
"""
