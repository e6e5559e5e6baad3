"""Benchmark of the schottky_strata package; run ``perfbench/run.py``."""
