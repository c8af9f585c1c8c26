"""Benchmark of the capping protocol; the entry point is ``run.py``."""
