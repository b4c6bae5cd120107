"""Benchmark of lbseries; see README.md and run.py."""
