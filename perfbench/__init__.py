"""Benchmark harness for proxrem; see README.md and run.py."""
