"""Benchmark for qnlab: see README.md."""
