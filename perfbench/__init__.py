"""Benchmark harness for emorec; see run.py."""
