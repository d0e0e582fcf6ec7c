"""Benchmark harness for burnside; see bench/README.md."""
