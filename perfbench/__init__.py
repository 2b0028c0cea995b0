"""Benchmark of the Symbolic QED stack; ``perfbench/run.py`` is the entry point."""
