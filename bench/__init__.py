"""Benchmark of the qhsd CLI workloads; run with `python3 -m bench`."""
