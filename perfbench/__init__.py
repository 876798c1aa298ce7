"""Benchmark of the nem_mms_ray engine; run `python3 perfbench/run.py --help`."""
