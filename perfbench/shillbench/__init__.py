"""shillbench — the end-to-end benchmark of the SHILL reproduction.

``perfbench/run.py`` is the command; see ``perfbench/README.md`` for the
workloads, the metrics and how to run it.
"""
