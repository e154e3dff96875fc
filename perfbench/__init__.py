"""MoniLog benchmark: end-to-end metrics per workload, and per-layer
metrics from a traced run that wraps the program's layers from outside.

See ``perfbench/README.md`` for the workloads, the metrics and how to run.
"""
