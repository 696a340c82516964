"""pipeline_bench: end-to-end workloads with a per-layer split.

The benchmark behind ``BENCHMARK.json``.  It drives the host pipeline
(simulate -> probe -> ring -> ship -> collect -> store -> reconstruct ->
export) from outside: nothing under ``src/`` knows it exists.  See
``pipeline_bench/README.md`` for every metric, workload and the
layer -> end-to-end interaction table.
"""
