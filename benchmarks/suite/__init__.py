"""One benchmark suite for the UA-DB reproduction.

Five named workloads, end-to-end and per-layer metrics, one command.  The
contract with the benchmark driver is ``BENCHMARK.json`` at the repository
root; ``README.md`` next to this file says why each workload and metric
exists and how the layers map onto the end-to-end numbers.

The suite times the system from outside only: it calls public functions of
``repro`` and spawns ``python -m repro.server``; it changes no file outside
its own directory.
"""
