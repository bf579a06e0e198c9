"""The repository benchmark: four user-facing workloads, one command.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in fresh interpreters (one per repetition, so every
repetition starts cold), checks every output against its digest, prints
every metric by name with its unit, and ends with one JSON result line.
``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs a traced repetition beside an untraced one at the same
seed and reports the per-layer metrics.

Modules:

* :mod:`perfbench.workloads` — the workload table (what each workload
  calls, at what size, and how its output digest is formed);
* :mod:`perfbench.rep` — one cold-start repetition (the child process);
* :mod:`perfbench.spans` — the span recorder that wraps layer functions
  from outside the program and restores them afterwards;
* :mod:`perfbench.run` — the orchestrator and metric reduction;
* :mod:`perfbench.compare` — compares two result histories.
"""
