"""The repo's perf ledger: one seeded, verified, layered benchmark.

``python3 -m benchmarks.ledger run --workload <name> --seed <int>
--seconds <s> --trace <0|1>`` from the repository root; see ``README.md``
in this directory for the catalogue of workloads and metrics.
"""
