"""End-to-end benchmark of the reproduction campaign, with per-layer attribution.

Run ``python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see :mod:`e2ebench.run`.
"""
