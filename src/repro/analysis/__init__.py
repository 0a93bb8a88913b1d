"""Measurement and reporting utilities for the experiments.

* :mod:`repro.analysis.chain_quality` — the §3 chain-quality property:
  every ``(2f+1)·r`` prefix of the ordered log contains at least
  ``(f+1)·r`` values from correct processes.
* :mod:`repro.analysis.complexity` — log-log scaling-exponent estimation
  and model selection among {1, log n, n, n log n, n², n³} for the
  Table 1 communication columns.
* :mod:`repro.analysis.stats` — summary statistics and the geometric-
  distribution estimate behind Claim 6.
* :mod:`repro.analysis.render` — ASCII rendering of a local DAG (the
  Figure 1 / Figure 2 reproductions).
"""
