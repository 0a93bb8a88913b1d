"""DAG-Rider: the zero-communication ordering layer and the full node.

* :mod:`repro.core.ordering` — Algorithm 3: wave leaders via the global
  perfect coin, the 2f+1-strong-support commit rule, the recursive
  walk-back over skipped waves, and deterministic causal-history delivery.
* :mod:`repro.core.node` — a complete DAG-Rider process: reliable broadcast
  + DAG construction + coin + ordering wired together, with the BAB API
  (``a_bcast`` / the ordered output log).
* :mod:`repro.core.faulty` — Byzantine/crash node variants used by tests and
  the fault-injection benches.
* :mod:`repro.core.harness` — convenience builder for whole simulated
  deployments.
"""
