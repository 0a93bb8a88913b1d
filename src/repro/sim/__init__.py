"""Deterministic discrete-event simulation of an asynchronous network.

This package is the substrate the paper's model (§2) runs on:

* :mod:`repro.sim.scheduler` — a deterministic event loop with a stable
  tie-break order, so identical seeds replay identical executions.
* :mod:`repro.sim.wire` — the bit-size model used for communication-
  complexity accounting (§3 "communication measurement").
* :mod:`repro.sim.network` — reliable authenticated links between correct
  processes with adversary-controlled delays; the adversary may drop
  undelivered messages of corrupted processes (adaptive adversary, §2).
* :mod:`repro.sim.process` — the message-driven process harness protocols
  subclass.
* :mod:`repro.sim.adversary` — delay/drop strategies, from benign uniform
  delays to targeted leader suppression.

The §3 accounting (bits sent, asynchronous time units) the network feeds
is :class:`repro.obs.wire.MetricsCollector`.
"""
