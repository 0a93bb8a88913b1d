"""Unified observability: deterministic events, trace tooling.

The paper's claims are *measured* claims — Claim 6's ≤ 3/2 expected waves
per commit, Table 1's bit counts, §3's asynchronous time units — so the
reproduction carries a first-class observability layer shared by the
simulator, the protocol core, and the TCP runtime:

* :mod:`repro.obs.events` / :mod:`repro.obs.bus` — a deterministic,
  append-only event bus. Every event is stamped with the *owning clock's*
  time (simulated time in the simulator, the runtime scheduler's monotonic
  time under TCP), so simulator traces are bit-reproducible for a seed.
* :mod:`repro.obs.spans` — span-style phase tracking with no in-tree
  caller (``bench/trace.py`` patches it by name; see the module docstring).
* :mod:`repro.obs.wire` — the §3 communication/time accounting collector
  both the simulator network and the TCP transport feed.
* :mod:`repro.obs.export` — versioned JSONL trace export/import; a live
  control-socket ``subscribe`` stream is the same document, line by line.
* :mod:`repro.obs.analyze` — summaries, filters, and trace *diffing*
  (clean run vs. chaos run → which waves paid for redelivery).
* :mod:`repro.obs.stream` — live telemetry's bounded event ring and the
  quorum-frontier stall detector.
* :mod:`repro.obs.causal` — cross-host causal stitching of merged traces
  into per-vertex chains with per-edge latency percentiles.
* ``python -m repro.obs`` (:mod:`repro.obs.cli`) — record / summarize /
  filter / diff / causal from the command line.

The package is dependency-light by design: it imports nothing from
``repro.sim``, ``repro.core``, or ``repro.runtime``, so every layer can
emit into it without cycles. It is in scope for the determinism lint's
DET002/DET003 rules — no wall-clock reads, no set-order leaks.
"""
