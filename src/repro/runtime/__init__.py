"""Real-socket runtime: run unmodified DAG-Rider nodes over TCP.

The simulator (:mod:`repro.sim`) is the measurement substrate — it owns the
adversary, the wire-size accounting, and determinism. This package is the
deployment substrate: the same :class:`repro.core.node.DagRiderNode` code
runs over asyncio TCP sockets on localhost, demonstrating that nothing in
the protocol logic depends on the simulator.

* :mod:`repro.runtime.transport` — a TCP network presenting the same duck
  interface as :class:`repro.sim.network.Network` (``register`` / ``send`` /
  ``broadcast`` / ``scheduler.now`` / ``scheduler.call_later``), framing
  every message with the canonical binary codec of :mod:`repro.codec`
  (no pickle on the wire).
* :mod:`repro.runtime.reliable` — the reliable-link layer under the
  transport: per-peer sequenced queues, ack-based redelivery, seeded
  exponential backoff, heartbeats, and degraded-peer bounding, restoring
  the paper's §2 reliable-link assumption on real sockets. Its timings
  are module constants.
* :mod:`repro.runtime.chaos` — seeded, deterministic fault injection
  (drops, duplicates, delays, severed connections, dial failures) for
  robustness tests and examples; a frame's whole fate is one ``plan`` call.
* :mod:`repro.runtime.peers` — declarative peer tables (JSON):
  pid -> host:port plus the SystemConfig, coin, ``gc_depth`` and ingress
  settings — the one place a deployment's choices live.
* :mod:`repro.runtime.runner` — :class:`NodeRunner` boots ONE node from a
  peer table (the ``python -m repro tcp-node`` unit) with a small control
  socket for readiness probes, state aggregation, and shutdown.
* :mod:`repro.runtime.linerpc` — the newline-JSON RPC substrate under the
  control socket and the client ingress socket: one ``LineServer`` (verb
  table, streaming verbs, draining close) and its sync/async clients.
* :mod:`repro.runtime.cluster` — :class:`LocalCluster` composes n runners
  inside one asyncio loop (tests, examples) over the same boot/teardown
  path; ``scripts/fabric.py`` / :mod:`repro.runtime.fabric` drive n
  runner *processes* instead.
* :mod:`repro.runtime.live` — the fabric driver's live telemetry view:
  one ``subscribe`` control-socket stream per runner folded into a
  per-node commit-frontier row (TTY repaint or plain ``live:`` lines),
  raw stream tees, diagnostic dumps cut from what the tees hold, and the
  quorum-frontier stall detector that writes one (``docs/observability.md``
  "Live streaming and causal analysis").
* :mod:`repro.runtime.consistency` — a node's whole delivered log as
  digests, past lives included, for
  :func:`repro.core.node.check_prefix_consistency`.

See ``docs/runtime.md`` for the full design.
"""
