"""The exact-count gate: seeded simulator cells, swept and compared for equality.

DAG-Rider's claims are counts and shapes, which the deterministic simulator
reproduces exactly. This package pins them:

* :mod:`repro.perf.cells` — declarative cells and the named suites (the
  Table-1 grid, its n=25/50/100 extension, a CI smoke grid);
* :mod:`repro.perf.runner` — run one cell, returning ``{params, metrics}``;
* :mod:`repro.perf.sweep` — fan cells across a ``ProcessPoolExecutor`` and
  merge them into the ``BENCH_sim.json`` document; compare two documents;
* ``python -m repro.perf`` — the one entry point (``--out`` / ``--check``).

Determinism contract: for a fixed suite and base seed the document is
byte-identical whether cells run serially or in parallel, and identical
across machines. Nothing here reads a clock (DET002 enforces it); time and
memory are measured by ``bench/``.
"""
