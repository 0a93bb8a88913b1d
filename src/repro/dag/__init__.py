"""The DAG abstraction — the communication layer of DAG-Rider (paper §4).

* :mod:`repro.dag.vertex` — the vertex struct of Algorithm 1 (round, source,
  block, ≥2f+1 strong edges to the previous round, weak edges to otherwise
  unreachable older vertices) with a canonical binary codec.
* :mod:`repro.dag.store` — one process's local view ``DAG_i[]``: rounds of
  vertices plus ``path``/``strong_path`` reachability answered in O(1) via
  big-integer ancestor bitsets.
* :mod:`repro.dag.builder` — Algorithm 2: the delivery buffer, the
  2f+1-vertices round-advance rule, vertex creation with weak-edge
  completion, and the ``wave_ready`` signal to the ordering layer.
"""
