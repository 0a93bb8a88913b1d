"""Determinism lint: custom AST static analysis for this reproduction.

The simulator's contract is *bit-identical deterministic metrics* — the
committed ``BENCH_sim.json`` is compared for equality by ``python -m
repro.perf --check``, and PR 2's speedups were only mergeable because
every Table-1 cell stayed byte-identical. This package statically
enforces the coding rules that keep that contract honest (seeded RNG only,
no wall clocks in simulated time, no set-order leaks), plus one asyncio
rule: every spawned task has an owner for its exception. A rule stays only
while it catches a hazard the tests and the count gate miss, and a finding
is fixed in the code or in the rule.

Run as ``python -m repro.lint src/``; see ``docs/static-analysis.md`` for
the rule guide.
"""
