"""A node's whole delivered log as digests, for the cluster and its hosts.

The control ``log`` verb, :meth:`repro.runtime.cluster.LocalCluster.check_total_order`
and the fabric driver compare these logs with
:func:`repro.core.node.check_prefix_consistency`, the one prefix check of
both planes. Digests travel as hex strings so they survive JSON control
channels.
"""

from __future__ import annotations

from repro.core.node import DagRiderNode


def full_digest_log(node: DagRiderNode) -> list[str]:
    """A node's complete digest log, including deliveries from past lives.

    A snapshot of :meth:`repro.core.node.DagRiderNode.digest_log`, which
    hashes each delivered entry once and carries the digests of entries
    delivered before the last restart (restored from ``digests.log``).
    Entry digests cover ``(round, source, block bytes)`` and none of those
    depend on the clock, so this is exactly the log an uninterrupted run
    produces.
    """
    return list(node.digest_log())
