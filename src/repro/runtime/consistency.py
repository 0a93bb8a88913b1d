"""Digest-based prefix-consistency checks shared by cluster and fabric.

BAB total order says every pair of correct processes delivers the same
sequence. Comparing ``(round, source)`` slots is not enough: reliable
broadcast *should* prevent two different blocks occupying one slot, but the
consistency check exists precisely to catch the runs where something below
it broke — so each delivered entry is reduced to a SHA-256 digest over its
slot *and* block bytes (:func:`repro.core.node.entry_digest`), and the
digests are compared position by position.

The same check runs in three places with the same semantics:

* :meth:`repro.runtime.cluster.LocalCluster.check_total_order` — in-loop;
* the fabric driver (``scripts/fabric.py``) — across host boundaries, on
  digest logs fetched over each node's control socket;
* the runner's control ``log`` command is what produces those digests.

Digests travel as hex strings so they survive JSON control channels.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.common.errors import ConsistencyError
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


def check_prefix_consistency(
    logs: Mapping[object, Sequence[str]],
) -> int:
    """Require every pair of digest logs to agree on their common prefix.

    Args:
        logs: Label (node id, ``host:pid``, ...) to that node's digest log.

    Returns:
        The length of the shortest log (the prefix every node agrees on).

    Raises:
        ConsistencyError: At the first position where two logs disagree.
    """
    labeled = list(logs.items())
    for i, (label_a, log_a) in enumerate(labeled):
        for label_b, log_b in labeled[i + 1 :]:
            shorter = min(len(log_a), len(log_b))
            for pos in range(shorter):
                if log_a[pos] != log_b[pos]:
                    raise ConsistencyError(
                        f"total order violated at position {pos}: "
                        f"{label_a} delivered {log_a[pos][:16]}..., "
                        f"{label_b} delivered {log_b[pos][:16]}..."
                    )
    if not labeled:
        return 0
    return min(len(log) for _, log in labeled)
