"""Threshold coin: the (f+1)-of-n Shamir-share protocol of paper §2.

On ``invoke(w)`` a process computes its share of the instance-``w`` secret
from its dealer-issued key and broadcasts it. Every process collects shares,
verifies them against the dealer's commitment (rejecting Byzantine
fabrications), and once ``f + 1`` *distinct, valid* shares for ``w`` are on
hand reconstructs the secret by Lagrange interpolation and hashes it to a
leader in ``0..n-1``.

Properties, mapped to the paper's coin definition:

* Agreement — the secret is a deterministic function of ``w`` and the dealt
  polynomial, and the hash is deterministic, so every reconstruction agrees.
* Termination — ``f + 1`` invocations put ``f + 1`` correct shares on
  reliable links to everyone.
* Unpredictability — fewer than ``f + 1`` shares are information-
  theoretically independent of the secret (Shamir secrecy with a degree-``f``
  polynomial).
* Fairness — the secret is uniform over a 128-bit field, so the hashed
  leader is uniform over ``n`` up to a negligible bias.

The share messages can also ride inside DAG vertices (the paper's footnote
1); :meth:`ThresholdCoin.deliver_share` is the ingestion point either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.coin.base import CoinProtocol
from repro.common.types import validity_quorum
from repro.crypto.dealer import CoinDealer, CoinKey
from repro.crypto.hashing import digest_int
from repro.crypto.shamir import reconstruct_secret
from repro.sim.wire import BITS_PER_ROUND, BITS_PER_SHARE, BITS_PER_TAG, Message


@dataclass(frozen=True)
class CoinShareMessage(Message):
    """One process's share of the instance secret."""

    instance: int
    value: int

    def wire_size(self, n: int) -> int:
        return BITS_PER_TAG + BITS_PER_ROUND + BITS_PER_SHARE


def leader_from_secret(secret: int, instance: int, n: int) -> int:
    """Hash a reconstructed instance secret to a process id."""
    return digest_int("coin-leader", instance, secret) % n


class ThresholdCoin(CoinProtocol):
    """Per-process endpoint of the threshold-coin protocol.

    The owner wires ``broadcast_share`` to its transport (dedicated messages
    or vertex piggybacking) and routes incoming shares to
    :meth:`deliver_share`.
    """

    def __init__(
        self,
        pid: int,
        dealer: CoinDealer,
        key: CoinKey,
        broadcast_share: Callable[[CoinShareMessage], None],
    ):
        super().__init__()
        if key.process != pid:
            raise ValueError(f"key for process {key.process} given to {pid}")
        self.pid = pid
        self._dealer = dealer
        self._key = key
        self._broadcast_share = broadcast_share
        self._threshold = validity_quorum(dealer.n)
        self._shares: dict[int, dict[int, int]] = {}
        self._invoked: set[int] = set()

    def invoke(self, instance: int) -> None:
        if instance in self._invoked:
            return
        self._invoked.add(instance)
        share = self._key.share(instance)
        self.deliver_share(self.pid, instance, share)
        self._broadcast_share(CoinShareMessage(instance, share))

    def own_shares(self, from_instance: int) -> list[CoinShareMessage]:
        """This process's share of every instance it invoked, from
        ``from_instance`` upward: what a peer that lost them in a crash
        needs. Each was already broadcast, so resending reveals nothing."""
        return [
            CoinShareMessage(instance, self._key.share(instance))
            for instance in sorted(self._invoked)
            if instance >= from_instance
        ]

    def deliver_share(self, src: int, instance: int, value: int) -> None:
        """Ingest a share from process ``src`` (verified before use)."""
        if instance in self._resolved:
            return
        if not self._dealer.verify_share(src, instance, value):
            return  # Byzantine fabrication; a real scheme rejects it likewise
        shares = self._shares.setdefault(instance, {})
        shares[src] = value
        if len(shares) >= self._threshold:
            points = [(src + 1, val) for src, val in shares.items()]
            secret = reconstruct_secret(points, self._threshold)
            self._resolve(
                instance, leader_from_secret(secret, instance, self._dealer.n)
            )
            del self._shares[instance]

    def on_message(self, src: int, message: CoinShareMessage) -> None:
        """Route a dedicated share message into the protocol."""
        self.deliver_share(src, message.instance, message.value)
