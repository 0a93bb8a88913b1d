"""Trusted-dealer setup for the threshold coin.

Paper §2: *"Usually, one assumes that a trusted dealer is used to set up the
random keys for all processes."* The dealer here plays that role for the
reproduction: for every coin instance ``w`` it defines a fresh degree-``f``
polynomial ``P_w`` (derived deterministically from the dealer seed, standing
in for the PRF/threshold-signature structure of [42]), with the instance
secret ``P_w(0)``. A run has one dealer, :func:`run_dealer`, keyed by the
run seed alone, so every node of a run — simulated, in one loop or one per
host — derives the same keys and elects the same leaders.

Each process ``i`` receives a :class:`CoinKey` that can compute *only its
own* share ``P_w(i)`` for any instance — the analogue of signing ``w`` with a
private key share. Any ``f + 1`` shares reconstruct ``P_w(0)`` by Lagrange
interpolation; ``f`` or fewer reveal nothing about it (Shamir secrecy), which
is exactly the coin's unpredictability requirement.

Share verification: real deployments verify shares against public
commitments (Feldman VSS / BLS share verification). The dealer exposes
:meth:`CoinDealer.verify_share`, which recomputes the true share — honest
verifiers in the simulation use it the way they would use a public
commitment, and Byzantine processes cannot forge shares that pass it.
"""

from __future__ import annotations

from repro.common.config import SystemConfig
from repro.common.errors import SecretSharingError
from repro.common.rng import derive_rng, derive_seed
from repro.crypto.shamir import PRIME, _eval_poly


class CoinDealer:
    """Generates and arbitrates per-instance Shamir polynomials."""

    def __init__(self, seed: int, n: int, threshold: int):
        if not 1 <= threshold <= n:
            raise SecretSharingError(f"threshold {threshold} outside [1, {n}]")
        self._seed = seed
        self.n = n
        self.threshold = threshold

    def _polynomial(self, instance: int) -> list[int]:
        rng = derive_rng(self._seed, "coin-instance", instance)
        return [rng.randrange(PRIME) for _ in range(self.threshold)]

    def key_for(self, process: int) -> "CoinKey":
        """Return the private key material handed to ``process`` at setup."""
        if not 0 <= process < self.n:
            raise SecretSharingError(f"process {process} out of range")
        return CoinKey(self, process)

    def share(self, process: int, instance: int) -> int:
        """True share of ``process`` for ``instance`` (``P_w(process + 1)``)."""
        return _eval_poly(self._polynomial(instance), process + 1)

    def verify_share(self, process: int, instance: int, value: int) -> bool:
        """Check a claimed share against the dealer's commitment."""
        return self.share(process, instance) == value

    def secret(self, instance: int) -> int:
        """The instance secret ``P_w(0)`` — test/oracle use only."""
        return self._polynomial(instance)[0]


class CoinKey:
    """Private per-process key: computes this process's share of any instance."""

    def __init__(self, dealer: CoinDealer, process: int):
        self._dealer = dealer
        self.process = process

    def share(self, instance: int) -> int:
        """Return this process's share for coin ``instance``."""
        return self._dealer.share(self.process, instance)


def run_dealer(config: SystemConfig) -> CoinDealer:
    """The dealer of the run ``config`` describes: a function of its seed,
    independent of the delay and transaction streams."""
    return CoinDealer(
        derive_seed(config.seed, "coin-dealer"), config.n, config.small_quorum
    )
