"""Global perfect coin (paper §2).

The coin maps an instance number ``w`` to a uniformly random process, with:

* **Agreement** — all correct processes see the same leader for ``w``;
* **Termination** — once ``f + 1`` processes invoke instance ``w`` it
  resolves everywhere;
* **Unpredictability** — before ``f + 1`` invocations the leader is
  indistinguishable from random;
* **Fairness** — each process is elected with probability ``1/n``.

Two implementations:

* :class:`repro.coin.ideal.IdealCoin` — the ideal functionality, resolved
  instantly from the run seed; used when the experiment does not study the
  coin itself.
* :class:`repro.coin.threshold.ThresholdCoin` — the real message-based
  protocol from §2: each invocation releases this process's Shamir share of
  the instance secret, and any ``f + 1`` verified shares reconstruct it;
  the leader is the hash of the secret mod ``n``.
"""
