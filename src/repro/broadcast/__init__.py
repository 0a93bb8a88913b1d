"""Reliable broadcast abstraction and its three instantiations (paper §2, Table 1).

The abstraction: a sender calls ``r_bcast(m, r)``; every correct process
eventually outputs ``r_deliver(m, r, source)`` with

* **Agreement** — if one correct process delivers, all eventually do;
* **Integrity** — at most one delivery per (source, round), so a Byzantine
  sender cannot equivocate within a round;
* **Validity** — a correct sender's message is eventually delivered by all.

Instantiations, matching the rows of Table 1:

* :mod:`repro.broadcast.bracha` — Bracha's 3-phase echo broadcast [11]:
  O(n²) messages each carrying the payload.
* :mod:`repro.broadcast.gossip` — Murmur/Sieve/Contagion sample-based
  probabilistic broadcast [25]: O(n log n) messages, ε failure probability.
* :mod:`repro.broadcast.avid` — Cachin-Tessaro asynchronous verifiable
  information dispersal [14]: Reed-Solomon fragments + Merkle authentication,
  O(n² log n + n·|m|) bits.
"""
