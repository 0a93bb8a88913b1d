"""Baseline protocols DAG-Rider is compared against (Table 1 and §7).

Every comparator in the paper's evaluation is implemented here, from
scratch, on the same simulator and wire-size model:

* :mod:`repro.baselines.aba` — signature-free binary Byzantine agreement
  (Mostefaoui-Moumen-Raynal style, coin-based) — the building block the
  related-work protocols (HoneyBadger [36], Aleph [24]) rely on.
* :mod:`repro.baselines.vaba` — validated asynchronous Byzantine agreement
  (Abraham-Malkhi-Spiegelman [1]): 4-step proposal promotion,
  retrospective coin leader election, view change; O(n²) messages and
  expected-constant views per slot.
* :mod:`repro.baselines.dispersal` — Cachin-Tessaro AVID [14] as true
  *dispersal + retrieval* (only the elected batch is retrieved), the
  mechanism behind Dumbo's amortized-linear communication.
* :mod:`repro.baselines.dumbo` — Dumbo-MVBA [35]: disperse batches, agree
  on a constant-size dispersal reference with VABA, retrieve the winner.
* :mod:`repro.baselines.honeybadger` — HoneyBadger-style ACS [36]:
  n reliable broadcasts + n binary agreements per slot.
* :mod:`repro.baselines.smr` — the SMR wrapper of §1: an unbounded sequence
  of single-shot instances, up to n slots running concurrently, outputs in
  strict slot order (the Ben-Or & El-Yaniv O(log n) regime [6]).
* :mod:`repro.baselines.aleph` — the Aleph-style DAG protocol of §7 [24]:
  same DAG substrate, but ordering by one binary agreement per vertex slot
  (O(n³) per decision, no amortization, no Validity).

Scope note (documented substitution): the baselines assume authenticated
channels and model crash/scheduling adversaries faithfully; Byzantine
*proof forgery* against VABA's promotion certificates is out of scope —
the originals prevent it with threshold signatures, and Table 1's
communication/time/fairness comparisons do not depend on it.
"""
