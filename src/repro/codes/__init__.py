"""Erasure codes and fragment authentication for AVID (paper [14]).

* :mod:`repro.codes.gf256` — arithmetic in GF(2^8) with log/antilog tables.
* :mod:`repro.codes.reed_solomon` — systematic Reed-Solomon encoding and
  erasure decoding built on Lagrange interpolation over GF(2^8).
* :mod:`repro.codes.merkle` — Merkle trees with membership proofs, used to
  authenticate fragments against the dispersal root.
"""
