"""Cryptographic substrates.

* :mod:`repro.crypto.hashing` — SHA-256 digests over canonical encodings.
* :mod:`repro.crypto.shamir` — real Shamir secret sharing over a 128-bit
  prime field (share generation, Lagrange reconstruction); the basis of the
  threshold coin (paper §2 cites Shoup-style threshold schemes built on
  Shamir [41, 42]).
* :mod:`repro.crypto.dealer` — the trusted-dealer setup the paper explicitly
  allows for the coin, handing each process a key that yields its share of
  any coin instance.
"""
