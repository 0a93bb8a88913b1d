"""Shared primitives used by every layer of the reproduction.

This package holds the vocabulary of the system: process/round/wave
identifiers and arithmetic (paper §5), quorum sizes (paper §2), the system
configuration object, the exception hierarchy, deterministic RNG derivation,
and big-integer bitset helpers used for DAG reachability queries.
"""
