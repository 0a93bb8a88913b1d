"""Core identifier types and round/wave arithmetic.

The paper (§2, §5) fixes the vocabulary this module encodes:

* ``n = 3f + 1`` processes, at most ``f`` Byzantine;
* quorums of ``2f + 1`` ("Byzantine quorum") drive round advancement, strong
  edge counts, and the commit rule;
* ``f + 1`` ("validity quorum") is the intersection size quorum arguments
  rely on (Claim 3) and the coin reconstruction threshold;
* rounds are grouped into *waves* of four: ``round(w, k) = 4(w - 1) + k`` for
  ``k in [1..4]`` (paper §5).
"""

from __future__ import annotations

# Type aliases: plain ints keep the hot paths fast, the aliases keep
# signatures self-documenting.
ProcessId = int
Round = int
Wave = int

#: Rounds per wave (paper §5 uses exactly 4; the ablation benches vary this).
WAVE_LENGTH = 4

#: The hardcoded genesis round holding the predefined vertices (Algorithm 1).
GENESIS_ROUND = 0


def fault_tolerance(n: int) -> int:
    """Return ``f``, the maximum number of Byzantine processes for ``n``.

    The paper assumes ``n = 3f + 1``; for other ``n`` we take the largest
    ``f`` with ``3f < n``.
    """
    if n < 1:
        raise ValueError(f"need at least one process, got n={n}")
    return (n - 1) // 3


def byzantine_quorum(n: int) -> int:
    """Return ``2f + 1``, the quorum for round advancement and commits."""
    return 2 * fault_tolerance(n) + 1


def validity_quorum(n: int) -> int:
    """Return ``f + 1``, the smallest set guaranteed to contain a correct process."""
    return fault_tolerance(n) + 1


def round_of_wave(wave: Wave, k: int, wave_length: int = WAVE_LENGTH) -> Round:
    """Return the DAG round of the ``k``-th round of ``wave``.

    Implements ``round(w, k) = 4(w - 1) + k`` from paper §5 (``k`` in
    ``[1..wave_length]``, waves start at 1).
    """
    if not 1 <= k <= wave_length:
        raise ValueError(f"k={k} outside [1..{wave_length}]")
    if wave < 1:
        raise ValueError(f"waves are numbered from 1, got {wave}")
    return wave_length * (wave - 1) + k


def wave_of_round(round_: Round, wave_length: int = WAVE_LENGTH) -> Wave:
    """Return the wave containing DAG round ``round_`` (rounds start at 1)."""
    if round_ < 1:
        raise ValueError(f"rounds in waves are numbered from 1, got {round_}")
    return (round_ - 1) // wave_length + 1


def wave_round_index(round_: Round, wave_length: int = WAVE_LENGTH) -> int:
    """Return ``k`` such that ``round_ == round(wave_of_round(round_), k)``."""
    if round_ < 1:
        raise ValueError(f"rounds in waves are numbered from 1, got {round_}")
    return (round_ - 1) % wave_length + 1


def share_instance(round_: Round, wave_length: int = WAVE_LENGTH) -> Wave | None:
    """The coin instance whose share a vertex of ``round_`` carries, or None.

    Paper footnote 1: a vertex in ``round(w + 1, 1)`` piggybacks its
    source's share of coin instance ``w`` (``w >= 1``), the coin wave ``w``
    reveals its leader with.
    """
    if round_ % wave_length == 1 and round_ > wave_length:
        return (round_ - 1) // wave_length
    return None
