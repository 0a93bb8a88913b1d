"""Exception hierarchy for the reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ReproError):
    """An invalid :class:`repro.common.config.SystemConfig` or component setup."""


class ProtocolError(ReproError):
    """A protocol-level violation detected at runtime.

    Raised when a message or state transition breaks an invariant the
    protocol depends on — e.g. a vertex with fewer than ``2f + 1`` strong
    edges reaching the DAG layer, or a reliable-broadcast instance delivering
    twice for the same (source, round).
    """


class DagError(ReproError):
    """Structural violation in a local DAG (unknown parent, duplicate slot)."""


class SecretSharingError(ReproError):
    """Failure in Shamir sharing / threshold-coin reconstruction."""


class WireFormatError(ReproError):
    """A message failed to encode or decode on the simulated wire."""


class StorageError(ReproError):
    """Durable-state failure: unreadable snapshot, unreplayable WAL record.

    Tail corruption of a write-ahead log is *not* an error (a crash mid-
    append is the expected case and recovery truncates it); this is raised
    only for damage recovery cannot safely interpret, e.g. a snapshot that
    fails its integrity check or a journaled commit referencing a vertex
    the replayed store does not contain.
    """


class ConsistencyError(ReproError, AssertionError):
    """Cross-node delivery logs violated BAB total order.

    Raised by :func:`repro.core.node.check_prefix_consistency`, the check
    of the simulator and the TCP runtime alike, when two processes'
    ``a_deliver`` logs disagree at some position — including the case where
    both delivered the same ``(round, source)`` slot but *different* block
    contents, which a slot-only comparison cannot see. Also an
    ``AssertionError``: callers of the simulator's ``check_total_order``
    (the benchmark's run check) catch it as one.
    """


class FabricError(ReproError):
    """The cluster driver could not do what was asked: unusable input, or
    a cluster that missed a deadline (boot, wave target, crash recovery)."""
