"""Append-only log of delivered-entry digests (``digests.log``).

The fingerprint of a node's delivered log is itself a log, so it is
persisted as one: fixed-width records, one raw SHA-256 digest per
delivered entry, in delivery order. :class:`repro.storage.journal.NodeJournal`
appends the digests delivered since the previous snapshot and fsyncs them
*before* the snapshot that counts them is renamed in, so a snapshot's
``ordered_count`` never exceeds what is durably here.

Records carry no framing of their own — the snapshot's count is the
commit point. On open the file is cut back to exactly that many records:
anything past them is a crash between the append and the snapshot rename,
and the WAL tail re-derives those deliveries. Fewer whole records than the
snapshot counts means the state dir lost data it had acknowledged, which
is an error, never a shorter log.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Sequence

from repro.common.errors import ConfigurationError, StorageError

#: Bytes per record: one raw SHA-256 digest.
DIGEST_BYTES = 32


class DigestLog:
    """Append side of one node's ``digests.log``."""

    def __init__(self, path: str) -> None:
        self.path = path
        #: Whole records in the file.
        self.count = 0
        self._stream: BinaryIO | None = None

    @classmethod
    def open(cls, path: str, count: int) -> tuple["DigestLog", list[str]]:
        """Load the first ``count`` records (hex), drop the rest, and
        position ``path`` for appending; a missing file reads as empty.

        Raises:
            StorageError: When fewer than ``count`` whole records exist.
        """
        wanted = count * DIGEST_BYTES
        try:
            with open(path, "rb") as stream:
                data = stream.read(wanted)
        except FileNotFoundError:
            data = b""
        if len(data) < wanted:
            raise StorageError(
                f"{path}: holds {len(data) // DIGEST_BYTES} whole digest "
                f"records, the snapshot counts {count}"
            )
        log = cls(path)
        stream = open(path, "ab")
        if stream.tell() > wanted:
            stream.truncate(wanted)
        log._stream = stream
        log.count = count
        text = data.hex()
        width = 2 * DIGEST_BYTES
        return log, [text[i : i + width] for i in range(0, len(text), width)]

    def append(self, digests: Sequence[str]) -> int:
        """Append hex ``digests`` and make them durable; returns the bytes."""
        if self._stream is None:
            raise ConfigurationError("digest log is closed")
        data = bytes.fromhex("".join(digests))
        if len(data) != DIGEST_BYTES * len(digests):
            raise StorageError(f"{self.path}: digest is not {DIGEST_BYTES} bytes")
        self._stream.write(data)
        self._stream.flush()
        os.fsync(self._stream.fileno())
        self.count += len(digests)
        return len(data)

    def close(self) -> None:
        """Close the file; idempotent (appends are already durable)."""
        stream, self._stream = self._stream, None
        if stream is not None:
            stream.close()
