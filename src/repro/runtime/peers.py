"""Declarative peer tables: one file describes a whole deployment.

A peer table is the unit of configuration for the multi-host runner: every
host gets the same file, and ``python -m repro tcp-node --peers table.json
--pid K`` boots exactly one node from it. The table is the one place a
deployment's choices live; a setting no deployment chooses is a constant
in the module that uses it (the link timings in
:mod:`repro.runtime.reliable`, the WAL's fsync rule in
:mod:`repro.storage.wal`). The table folds together

* the run: ``n`` and ``seed`` (the runtime runs the paper's waves of four
  and a genesis of ``n``; other wave lengths and genesis sizes are
  simulator-only);
* the coin (``coin_mode``; a threshold coin's keys come from the run's one
  dealer, :func:`repro.crypto.dealer.run_dealer`, so they follow from
  ``seed`` and every host derives the same ones);
* the runtime memory/ingress policy: ``"gc_depth"`` (DAG compaction
  margin in rounds; omitted = unbounded) and the
  :class:`repro.mempool.admission.AdmissionConfig` knobs under
  ``"ingress"``;
* one ``{host, port, control_port, ingress_port}`` entry per pid under
  ``"peers"`` (the optional ``ingress_port`` is the client transaction
  socket — see docs/runtime.md "Client ingress and backpressure").

Schema (a JSON file)::

    {
      "n": 4, "seed": 1, "coin_mode": "threshold",
      "gc_depth": 8,
      "peers": {
        "0": {"host": "10.0.0.1", "port": 9001, "control_port": 9101},
        "1": {"host": "10.0.0.2", "port": 9001, "control_port": 9101},
        ...
      }
    }

Every parse failure raises :class:`PeerTableError` naming the offending
field, so a typo in a deployment file fails the boot loudly rather than
hanging a cluster half-dialed.
"""

from __future__ import annotations

import json
import socket
from dataclasses import asdict, dataclass, fields
from typing import Mapping

from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError
from repro.core.node import COIN_MODES
from repro.mempool.admission import AdmissionConfig


class PeerTableError(ConfigurationError):
    """A peer table that does not follow the schema above."""


_TABLE_KEYS = {"n", "seed", "coin_mode", "peers", "gc_depth", "ingress"}
_PEER_KEYS = {"host", "port", "control_port", "ingress_port"}
_INGRESS_KEYS = {f.name for f in fields(AdmissionConfig)}


@dataclass(frozen=True)
class PeerEntry:
    """One node's addresses: the data port peers dial, the control port
    the fabric driver probes, and the ingress port clients submit
    transactions to (the optional ports are ``None`` when unused)."""

    pid: int
    host: str
    port: int
    control_port: int | None = None
    ingress_port: int | None = None

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def control_address(self) -> tuple[str, int]:
        if self.control_port is None:
            raise PeerTableError(f"peer {self.pid} has no control_port")
        return (self.host, self.control_port)

    @property
    def ingress_address(self) -> tuple[str, int]:
        if self.ingress_port is None:
            raise PeerTableError(f"peer {self.pid} has no ingress_port")
        return (self.host, self.ingress_port)


@dataclass(frozen=True)
class PeerTable:
    """Parsed, validated deployment description."""

    n: int
    seed: int
    peers: tuple[PeerEntry, ...]  # sorted by pid, one entry per pid
    coin_mode: str = "ideal"
    #: DAG GC margin: delivered waves are compacted keeping this many
    #: rounds of straggler slack (``None`` = paper-faithful unbounded).
    gc_depth: int | None = None
    #: Client-ingress admission budgets and batching triggers.
    ingress: AdmissionConfig = AdmissionConfig()

    def system_config(self) -> SystemConfig:
        return SystemConfig(n=self.n, seed=self.seed)

    def entry(self, pid: int) -> PeerEntry:
        if not 0 <= pid < self.n:
            raise PeerTableError(f"pid {pid} outside [0, {self.n})")
        return self.peers[pid]

    def addresses(self) -> dict[int, tuple[str, int]]:
        """The pid -> (host, port) map the transport dials."""
        return {entry.pid: entry.address for entry in self.peers}

    def to_dict(self) -> dict[str, object]:
        """JSON-ready dict that :func:`parse_peer_table` round-trips."""
        data: dict[str, object] = {
            "n": self.n,
            "seed": self.seed,
            "coin_mode": self.coin_mode,
            "peers": {
                str(entry.pid): {
                    key: value
                    for key, value in asdict(entry).items()
                    if key != "pid" and value is not None
                }
                for entry in self.peers
            },
        }
        if self.gc_depth is not None:
            data["gc_depth"] = self.gc_depth
        if self.ingress != AdmissionConfig():
            ingress_defaults = AdmissionConfig()
            data["ingress"] = {
                f.name: getattr(self.ingress, f.name)
                for f in fields(AdmissionConfig)
                if getattr(self.ingress, f.name)
                != getattr(ingress_defaults, f.name)
            }
        return data

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _require_int(data: Mapping[str, object], key: str, source: str) -> int:
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise PeerTableError(f"{source}: {key!r} must be an integer, got {value!r}")
    return value


def _parse_peer(pid_key: object, raw: object, n: int, source: str) -> PeerEntry:
    try:
        pid = int(str(pid_key))
    except ValueError:
        raise PeerTableError(f"{source}: peer key {pid_key!r} is not a pid") from None
    if not 0 <= pid < n:
        raise PeerTableError(f"{source}: peer pid {pid} outside [0, {n})")
    if not isinstance(raw, Mapping):
        raise PeerTableError(f"{source}: peer {pid} entry must be an object")
    unknown = set(raw) - _PEER_KEYS
    if unknown:
        raise PeerTableError(
            f"{source}: peer {pid} has unknown keys {sorted(unknown)}"
        )
    host = raw.get("host")
    if not isinstance(host, str) or not host:
        raise PeerTableError(f"{source}: peer {pid} needs a non-empty host")
    port = _require_int(raw, "port", f"{source}: peer {pid}")
    control_port: int | None = None
    if "control_port" in raw:
        control_port = _require_int(raw, "control_port", f"{source}: peer {pid}")
    ingress_port: int | None = None
    if "ingress_port" in raw:
        ingress_port = _require_int(raw, "ingress_port", f"{source}: peer {pid}")
    for name, value in (
        ("port", port),
        ("control_port", control_port),
        ("ingress_port", ingress_port),
    ):
        if value is not None and not 1 <= value <= 65535:
            raise PeerTableError(
                f"{source}: peer {pid} {name} {value} outside [1, 65535]"
            )
    return PeerEntry(pid, host, port, control_port, ingress_port)


def parse_peer_table(data: object, source: str = "peer table") -> PeerTable:
    """Validate a decoded JSON document into a :class:`PeerTable`."""
    if not isinstance(data, Mapping):
        raise PeerTableError(f"{source}: top level must be an object")
    unknown = set(data) - _TABLE_KEYS
    if unknown:
        raise PeerTableError(f"{source}: unknown keys {sorted(unknown)}")
    if "peers" not in data or not isinstance(data["peers"], Mapping):
        raise PeerTableError(f"{source}: missing 'peers' object")
    n = _require_int(data, "n", source)
    seed = _require_int(data, "seed", source) if "seed" in data else 0

    coin_mode = data.get("coin_mode", "ideal")
    if coin_mode not in COIN_MODES:
        raise PeerTableError(
            f"{source}: unknown coin_mode {coin_mode!r} (one of {COIN_MODES})"
        )

    raw_peers = data["peers"]
    if len(raw_peers) != n:
        raise PeerTableError(
            f"{source}: expected {n} peers, got {len(raw_peers)}"
        )
    entries: dict[int, PeerEntry] = {}
    for pid_key, raw in raw_peers.items():
        entry = _parse_peer(pid_key, raw, n, source)
        if entry.pid in entries:
            raise PeerTableError(f"{source}: duplicate peer pid {entry.pid}")
        entries[entry.pid] = entry
    missing = [pid for pid in range(n) if pid not in entries]
    if missing:
        raise PeerTableError(f"{source}: missing peers {missing}")

    seen: dict[tuple[str, int], str] = {}
    for entry in entries.values():
        owned = [(entry.address, f"peer {entry.pid} port")]
        if entry.control_port is not None:
            owned.append((entry.control_address, f"peer {entry.pid} control_port"))
        if entry.ingress_port is not None:
            owned.append((entry.ingress_address, f"peer {entry.pid} ingress_port"))
        for address, owner in owned:
            if address in seen:
                raise PeerTableError(
                    f"{source}: {owner} reuses {address[0]}:{address[1]} "
                    f"already taken by {seen[address]}"
                )
            seen[address] = owner

    gc_depth: int | None = None
    if "gc_depth" in data:
        gc_depth = _require_int(data, "gc_depth", source)
        if gc_depth < 1:
            raise PeerTableError(
                f"{source}: gc_depth must be >= 1 round, got {gc_depth}"
            )

    ingress = AdmissionConfig()
    if "ingress" in data:
        raw_ingress = data["ingress"]
        if not isinstance(raw_ingress, Mapping):
            raise PeerTableError(f"{source}: 'ingress' must be an object")
        unknown = set(raw_ingress) - _INGRESS_KEYS
        if unknown:
            raise PeerTableError(
                f"{source}: unknown ingress keys {sorted(unknown)}"
            )
        ingress = AdmissionConfig(**raw_ingress)  # validates value ranges

    table = PeerTable(
        n=n,
        seed=seed,
        peers=tuple(entries[pid] for pid in range(n)),
        coin_mode=str(coin_mode),
        gc_depth=gc_depth,
        ingress=ingress,
    )
    table.system_config()  # surface SystemConfig validation errors at parse
    return table


def load_peer_table(path: str) -> PeerTable:
    """Read a peer table from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        data: object = json.load(handle)
    return parse_peer_table(data, source=path)


def make_peer_table(
    addresses: Mapping[int, tuple[str, int]],
    config: SystemConfig,
    coin_mode: str = "ideal",
    control_ports: Mapping[int, int] | None = None,
    ingress_ports: Mapping[int, int] | None = None,
    gc_depth: int | None = None,
    ingress: AdmissionConfig | None = None,
) -> PeerTable:
    """Build a table programmatically (clusters, fabric, tests).

    A table carries ``config``'s ``n`` and ``seed`` only, so a config that
    sets anything else (a wave length, a genesis size, Byzantine pids) is
    refused rather than silently run without it.
    """
    if config != SystemConfig(n=config.n, seed=config.seed):
        raise ConfigurationError(
            f"a peer table carries n and seed only, not {config}"
        )
    peers = tuple(
        PeerEntry(
            pid,
            addresses[pid][0],
            addresses[pid][1],
            control_ports.get(pid) if control_ports else None,
            ingress_ports.get(pid) if ingress_ports else None,
        )
        for pid in sorted(addresses)
    )
    return PeerTable(
        n=config.n,
        seed=config.seed,
        peers=peers,
        coin_mode=coin_mode,
        gc_depth=gc_depth,
        ingress=ingress if ingress is not None else AdmissionConfig(),
    )


def allocate_port_block(count: int, host: str = "127.0.0.1") -> list[int]:
    """Reserve ``count`` distinct free TCP ports on ``host``.

    All sockets are held open while allocating so the kernel cannot hand
    the same ephemeral port out twice, then released together. A tiny race
    remains between release and the caller's bind — unavoidable without
    fd passing, and still far safer on busy CI runners than hardcoded
    port bases.
    """
    sockets: list[socket.socket] = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()
