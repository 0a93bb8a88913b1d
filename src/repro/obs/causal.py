"""Cross-host causal trace stitching: per-vertex latency attribution.

A merged multi-host trace (``scripts/fabric.py``'s ``merged.trace.jsonl``,
or any single-clock simulator/cluster trace) interleaves per-host event
streams. This module joins them back together on **vertex identity** —
the ``(round, source)`` pair that names each vertex exactly once in
DAG-Rider — into per-vertex causal chains::

    vertex_created ─→ r_deliver(×n) ─→ vertex_added(×n) ─→ wave_leader
                                  ─→ a_deliver(×n) ─→ commit(×n)

and computes per-edge latency percentiles, turning the single "commit
latency" number into an attributed breakdown: how long broadcast took,
how long the vertex waited in the DAG for a committing wave's election,
how long the commit walk took to reach it — the per-vertex accounting
production DAG-BFT systems (Narwhal/Tusk, Bullshark) use to explain
tail latency.

Commit attribution is positional, following the emit order of
``repro.core``: a committing wave announces itself with ``wave_leader``
(``committed=True``), the commit walk then ``a_deliver``-s the leader
chain's fresh history synchronously, and the ``commit`` record event
closes the walk afterwards. So every ``a_deliver`` in one host's stream
belongs to the most recent *committed* ``wave_leader`` at that host,
and is stamped with its commit time when that wave's ``commit`` event
arrives.

**Cross-host clocks.** Each fabric host stamps events with its own
monotonic clock (shared by every node and node life on that host, but
not across hosts), so raw cross-host differences mix real latency with
clock offset. Given which clock each pid reads (``clocks``, pid → host:
a merged trace's meta carries it), the stitcher estimates one offset per
clock — the median, over every vertex two or more pids delivered and
every pid on that clock, of the pid's ``a_deliver`` time minus the
vertex's cross-pid median — subtracts it from cross-host edges, and
reports the offsets themselves as the skew report. A trace on one clock
(simulator, ``LocalCluster``, a single tee, or every pid on one host)
has nothing to estimate: every offset is 0, so a node that delivers late
because it lags (catching up after a restart, say) keeps that lag in its
edges instead of having it read as clock skew.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.obs.events import Event

#: Causal report schema identifier (JSON output of the ``causal`` CLI).
CAUSAL_SCHEMA = "repro.obs.causal"
CAUSAL_VERSION = 1

#: Edge names in pipeline order (keys of :attr:`CausalReport.edges`).
EDGES = (
    "create->r_deliver",  # reliable broadcast: created at source -> received
    "r_deliver->insert",  # parent wait: received -> joined the local DAG
    "insert->leader",  # DAG wait: inserted -> committing wave's election
    "leader->deliver",  # commit walk: election -> this vertex delivered
    "deliver->commit",  # walk tail: delivered -> commit record closed
    "create->deliver",  # end to end
)


@dataclass
class VertexChain:
    """One vertex's lifecycle across every host that saw it."""

    round: int
    source: int
    created: float | None = None  # at the source host only
    r_deliver: dict[int, float] = field(default_factory=dict)
    insert: dict[int, float] = field(default_factory=dict)
    commit: dict[int, float] = field(default_factory=dict)
    commit_wave: dict[int, int] = field(default_factory=dict)
    leader: dict[int, float] = field(default_factory=dict)
    deliver: dict[int, float] = field(default_factory=dict)

    @property
    def key(self) -> tuple[int, int]:
        return (self.round, self.source)

    @property
    def delivered_hosts(self) -> int:
        return len(self.deliver)


@dataclass
class EdgeStats:
    """Latency distribution of one causal edge across all samples."""

    count: int = 0
    mean: float = 0.0
    p50: float = 0.0
    p90: float = 0.0
    p99: float = 0.0
    max: float = 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.max,
        }


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (deterministic, no interp).

    ``q`` is a fraction in (0, 1]; the rank is ``ceil(q * len)`` computed
    in integer arithmetic (q quantized to whole percents) so two runs
    never disagree by a floating-point ulp at a bucket boundary.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = -(-round(q * 100) * len(ordered) // 100)  # ceil(q% * len)
    return ordered[min(len(ordered), max(1, rank)) - 1]


def edge_stats(samples: Sequence[float]) -> EdgeStats:
    """Summarize one edge's latency samples."""
    if not samples:
        return EdgeStats()
    ordered = sorted(samples)
    return EdgeStats(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        p50=percentile(ordered, 0.50),
        p90=percentile(ordered, 0.90),
        p99=percentile(ordered, 0.99),
        max=ordered[-1],
    )


@dataclass
class CausalReport:
    """The stitched result: chains, per-edge stats, host clock offsets."""

    chains: dict[tuple[int, int], VertexChain]
    edges: dict[str, EdgeStats]
    offsets: dict[int, float]  # estimated per-host clock offset (seconds)
    delivered_vertices: int  # vertices with at least one a_deliver
    stitched_chains: int  # chains built for those vertices
    hosts: list[int]

    @property
    def coverage(self) -> float:
        """Fraction of delivered vertices with a stitched chain."""
        if not self.delivered_vertices:
            return 0.0
        return self.stitched_chains / self.delivered_vertices

    def skew_spread(self) -> EdgeStats:
        """Distribution of per-vertex cross-host delivery spread."""
        spreads = [
            max(chain.deliver.values()) - min(chain.deliver.values())
            for chain in self.chains.values()
            if len(chain.deliver) >= 2
        ]
        return edge_stats(spreads)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready report (sorted keys, no event payloads)."""
        return {
            "schema": CAUSAL_SCHEMA,
            "version": CAUSAL_VERSION,
            "hosts": self.hosts,
            "delivered_vertices": self.delivered_vertices,
            "stitched_chains": self.stitched_chains,
            "coverage": self.coverage,
            "edges": {name: self.edges[name].as_dict() for name in sorted(self.edges)},
            "skew": {
                "offsets": {str(pid): self.offsets[pid] for pid in sorted(self.offsets)},
                "deliver_spread": self.skew_spread().as_dict(),
            },
        }

    def render(self, limit: int = 0) -> str:
        """Human-readable report; ``limit`` > 0 adds per-vertex lines."""
        lines = [
            f"causal stitch: {self.stitched_chains} chains over "
            f"{len(self.hosts)} hosts "
            f"({self.delivered_vertices} delivered vertices, "
            f"coverage {self.coverage:.0%})"
        ]
        lines.append(
            f"{'edge':<20}{'count':>8}{'mean':>10}{'p50':>10}"
            f"{'p90':>10}{'p99':>10}{'max':>10}"
        )
        for name in EDGES:
            stats = self.edges.get(name)
            if stats is None or not stats.count:
                lines.append(f"{name:<20}{0:>8}{'-':>10}{'-':>10}{'-':>10}{'-':>10}{'-':>10}")
                continue
            lines.append(
                f"{name:<20}{stats.count:>8}{stats.mean:>10.4f}{stats.p50:>10.4f}"
                f"{stats.p90:>10.4f}{stats.p99:>10.4f}{stats.max:>10.4f}"
            )
        spread = self.skew_spread()
        offsets = ", ".join(
            f"{pid}:{self.offsets[pid]:+.4f}" for pid in sorted(self.offsets)
        )
        lines.append(
            f"cross-host skew: deliver spread p50 {spread.p50:.4f} "
            f"max {spread.max:.4f} across {spread.count} vertices"
        )
        if offsets:
            lines.append(f"estimated host clock offsets: {offsets}")
        if limit > 0:
            lines.append(f"{'vertex':<14}{'created':>10}{'delivered':>11}{'hosts':>7}{'e2e':>10}")
            shown = 0
            for key in sorted(self.chains):
                chain = self.chains[key]
                if not chain.deliver:
                    continue
                first = min(chain.deliver.values())
                e2e = (
                    f"{first - chain.created:>10.4f}"
                    if chain.created is not None
                    else f"{'-':>10}"
                )
                created = (
                    f"{chain.created:>10.4f}" if chain.created is not None else f"{'-':>10}"
                )
                lines.append(
                    f"r{chain.round}/p{chain.source:<10}{created}"
                    f"{first:>11.4f}{chain.delivered_hosts:>7}{e2e}"
                )
                shown += 1
                if shown >= limit:
                    break
        return "\n".join(lines)


def _round_source(event: Event) -> tuple[int, int] | None:
    round_ = event.get("round")
    source = event.get("source")
    if isinstance(round_, int) and isinstance(source, int):
        return (round_, source)
    return None


def stitch(events: Iterable[Event], clocks: Mapping[int, str] | None = None) -> CausalReport:
    """Join a merged trace into per-vertex causal chains.

    Events must be in per-host emit order within each pid (any trace
    written by this repo qualifies: per-host traces are emit-ordered and
    the fabric merge is a stable sort on time). ``clocks`` names the
    clock (host) each pid's events were stamped with; None means one
    clock for all. A pid it does not name has a clock of its own.
    """
    chains: dict[tuple[int, int], VertexChain] = {}
    hosts: set[int] = set()
    # Per-host positional state for commit attribution: the wave of the
    # most recent committed ``wave_leader``, the election times, and the
    # chains delivered under that wave awaiting its ``commit`` event.
    current_wave: dict[int, int] = {}  # pid -> committing wave
    leader_time: dict[tuple[int, int], float] = {}  # (pid, wave) -> time
    awaiting_commit: dict[tuple[int, int], list[VertexChain]] = {}

    def chain_for(key: tuple[int, int]) -> VertexChain:
        chain = chains.get(key)
        if chain is None:
            chain = chains[key] = VertexChain(round=key[0], source=key[1])
        return chain

    for event in events:
        hosts.add(event.pid)
        kind = event.kind
        if kind == "vertex_created":
            round_ = event.get("round")
            if isinstance(round_, int):
                chain = chain_for((round_, event.pid))
                if chain.created is None:
                    chain.created = event.time
        elif kind == "r_deliver":
            key = _round_source(event)
            if key is not None:
                chain_for(key).r_deliver.setdefault(event.pid, event.time)
        elif kind == "vertex_added":
            key = _round_source(event)
            if key is not None:
                chain_for(key).insert.setdefault(event.pid, event.time)
        elif kind == "wave_leader":
            wave = event.get("wave")
            if isinstance(wave, int):
                leader_time.setdefault((event.pid, wave), event.time)
                if event.get("committed"):
                    current_wave[event.pid] = wave
        elif kind == "a_deliver":
            key = _round_source(event)
            if key is None:
                continue
            chain = chain_for(key)
            if event.pid in chain.deliver:
                continue
            chain.deliver[event.pid] = event.time
            wave = current_wave.get(event.pid)
            if wave is not None:
                chain.commit_wave[event.pid] = wave
                elected = leader_time.get((event.pid, wave))
                if elected is not None:
                    chain.leader[event.pid] = elected
                awaiting_commit.setdefault((event.pid, wave), []).append(chain)
        elif kind == "commit":
            wave = event.get("wave")
            if isinstance(wave, int):
                for chain in awaiting_commit.pop((event.pid, wave), ()):
                    chain.commit[event.pid] = event.time

    offsets = _estimate_offsets(chains, sorted(hosts), clocks)
    edges = _collect_edges(chains, offsets)
    delivered = sum(1 for chain in chains.values() if chain.deliver)
    return CausalReport(
        chains=chains,
        edges=edges,
        offsets=offsets,
        delivered_vertices=delivered,
        stitched_chains=delivered,
        hosts=sorted(hosts),
    )


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def _estimate_offsets(
    chains: dict[tuple[int, int], VertexChain],
    hosts: list[int],
    clocks: Mapping[int, str] | None,
) -> dict[int, float]:
    """Each pid's clock offset: its clock's pooled residuals against the
    per-vertex cross-pid median, or 0 when every pid reads one clock."""
    clock_of = {pid: "" if clocks is None else clocks.get(pid, f"pid {pid}") for pid in hosts}
    if len(set(clock_of.values())) <= 1:
        return {pid: 0.0 for pid in hosts}
    residuals: dict[str, list[float]] = {clock: [] for clock in clock_of.values()}
    for chain in chains.values():
        if len(chain.deliver) < 2:
            continue
        center = _median(list(chain.deliver.values()))
        for pid, time in chain.deliver.items():
            residuals[clock_of[pid]].append(time - center)
    return {
        pid: (_median(residuals[clock]) if residuals[clock] else 0.0)
        for pid, clock in clock_of.items()
    }


def _collect_edges(
    chains: dict[tuple[int, int], VertexChain], offsets: dict[int, float]
) -> dict[str, EdgeStats]:
    """Per-edge latency samples across every (vertex, host) pair.

    Within-host edges use raw times (one clock); edges that cross hosts
    (anything starting at ``vertex_created``, which only the source host
    emits) are corrected by the estimated offsets.
    """
    samples: dict[str, list[float]] = {name: [] for name in EDGES}

    def corrected(pid: int, time: float) -> float:
        return time - offsets.get(pid, 0.0)

    for chain in chains.values():
        source = chain.source
        for pid, delivered_at in sorted(chain.deliver.items()):
            received = chain.r_deliver.get(pid)
            inserted = chain.insert.get(pid)
            committed = chain.commit.get(pid)
            elected = chain.leader.get(pid)
            if chain.created is not None and received is not None:
                samples["create->r_deliver"].append(
                    corrected(pid, received) - corrected(source, chain.created)
                )
            if received is not None and inserted is not None:
                samples["r_deliver->insert"].append(inserted - received)
            if inserted is not None and elected is not None:
                samples["insert->leader"].append(elected - inserted)
            if elected is not None:
                samples["leader->deliver"].append(delivered_at - elected)
            if committed is not None:
                samples["deliver->commit"].append(committed - delivered_at)
            if chain.created is not None:
                samples["create->deliver"].append(
                    corrected(pid, delivered_at) - corrected(source, chain.created)
                )
    return {name: edge_stats(values) for name, values in samples.items()}
