"""The cross-event orderings a deployment's event bus lets tests assert."""

import pytest

from repro.common.config import SystemConfig
from repro.core.harness import DagRiderDeployment
from repro.obs.context import Observability
from repro.storage.journal import NodeJournal


def traced_deployment(seed=15):
    observability = Observability()
    dep = DagRiderDeployment(SystemConfig(n=4, seed=seed), observability=observability)
    assert dep.run_until_ordered(15)
    return dep, observability.bus.events


def of_kind(events, kind, pid):
    return [event for event in events if event.kind == kind and event.pid == pid]


class TestProtocolEventOrdering:
    def test_expected_kinds_present(self):
        _dep, events = traced_deployment()
        kinds = {event.kind for event in events}
        assert {"vertex_added", "wave_ready", "commit", "a_deliver"} <= kinds

    def test_events_time_ordered(self):
        _dep, events = traced_deployment()
        times = [event.time for event in events]
        assert times == sorted(times)

    def test_every_delivery_preceded_by_commit(self):
        """a_deliver events only happen during a commit at that process."""
        _dep, events = traced_deployment()
        for pid in range(4):
            deliveries = of_kind(events, "a_deliver", pid)
            commits = of_kind(events, "commit", pid)
            assert deliveries and commits
            first_commit = min(event.time for event in commits)
            assert min(e.time for e in deliveries) >= first_commit

    def test_commit_follows_its_wave_ready(self):
        _dep, events = traced_deployment()
        for pid in range(4):
            ready_times = {
                event.get("wave"): event.time
                for event in of_kind(events, "wave_ready", pid)
            }
            for commit in of_kind(events, "commit", pid):
                assert commit.time >= ready_times[commit.get("wave")]

    def test_waves_signalled_in_order(self):
        _dep, events = traced_deployment()
        for pid in range(4):
            waves = [e.get("wave") for e in of_kind(events, "wave_ready", pid)]
            assert waves == sorted(waves)

    @pytest.mark.parametrize("coin_mode", ["ideal", "threshold", "piggyback"])
    def test_commit_delivered_counts_match_log(self, coin_mode, tmp_path):
        """Every commit is reported and journaled once, whichever coin
        resolved it: the threshold coin commits inside a share's delivery,
        not inside ``wave_ready``."""
        observability = Observability()
        journals = {
            pid: NodeJournal(str(tmp_path / f"state-{pid}"), pid, obs=observability)
            for pid in range(4)
        }
        dep = DagRiderDeployment(
            SystemConfig(n=4, seed=15),
            coin_mode=coin_mode,
            node_kwargs={pid: {"journal": journal} for pid, journal in journals.items()},
            observability=observability,
        )
        assert dep.run_until_ordered(15)
        events = observability.bus.events
        for node in dep.correct_nodes:
            commits = of_kind(events, "commit", node.pid)
            assert len(commits) == len(node.ordering.commits) > 0
            assert sum(event.get("delivered") for event in commits) == len(node.ordered)
            journaled = [
                event
                for event in of_kind(events, "wal_append", node.pid)
                if event.get("record") == "commit"
            ]
            assert len(journaled) == len(node.ordering.commits)
        for journal in journals.values():
            journal.close()
