"""A forked log fails the run: non-zero exit, no numbers."""

from __future__ import annotations

import json

import pytest

from bench import BenchFailure, sim_child
from bench.rt import check_recovered_logs
from bench.workloads import WORKLOADS, SimWorkload

TINY = SimWorkload(
    "sim-tiny", "test only", n=4, broadcast="bracha", batch_size=2,
    coin_mode="ideal", wave=2, slice_events=500,
)


def _spec() -> str:
    return json.dumps(
        {"workload": TINY.name, "seed": 1, "trace": False, "setup_only": False,
         "trace_file": None}
    )


def test_sim_child_reports_a_healthy_run(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    monkeypatch.setitem(WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr("sys.argv", ["sim_child", _spec()])
    assert sim_child.main() == 0
    result = json.loads(capsys.readouterr().out)
    assert (result["attempted"], result["failed"]) == (4, 0)


def test_sim_child_exits_non_zero_on_a_forked_log(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    from repro.core.harness import DagRiderDeployment

    run_until_wave = DagRiderDeployment.run_until_wave

    def run_then_fork(self: DagRiderDeployment, wave: int, **kwargs: int) -> bool:
        reached = run_until_wave(self, wave, **kwargs)
        if reached:
            ordered = self.correct_nodes[1].ordered
            ordered[0], ordered[1] = ordered[1], ordered[0]  # node 1 disagrees
        return reached

    monkeypatch.setitem(WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(DagRiderDeployment, "run_until_wave", run_then_fork)
    monkeypatch.setattr("sys.argv", ["sim_child", _spec()])
    assert sim_child.main() == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no result line
    assert "total order violated" in captured.err


def test_recovered_log_must_extend_the_pre_stop_log() -> None:
    before = {"digests": [["a", "b", "c"], ["a", "b"]], "tx_positions": {"t1": 1}}
    extended = {"digests": [["a", "b", "c", "d"], ["a", "b", "c"]]}
    check_recovered_logs(before, extended, {"t1"})
    forked = {"digests": [["a", "x", "c", "d"], ["a", "b", "c"]]}
    with pytest.raises(BenchFailure, match="node 0: recovered log diverges .* position 1"):
        check_recovered_logs(before, forked, {"t1"})
    shorter = {"digests": [["a", "b"], ["a", "b"]]}
    with pytest.raises(BenchFailure, match="position 2"):
        check_recovered_logs(before, shorter, {"t1"})


def test_every_acked_txid_must_be_in_the_log() -> None:
    before = {"digests": [["a"]], "tx_positions": {"t1": 0}}
    with pytest.raises(BenchFailure, match="1 acked txids are not in node 0's log"):
        check_recovered_logs(before, {"digests": [["a"]]}, {"t1", "lost"})


def test_quietest_bucket_is_the_complete_one_with_the_lowest_median() -> None:
    from bench.loadgen import BUCKET_NS as second
    from bench.rt import quietest_bucket

    ms = 1_000_000
    start = 5 * second
    acks = (
        [(start + i, start + i + 200 * ms) for i in range(4)]  # second 0: disturbed
        + [(start + second + i, start + second + i + (100 + i) * ms) for i in range(4)]
        + [(start + 2 * second + i, start + 2 * second + i + 50 * ms) for i in range(3)]
    )
    # Second 2 is the fastest but one of its four transactions was never
    # acked, so its percentiles would leave out the worst one: not eligible.
    attempted = {0: 4, 1: 4, 2: 4}
    assert quietest_bucket(acks, attempted, start) == [100.0, 101.0, 102.0, 103.0]
    with pytest.raises(BenchFailure, match="no bucket of the window"):
        quietest_bucket(acks[:3], attempted, start)


def test_throughput_is_taken_over_the_best_contiguous_half_window() -> None:
    from bench.rt import fastest_half_window

    second = 1_000_000_000
    # 10 s window: 100 acks/s for 4 s, a disturbed 2 s at 20/s, 100/s again.
    received = []
    for s in range(10):
        rate = 20 if s in (4, 5) else 100
        received += [s * second + i * second // rate for i in range(rate)]
    assert fastest_half_window(received, 0, 10.0) == pytest.approx(100 * 4 / 5 + 20 / 5)
    # Undisturbed, it reads the same as acks / seconds.
    steady = [i * second // 100 for i in range(1000)]
    assert fastest_half_window(steady, 0, 10.0) == pytest.approx(100.0)


def test_work_in_a_bypassed_layer_fails_the_run() -> None:
    from bench.ledger import check_bypassed_layers

    bracha = WORKLOADS["sim-bracha-n25"]
    check_bypassed_layers(bracha, {"sim.busy_ms": 5.0, "codes.encode_calls": 0.0})
    with pytest.raises(BenchFailure, match="codes.encode_calls"):
        check_bypassed_layers(bracha, {"codes.encode_calls": 3.0})
    with pytest.raises(BenchFailure, match="coin.invoke_calls"):
        check_bypassed_layers(bracha, {"coin.invoke_calls": 1.0})
    check_bypassed_layers(WORKLOADS["sim-avid-n13"], {"codes.encode_calls": 3.0})
    check_bypassed_layers(WORKLOADS["sim-deep-n4"], {"coin.invoke_calls": 1.0})
    with pytest.raises(BenchFailure, match="storage.appends"):
        check_bypassed_layers(WORKLOADS["rt-open-n4"], {"storage.appends": 1.0})
    check_bypassed_layers(WORKLOADS["rt-durable-n4"], {"storage.appends": 1.0})
