"""Catch-up protocol: codec frames, the serve side, and the apply side."""

import pytest

from repro.codec import decode_message, encode_message
from repro.codec.frames import CatchupRequest, CatchupVertices
from repro.coin.threshold import CoinShareMessage
from repro.common.config import SystemConfig
from repro.core.harness import DagRiderDeployment
from repro.core.node import CATCHUP_CHUNK
from repro.crypto.dealer import run_dealer


def ordered_deployment(seed=11, count=12):
    dep = DagRiderDeployment(SystemConfig(n=4, seed=seed))
    assert dep.run_until_ordered(count, max_events=600_000)
    return dep


def capture_sends(node):
    sent = []
    node.send = lambda dst, message: sent.append((dst, message))
    return sent


class TestCatchupCodec:
    def test_request_round_trips(self):
        frame = CatchupRequest(from_round=42)
        assert decode_message(encode_message(frame)) == frame

    def test_vertices_round_trip(self):
        frame = CatchupVertices((b"vertex-bytes", b"\x00" * 7), done=False)
        assert decode_message(encode_message(frame)) == frame

    def test_empty_done_frame_round_trips(self):
        frame = CatchupVertices((), done=True)
        assert decode_message(encode_message(frame)) == frame


class TestServeCatchup:
    def test_serves_whole_dag_in_chunks_last_done(self):
        dep = ordered_deployment()
        node = dep.nodes[0]
        sent = capture_sends(node)
        node._serve_catchup(2, CatchupRequest(from_round=1))
        assert sent and all(dst == 2 for dst, _ in sent)
        chunks = [message for _, message in sent]
        assert all(isinstance(chunk, CatchupVertices) for chunk in chunks)
        assert [chunk.done for chunk in chunks] == [False] * (len(chunks) - 1) + [True]
        assert all(len(chunk.vertices) <= CATCHUP_CHUNK for chunk in chunks)
        served = sum(len(chunk.vertices) for chunk in chunks)
        in_store = sum(1 for vertex in node.store.vertices() if vertex.round >= 1)
        assert served == in_store

    def test_from_round_bounds_the_suffix(self):
        dep = ordered_deployment()
        node = dep.nodes[0]
        sent = capture_sends(node)
        node._serve_catchup(1, CatchupRequest(from_round=3))
        from repro.dag.vertex import Vertex

        served = [
            Vertex.from_bytes(data)
            for _, chunk in sent
            for data in chunk.vertices
        ]
        assert served and all(vertex.round >= 3 for vertex in served)

    def test_empty_store_still_answers_done(self):
        dep = DagRiderDeployment(SystemConfig(n=4, seed=5))
        node = dep.nodes[0]
        sent = capture_sends(node)
        node._serve_catchup(3, CatchupRequest(from_round=1))
        assert len(sent) == 1
        _dst, chunk = sent[0]
        assert chunk.vertices == () and chunk.done


class TestServeCoinShares:
    def test_serves_own_shares_of_invoked_instances_from_the_requested_wave(self):
        dep = DagRiderDeployment(SystemConfig(n=4, seed=11), coin_mode="threshold")
        assert dep.run_until_wave(4, max_events=600_000)
        node = dep.nodes[0]
        invoked = sorted(node.coin._invoked)
        assert invoked[0] < 2 < invoked[-1]
        sent = capture_sends(node)
        # Round 5 opens wave 2 (wave_length 4).
        node._serve_catchup(1, CatchupRequest(from_round=5))
        shares = [message for _, message in sent if isinstance(message, CoinShareMessage)]
        assert [share.instance for share in shares] == [w for w in invoked if w >= 2]
        dealer = run_dealer(dep.config)
        assert all(
            dealer.verify_share(node.pid, share.instance, share.value)
            for share in shares
        )
        assert isinstance(sent[-1][1], CatchupVertices) and sent[-1][1].done

    @pytest.mark.parametrize("coin_mode", ["ideal", "piggyback"])
    def test_other_coins_serve_no_share_messages(self, coin_mode):
        dep = DagRiderDeployment(SystemConfig(n=4, seed=11), coin_mode=coin_mode)
        assert dep.run_until_wave(2, max_events=600_000)
        sent = capture_sends(dep.nodes[0])
        dep.nodes[0]._serve_catchup(1, CatchupRequest(from_round=1))
        assert sent and all(isinstance(message, CatchupVertices) for _, message in sent)


class TestApplyCatchup:
    def serve_chunks(self, seed=11):
        dep = ordered_deployment(seed=seed)
        node = dep.nodes[0]
        sent = capture_sends(node)
        node._serve_catchup(1, CatchupRequest(from_round=1))
        return [message for _, message in sent]

    def fresh_node(self, seed=11):
        dep = DagRiderDeployment(SystemConfig(n=4, seed=seed))
        return dep.nodes[1]

    def test_applies_served_vertices_through_the_builder(self):
        chunks = self.serve_chunks()
        node = self.fresh_node()
        node._catchup_pending = {0, 2}
        before = sum(1 for _ in node.store.vertices())
        for chunk in chunks:
            node._apply_catchup(0, chunk)
        after = sum(1 for vertex in node.store.vertices() if vertex.round >= 1)
        assert after > 0 and after >= before
        # The donor finished; the other pending peer is still awaited.
        assert node._catchup_pending == {2}
        for chunk in chunks:
            node._apply_catchup(2, chunk)
        assert node._catchup_pending == set()

    def test_unsolicited_chunks_ignored(self):
        chunks = self.serve_chunks()
        node = self.fresh_node()
        assert node._catchup_pending == set()
        for chunk in chunks:
            node._apply_catchup(0, chunk)
        assert sum(1 for vertex in node.store.vertices() if vertex.round >= 1) == 0

    def test_corrupt_payload_skipped_rest_applied(self):
        chunks = self.serve_chunks()
        node = self.fresh_node()
        node._catchup_pending = {0}
        poisoned = CatchupVertices(
            (b"\xff" * 9,) + chunks[0].vertices, done=chunks[0].done
        )
        node._apply_catchup(0, poisoned)
        for chunk in chunks[1:]:
            node._apply_catchup(0, chunk)
        assert sum(1 for vertex in node.store.vertices() if vertex.round >= 1) > 0
        assert node._catchup_pending == set()

    def test_duplicates_are_harmless(self):
        chunks = self.serve_chunks()
        node = self.fresh_node()
        node._catchup_pending = {0, 2}
        for chunk in chunks:
            node._apply_catchup(0, chunk)
        count = sum(1 for vertex in node.store.vertices() if vertex.round >= 1)
        for chunk in chunks:  # second donor serves the same suffix
            node._apply_catchup(2, chunk)
        again = sum(1 for vertex in node.store.vertices() if vertex.round >= 1)
        assert again == count
