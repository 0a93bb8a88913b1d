"""Peer-table parsing: schema validation, round trips, file loading."""

import json

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError
from repro.runtime.peers import (
    PeerTableError,
    allocate_port_block,
    load_peer_table,
    make_peer_table,
    parse_peer_table,
)


def table_dict(n=4, **overrides):
    data = {
        "n": n,
        "seed": 7,
        "peers": {
            str(pid): {"host": "127.0.0.1", "port": 9000 + pid, "control_port": 9100 + pid}
            for pid in range(n)
        },
    }
    data.update(overrides)
    return data


class TestParsing:
    def test_minimal_table_parses(self):
        table = parse_peer_table(table_dict())
        assert table.n == 4
        assert table.seed == 7
        assert table.addresses()[2] == ("127.0.0.1", 9002)
        assert table.entry(2).control_address == ("127.0.0.1", 9102)
        assert table.coin_mode == "ideal"
        assert table.system_config() == SystemConfig(n=4, seed=7)

    def test_threshold_table_parses_without_key_material(self):
        table = parse_peer_table(table_dict(coin_mode="threshold"))
        assert table.coin_mode == "threshold"
        assert sorted(table.to_dict()) == ["coin_mode", "n", "peers", "seed"]

    def test_round_trip_through_to_dict(self):
        config = SystemConfig(n=4, seed=3)
        ports = allocate_port_block(8)
        table = make_peer_table(
            {pid: ("127.0.0.1", ports[2 * pid]) for pid in range(4)},
            config,
            coin_mode="threshold",
            control_ports={pid: ports[2 * pid + 1] for pid in range(4)},
        )
        assert parse_peer_table(json.loads(table.dumps())) == table


class TestRejections:
    def test_bad_pid_key(self):
        data = table_dict()
        data["peers"]["zero"] = data["peers"].pop("0")
        with pytest.raises(PeerTableError, match="not a pid"):
            parse_peer_table(data)

    def test_out_of_range_pid(self):
        data = table_dict()
        data["peers"]["9"] = data["peers"].pop("0")
        with pytest.raises(PeerTableError, match="outside"):
            parse_peer_table(data)

    def test_missing_pid(self):
        data = table_dict()
        del data["peers"]["3"]
        with pytest.raises(PeerTableError, match="expected 4 peers"):
            parse_peer_table(data)

    def test_duplicate_address(self):
        data = table_dict()
        data["peers"]["1"]["port"] = data["peers"]["0"]["port"]
        with pytest.raises(PeerTableError, match="reuses"):
            parse_peer_table(data)

    def test_control_port_colliding_with_data_port(self):
        data = table_dict()
        data["peers"]["1"]["control_port"] = data["peers"]["0"]["port"]
        with pytest.raises(PeerTableError, match="reuses"):
            parse_peer_table(data)

    def test_simulator_only_settings_are_refused(self):
        """A table carries the run as n and seed: the coin keys follow from
        the seed, and other wave lengths, genesis sizes and Byzantine pids
        are simulator-only. A table naming them fails to load, and
        make_peer_table refuses a config it could not carry."""
        for key in ("dealer_seed", "wave_length", "genesis_size"):
            with pytest.raises(PeerTableError, match=f"unknown keys.*{key}"):
                parse_peer_table(table_dict(**{key: 4}))
        addresses = {pid: ("127.0.0.1", 9000 + pid) for pid in range(4)}
        for extra in (
            {"wave_length": 5},
            {"genesis_size": 3},
            {"byzantine": frozenset({3})},
        ):
            with pytest.raises(ConfigurationError, match="n and seed only"):
                make_peer_table(addresses, SystemConfig(n=4, seed=1, **extra))

    def test_unknown_coin_mode(self):
        with pytest.raises(PeerTableError, match="coin_mode"):
            parse_peer_table(table_dict(coin_mode="quantum"))

    def test_unknown_top_level_key(self):
        with pytest.raises(PeerTableError, match="unknown keys"):
            parse_peer_table(table_dict(extra=1))

    @pytest.mark.parametrize(
        "key,value",
        [
            # Link timings are constants of repro.runtime.reliable, not
            # table keys, whatever the table says about them.
            ("link", {"initial_backoff": 0.02}),
            ("link", {"ack_every_frame": True}),
            ("link", {"warp_factor": 9}),
            ("link", {}),
            # Nothing in the runtime read it; [1.9] and [True] used to
            # parse as pid 1 and ["x"] escaped as a bare ValueError.
            ("byzantine", [1]),
            ("byzantine", [1.9]),
            ("byzantine", [True]),
            ("byzantine", ["x"]),
        ],
        ids=[
            "link-initial_backoff",
            "link-ack_every_frame",
            "link-warp_factor",
            "link-empty",
            "byzantine-pid",
            "byzantine-float",
            "byzantine-bool",
            "byzantine-string",
        ],
    )
    def test_retired_keys_are_unknown(self, key, value):
        # A table that still names a retired setting must fail loudly, not
        # load with the setting silently ignored.
        with pytest.raises(PeerTableError, match=f"unknown keys \\['{key}'\\]"):
            parse_peer_table(table_dict(**{key: value}))

    def test_port_out_of_range(self):
        data = table_dict()
        data["peers"]["0"]["port"] = 70_000
        with pytest.raises(PeerTableError, match="outside"):
            parse_peer_table(data)

    def test_non_integer_n(self):
        data = table_dict()
        data["n"] = "four"
        with pytest.raises(PeerTableError, match="must be an integer"):
            parse_peer_table(data)


class TestIngressAndGc:
    def ingress_table(self):
        data = table_dict()
        for pid in range(4):
            data["peers"][str(pid)]["ingress_port"] = 9200 + pid
        return data

    def test_gc_depth_round_trips(self):
        table = parse_peer_table(table_dict(gc_depth=6))
        assert table.gc_depth == 6
        assert parse_peer_table(json.loads(table.dumps())) == table

    def test_gc_depth_must_be_positive(self):
        with pytest.raises(PeerTableError, match="gc_depth"):
            parse_peer_table(table_dict(gc_depth=0))

    def test_ingress_ports_parse(self):
        table = parse_peer_table(self.ingress_table())
        assert table.entry(1).ingress_address == ("127.0.0.1", 9201)
        assert parse_peer_table(json.loads(table.dumps())) == table

    def test_ingress_port_collision_rejected(self):
        data = self.ingress_table()
        data["peers"]["1"]["ingress_port"] = 9000  # pid 0's data port
        with pytest.raises(PeerTableError, match="reuses"):
            parse_peer_table(data)

    def test_ingress_address_requires_port(self):
        table = parse_peer_table(table_dict())
        with pytest.raises(PeerTableError, match="ingress_port"):
            table.entry(0).ingress_address

    def test_ingress_config_round_trips(self):
        table = parse_peer_table(
            table_dict(ingress={"batch_txs": 8, "max_pending_txs": 100})
        )
        assert table.ingress.batch_txs == 8
        assert table.ingress.max_pending_txs == 100
        assert parse_peer_table(json.loads(table.dumps())) == table

    def test_unknown_ingress_key_rejected(self):
        with pytest.raises(PeerTableError, match="unknown ingress keys"):
            parse_peer_table(table_dict(ingress={"warp_factor": 9}))

    def test_retired_batch_deadline_key_rejected(self):
        # A key until the round became the batching clock: a table that
        # still carries it must not load with the deadline silently ignored.
        with pytest.raises(PeerTableError, match="unknown ingress keys.*batch_deadline"):
            parse_peer_table(table_dict(ingress={"batch_deadline": 0.05}))

    def test_bad_ingress_value_rejected(self):
        with pytest.raises(ConfigurationError, match="batch_txs"):
            parse_peer_table(table_dict(ingress={"batch_txs": 0}))

    def test_make_peer_table_carries_policy(self):
        from repro.mempool.admission import AdmissionConfig

        config = SystemConfig(n=4, seed=3)
        ports = allocate_port_block(12)
        table = make_peer_table(
            {pid: ("127.0.0.1", ports[3 * pid]) for pid in range(4)},
            config,
            control_ports={pid: ports[3 * pid + 1] for pid in range(4)},
            ingress_ports={pid: ports[3 * pid + 2] for pid in range(4)},
            gc_depth=8,
            ingress=AdmissionConfig(batch_txs=16),
        )
        assert table.gc_depth == 8
        assert table.ingress.batch_txs == 16
        assert parse_peer_table(json.loads(table.dumps())) == table


class TestFiles:
    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "peers.json"
        path.write_text(json.dumps(table_dict()), encoding="utf-8")
        table = load_peer_table(str(path))
        assert table.n == 4

    def test_bad_file_names_source(self, tmp_path):
        data = table_dict()
        del data["peers"]["3"]
        path = tmp_path / "peers.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(PeerTableError, match="peers.json"):
            load_peer_table(str(path))


class TestPortAllocation:
    def test_block_is_distinct_and_bindable(self):
        import socket

        ports = allocate_port_block(8)
        assert len(set(ports)) == 8
        for port in ports:
            with socket.socket() as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind(("127.0.0.1", port))
