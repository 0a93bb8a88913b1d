"""CLI entry points (python -m repro ...)."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.n == 4
        assert args.broadcast == "bracha"
        assert args.coin == "ideal"

    def test_rejects_unknown_broadcast(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--broadcast", "pigeons"])

    def test_baseline_choices(self):
        args = build_parser().parse_args(["baseline", "--protocol", "dumbo"])
        assert args.protocol == "dumbo"

    def test_tcp_node_takes_gc_depth_from_the_table_only(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["tcp-node", "--peers", "p.json", "--pid", "0", "--gc-depth", "4"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --gc-depth 4" in capsys.readouterr().err


class TestCommands:
    def test_run_command(self, capsys):
        assert main(["run", "--blocks", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "total order across correct nodes: OK" in out
        assert "bits sent" in out

    def test_run_with_avid(self, capsys):
        assert main(["run", "--blocks", "5", "--broadcast", "avid"]) == 0
        assert "broadcast=avid" in capsys.readouterr().out

    def test_render_command(self, capsys):
        assert main(["render", "--rounds", "4"]) == 0
        out = capsys.readouterr().out
        assert "src/round" in out
        assert "p0" in out

    def test_baseline_command(self, capsys):
        assert main(["baseline", "--protocol", "vaba", "--slots", "2"]) == 0
        out = capsys.readouterr().out
        assert "outputs per node: [2, 2, 2, 2]" in out
