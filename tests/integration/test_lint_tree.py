"""The shipped tree must satisfy its own determinism lint and contracts.

This is the acceptance criterion ``python -m repro.lint src/`` exits 0,
pinned as a test so a violation (e.g. a stray ``import random`` or a
blocking call in a coroutine) fails tier-1 locally, not just the CI lint
job. Runs the engine in-process against the real repo root.

The mutation tests below prove the contract tier has teeth on the *real*
sources: deleting one receive-path dispatch branch, one doc-catalog row,
or one WAL replay arm from the shipped code must make exactly the matching
CONTRACT rule fire.
"""

from pathlib import Path

from repro.lint.cli import main
from repro.lint.engine import discover_files, module_name_for, run
from repro.lint.project import lint_project

REPO_ROOT = Path(__file__).resolve().parents[2]


def real_tree_sources() -> dict[str, str]:
    """Every shipped ``repro.*`` module's source, keyed by dotted name."""
    sources: dict[str, str] = {}
    for path in discover_files([REPO_ROOT / "src"]):
        sources[module_name_for(path)] = path.read_text()
    return sources


def real_docs() -> dict[str, str]:
    doc = REPO_ROOT / "docs" / "observability.md"
    return {"docs/observability.md": doc.read_text()}


def contract_lint(sources, docs=None):
    return lint_project(sources, docs=docs if docs is not None else real_docs())


class TestShippedTree:
    def test_src_is_lint_clean(self, capsys):
        exit_code = main([str(REPO_ROOT / "src"), "--root", str(REPO_ROOT)])
        assert exit_code == 0, capsys.readouterr().out

    def test_engine_sees_the_whole_package(self):
        result = run([REPO_ROOT / "src"], root=REPO_ROOT)
        # Every module of the package parses and is checked (the count only
        # grows as the repo does; a collapse here means discovery broke).
        assert result.parse_errors == []
        assert result.files_checked >= 84


class TestContractMutations:
    """Real-source mutations each contract rule must catch."""

    def test_shipped_tree_passes_contract_tier(self):
        assert contract_lint(real_tree_sources()) == []

    def test_deleting_heartbeat_dispatch_fails_contract001(self):
        sources = real_tree_sources()
        transport = sources["repro.runtime.transport"]
        needle = "isinstance(message, LinkHeartbeat)"
        assert needle in transport
        sources["repro.runtime.transport"] = transport.replace(
            needle, "isinstance(message, LinkAck)"
        )
        violations = contract_lint(sources)
        assert any(
            v.code == "CONTRACT001" and "LinkHeartbeat" in v.message
            for v in violations
        )

    def test_deleting_catchup_dispatch_fails_contract001(self):
        sources = real_tree_sources()
        node = sources["repro.core.node"]
        needle = "isinstance(message, CatchupRequest)"
        assert needle in node
        sources["repro.core.node"] = node.replace(
            needle, "isinstance(message, CatchupVertices)"
        )
        violations = contract_lint(sources)
        assert any(
            v.code == "CONTRACT001" and "CatchupRequest" in v.message
            for v in violations
        )

    def test_deleting_doc_event_row_fails_contract002(self):
        docs = real_docs()
        doc = docs["docs/observability.md"]
        row = next(
            line
            for line in doc.splitlines()
            if line.startswith("| `snapshot_written`")
        )
        docs["docs/observability.md"] = doc.replace(row + "\n", "")
        violations = contract_lint(real_tree_sources(), docs=docs)
        assert any(
            v.code == "CONTRACT002" and "snapshot_written" in v.message
            for v in violations
        )

    def test_deleting_doc_metric_row_fails_contract003(self):
        docs = real_docs()
        doc = docs["docs/observability.md"]
        row = next(
            line
            for line in doc.splitlines()
            if line.startswith("| `catchup.vertices`")
        )
        docs["docs/observability.md"] = doc.replace(row + "\n", "")
        violations = contract_lint(real_tree_sources(), docs=docs)
        assert any(
            v.code == "CONTRACT003" and "catchup.vertices" in v.message
            for v in violations
        )

    def test_deleting_wal_replay_arm_fails_contract004(self):
        sources = real_tree_sources()
        journal = sources["repro.storage.journal"]
        needle = "elif record.kind == WAL_COMMIT:"
        assert needle in journal
        sources["repro.storage.journal"] = journal.replace(
            needle, "elif record.kind == WAL_VERTEX and False:"
        )
        violations = contract_lint(sources)
        assert any(
            v.code == "CONTRACT004" and "WAL_COMMIT" in v.message
            for v in violations
        )

    def test_deleting_fabric_command_fails_contract005(self):
        sources = real_tree_sources()
        fabric = sources["repro.runtime.fabric"]
        needle = '{"cmd": "heal"}'
        assert needle in fabric
        sources["repro.runtime.fabric"] = fabric.replace(
            needle, '{"cmd": "ping"}'
        )
        violations = contract_lint(sources)
        assert any(
            v.code == "CONTRACT005" and '"heal"' in v.message
            for v in violations
        )
