"""CONTRACT001–005: cross-module protocol contracts.

These rules run on the project tier (:mod:`repro.lint.project`): each one
reads specific anchor modules out of the :class:`ProjectModel` and checks a
whole-program invariant the type system cannot express. A rule whose anchor
module is absent from the model reports nothing — partial lint invocations
(``python -m repro.lint src/repro/sim``) and fixture trees stay quiet.

Violations are anchored at the *authoritative* end of each contract: the
registry entry whose frame nobody dispatches, the emit site whose kind the
docs do not describe, the doc row whose kind nothing emits — so the line a
developer is sent to is the one they must change.
"""

from __future__ import annotations

import ast

from repro.lint.project import (
    ProjectModel,
    ProjectRule,
    Site,
    register_project,
)
from repro.lint.registry import ModuleContext

CODEC_REGISTRY_MODULE = "repro.codec.registry"
JOURNAL_MODULE = "repro.storage.journal"
RUNNER_MODULE = "repro.runtime.runner"
FABRIC_MODULE = "repro.runtime.fabric"
OBS_DOC = "docs/observability.md"


def _module_dict(
    context: ModuleContext, name: str
) -> ast.Dict | None:
    """The dict literal assigned to module-level ``name`` (None if absent)."""
    for node in context.tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                if isinstance(value, ast.Dict):
                    return value
    return None


def _int_const(node: ast.expr | None) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    return None


def _function(context: ModuleContext, name: str) -> ast.FunctionDef | None:
    for node in ast.walk(context.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node  # type: ignore[return-value]
    return None


@register_project
class FrameDispatchContract(ProjectRule):
    """CONTRACT001 — codec registry tags unique + every frame dispatched."""

    code = "CONTRACT001"
    summary = (
        "every codec-registered frame tag is unique, decodable, and has a "
        "receive-path dispatch outside repro.codec"
    )

    def check(self) -> None:
        context = self.model.modules.get(CODEC_REGISTRY_MODULE)
        if context is None:
            return
        registry = _module_dict(context, "_REGISTRY")
        decoders = _module_dict(context, "_DECODERS")
        if registry is None or decoders is None:
            self.report(
                context.path,
                1,
                "codec registry module lacks _REGISTRY/_DECODERS dict "
                "literals; contract cannot be checked",
            )
            return

        # (a) encoder tags are unique and every tag has a decoder.
        encoder_tags: dict[int, int] = {}  # tag -> first line
        types_by_entry: list[tuple[ast.expr, int | None]] = []
        for key, value in zip(registry.keys, registry.values):
            if key is None:
                continue
            tag = None
            if isinstance(value, ast.Tuple) and value.elts:
                tag = _int_const(value.elts[0])
            types_by_entry.append((key, tag))
            if tag is None:
                self.report(
                    context.path,
                    key.lineno,
                    "registry entry has no literal frame tag",
                )
                continue
            if tag in encoder_tags:
                self.report(
                    context.path,
                    key.lineno,
                    f"frame tag {tag} already used at line {encoder_tags[tag]}",
                )
            else:
                encoder_tags[tag] = key.lineno

        decoder_tags: dict[int, int] = {}
        for key in decoders.keys:
            tag = _int_const(key)
            if tag is not None and key is not None:
                decoder_tags.setdefault(tag, key.lineno)
        for tag, line in sorted(encoder_tags.items()):
            if tag not in decoder_tags:
                self.report(
                    context.path, line, f"frame tag {tag} has no decoder"
                )
        for tag, line in sorted(decoder_tags.items()):
            if tag not in encoder_tags:
                self.report(
                    context.path,
                    line,
                    f"decoder for tag {tag} has no registered encoder",
                )

        # (b) payload tags round-trip through _decode_payload arms.
        payload_types: list[tuple[ast.expr, int | None]] = []
        payload_tags = _module_dict(context, "_PAYLOAD_TAGS")
        if payload_tags is not None:
            decode_payload = _function(context, "_decode_payload")
            arm_lines: dict[int, int] = {}
            if decode_payload is not None:
                for node in ast.walk(decode_payload):
                    if (
                        isinstance(node, ast.Compare)
                        and len(node.ops) == 1
                        and isinstance(node.ops[0], ast.Eq)
                    ):
                        tag = _int_const(node.comparators[0])
                        if tag is not None and tag != 0:  # 0 is the None arm
                            arm_lines.setdefault(tag, node.lineno)
            declared: dict[int, int] = {}
            for key, value in zip(payload_tags.keys, payload_tags.values):
                if key is None:
                    continue
                tag = _int_const(value)
                payload_types.append((key, tag))
                if tag is None:
                    continue
                declared[tag] = key.lineno
                if tag not in arm_lines:
                    self.report(
                        context.path,
                        key.lineno,
                        f"payload tag {tag} has no _decode_payload arm",
                    )
            for tag, line in sorted(arm_lines.items()):
                if tag not in declared:
                    self.report(
                        context.path,
                        line,
                        f"_decode_payload arm for tag {tag} not in "
                        "_PAYLOAD_TAGS",
                    )

        # (c) every registered type has receive-path dispatch evidence.
        evidence = self.model.dispatch_evidence()
        for key, tag in types_by_entry + payload_types:
            origin = self.model.resolve(context, key)
            if origin is None:
                self.report(
                    context.path,
                    key.lineno,
                    "registry key is not a statically resolvable type",
                )
                continue
            if origin not in evidence:
                name = origin.rsplit(".", 1)[-1]
                self.report(
                    context.path,
                    key.lineno,
                    f"frame type {name} (tag {tag}) has no receive-path "
                    "dispatch (isinstance/type-is/typed handler) outside "
                    "repro.codec",
                )


class _DocCatalogContract(ProjectRule):
    """Shared shape for code-vs-doc-catalog contracts (002/003)."""

    heading = ""
    noun = ""

    def code_sites(self) -> dict[str, list[Site]]:  # pragma: no cover
        raise NotImplementedError

    def extra_checks(self) -> None:
        """Hook for per-rule checks beyond set equality."""

    def check(self) -> None:
        sites = self.code_sites()
        self.extra_checks()
        if not sites and self.model.doc_lines(OBS_DOC) is None:
            return  # nothing to document, no doc to check
        catalog = self.model.doc_catalog(OBS_DOC, self.heading)
        if catalog is None:
            first = min(
                (site for uses in sites.values() for site in uses),
                key=lambda s: (s[0], s[1]),
            )
            self.report(
                first[0],
                first[1],
                f"{self.noun}s are emitted but {OBS_DOC} is missing",
            )
            return
        for name in sorted(sites):
            if name not in catalog:
                path, line = sites[name][0]
                self.report(
                    path,
                    line,
                    f'{self.noun} "{name}" is not documented in {OBS_DOC} '
                    f'("{self.heading}" table)',
                )
        for name in sorted(catalog):
            if name not in sites:
                self.report(
                    OBS_DOC,
                    catalog[name],
                    f'documented {self.noun} "{name}" is never recorded by '
                    "src/repro",
                )


@register_project
class EventCatalogContract(_DocCatalogContract):
    """CONTRACT002 — emitted event kinds == documented event catalog."""

    code = "CONTRACT002"
    summary = (
        "every emitted obs event kind appears in the docs/observability.md "
        "event catalog, and vice versa"
    )
    heading = "Event catalog"
    noun = "event kind"

    def code_sites(self) -> dict[str, list[Site]]:
        return self.model.emit_kinds()


@register_project
class MetricCatalogContract(_DocCatalogContract):
    """CONTRACT003 — registered metric names == documented metric catalog."""

    code = "CONTRACT003"
    summary = (
        "every metric name recorded against the registry appears in the "
        "docs/observability.md metric catalog (and each name keeps one "
        "instrument kind)"
    )
    heading = "Metric catalog"
    noun = "metric"

    def code_sites(self) -> dict[str, list[Site]]:
        return {
            name: sorted(site for sites in kinds.values() for site in sites)
            for name, kinds in self.model.metric_uses().items()
        }

    def extra_checks(self) -> None:
        for name, kinds in sorted(self.model.metric_uses().items()):
            if len(kinds) > 1:
                path, line = sorted(
                    site for sites in kinds.values() for site in sites
                )[1]
                self.report(
                    path,
                    line,
                    f'metric "{name}" is registered as multiple instrument '
                    f"kinds ({', '.join(sorted(kinds))})",
                )


@register_project
class WalReplayContract(ProjectRule):
    """CONTRACT004 — every WAL record kind written is handled on replay."""

    code = "CONTRACT004"
    summary = (
        "every storage WAL record kind the journal appends has a matching "
        "replay arm (and vice versa)"
    )

    def _wal_origin(self, context: ModuleContext, node: ast.expr) -> str | None:
        origin = self.model.resolve(context, node)
        if origin is not None and origin.rsplit(".", 1)[-1].startswith("WAL_"):
            return origin
        return None

    def check(self) -> None:
        context = self.model.modules.get(JOURNAL_MODULE)
        if context is None:
            return
        written: dict[str, Site] = {}
        replayed: dict[str, Site] = {}
        for node in ast.walk(context.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and node.args
            ):
                origin = self._wal_origin(context, node.args[0])
                if origin is not None:
                    written.setdefault(origin, (context.path, node.lineno))
            elif (
                isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and isinstance(node.ops[0], ast.Eq)
                and isinstance(node.left, ast.Attribute)
                and node.left.attr == "kind"
            ):
                origin = self._wal_origin(context, node.comparators[0])
                if origin is not None:
                    replayed.setdefault(origin, (context.path, node.lineno))
        for origin in sorted(written):
            if origin not in replayed:
                path, line = written[origin]
                name = origin.rsplit(".", 1)[-1]
                self.report(
                    path,
                    line,
                    f"WAL record kind {name} is written but has no replay "
                    "arm in the journal",
                )
        for origin in sorted(replayed):
            if origin not in written:
                path, line = replayed[origin]
                name = origin.rsplit(".", 1)[-1]
                self.report(
                    path,
                    line,
                    f"WAL replay arm handles {name} which the journal never "
                    "writes",
                )


def _served_verbs(context: ModuleContext) -> dict[str, Site]:
    """String keys of the ``verbs=`` / ``streams=`` dict literals in a module."""
    served: dict[str, Site] = {}
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        for keyword in node.keywords:
            if keyword.arg in ("verbs", "streams") and isinstance(
                keyword.value, ast.Dict
            ):
                for key in keyword.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        served.setdefault(key.value, (context.path, key.lineno))
    return served


def _issued_verbs(context: ModuleContext) -> dict[str, Site]:
    """Values of the ``"cmd"`` key in every request dict literal of a module."""
    issued: dict[str, Site] = {}
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "cmd"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                issued.setdefault(value.value, (context.path, value.lineno))
    return issued


@register_project
class ControlProtocolContract(ProjectRule):
    """CONTRACT005 — control verbs the runner serves == verbs the driver issues."""

    code = "CONTRACT005"
    summary = (
        "every verb in the runner's control verb tables is issued by the "
        "fabric driver, and vice versa"
    )

    def check(self) -> None:
        runner = self.model.modules.get(RUNNER_MODULE)
        fabric = self.model.modules.get(FABRIC_MODULE)
        if runner is None or fabric is None:
            return
        served = _served_verbs(runner)
        issued = _issued_verbs(fabric)
        for verb, (path, line) in sorted(served.items()):
            if verb not in issued:
                self.report(
                    path,
                    line,
                    f'control verb "{verb}" is served by {RUNNER_MODULE} but '
                    f"never issued by {FABRIC_MODULE}",
                )
        for verb, (path, line) in sorted(issued.items()):
            if verb not in served:
                self.report(
                    path,
                    line,
                    f'control verb "{verb}" is issued by {FABRIC_MODULE} but '
                    f"not served by {RUNNER_MODULE}",
                )


__all__ = [
    "FrameDispatchContract",
    "EventCatalogContract",
    "MetricCatalogContract",
    "WalReplayContract",
    "ControlProtocolContract",
]
