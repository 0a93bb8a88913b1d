"""Best-effort static name resolution for rule visitors.

Rules match *dotted origins* — ``time.monotonic``, ``datetime.datetime.now``
— regardless of how the module spelled the access (``import time``,
``from time import monotonic as m``, ``import datetime as dt``). This module
builds the alias map from a parsed tree and resolves call targets back to
their dotted origin. It is deliberately scope-free: local shadowing of an
import is not modelled, which is the standard static-analysis trade-off
(flake8 and ruff make the same one for their banned-API rules).
"""

from __future__ import annotations

import ast


def collect_imports(tree: ast.AST) -> dict[str, str]:
    """Map every locally bound import alias to its dotted origin.

    ``import time`` binds ``time -> time``; ``import asyncio as aio`` binds
    ``aio -> asyncio``; ``from datetime import datetime as dt`` binds
    ``dt -> datetime.datetime``. Relative imports keep their leading dots so
    they never collide with stdlib origins.
    """
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports[alias.asname] = alias.name
                else:
                    # ``import os.path`` binds only the top name ``os``.
                    top = alias.name.split(".", 1)[0]
                    imports[top] = top
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = f"{prefix}.{alias.name}" if prefix else alias.name
    return imports


def dotted_origin(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Resolve an expression to the dotted origin it names, if any.

    ``Name`` leaves map through the alias table (falling back to the bare
    name, which is how builtins like ``id`` and ``open`` resolve); attribute
    chains append to the resolved base. Returns None for anything that is
    not a plain name/attribute chain (subscripts, calls, literals).
    """
    if isinstance(node, ast.Name):
        return imports.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        base = dotted_origin(node.value, imports)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def call_origin(node: ast.Call, imports: dict[str, str]) -> str | None:
    """Dotted origin of a call's target (None when not statically nameable)."""
    return dotted_origin(node.func, imports)


def imported_module_names(tree: ast.AST) -> dict[str, ast.stmt]:
    """Map each imported *module* origin to the statement importing it.

    Used by rules that ban a whole module (DET001 bans ``random``): both
    ``import random`` and ``from random import randrange`` surface here
    under the origin ``random``.
    """
    origins: dict[str, ast.stmt] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".", 1)[0]
                origins.setdefault(top, node)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            top = node.module.split(".", 1)[0]
            origins.setdefault(top, node)
    return origins
