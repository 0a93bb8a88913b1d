"""Rule modules; importing this package registers every rule.

Rule inventory (see ``docs/static-analysis.md`` for rationale and examples):

* DET001–DET004 — :mod:`repro.lint.rules.determinism`
* ASYNC001–ASYNC003 — :mod:`repro.lint.rules.async_rules`
* EXC001 — :mod:`repro.lint.rules.exceptions`
"""

from repro.lint.rules import async_rules, determinism, exceptions

__all__ = ["async_rules", "determinism", "exceptions"]
