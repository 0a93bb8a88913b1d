"""Rule modules; importing this package registers every rule.

Rule inventory (see ``docs/static-analysis.md`` for rationale and examples):

* DET001–DET003 — :mod:`repro.lint.rules.determinism`
* ASYNC003 — :mod:`repro.lint.rules.async_rules`
"""

from repro.lint.rules import async_rules, determinism
