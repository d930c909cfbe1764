"""Rendering of lint reports: human text and schema-stable JSON.

The JSON document is a machine interface (CI annotations, dashboards)
and is versioned like every other serialized artifact in this repo:
``format_version`` bumps on any key change, keys are emitted sorted, and
findings are sorted by location, so byte-identical trees produce
byte-identical reports.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.lint.engine import LintReport
from repro.lint.rules import rule_catalogue

REPORT_FORMAT_VERSION = 1


def report_to_dict(report: LintReport) -> Dict[str, Any]:
    """The schema-stable dict form of a report (see module docstring)."""
    return {
        "kind": "reprolint_report",
        "format_version": REPORT_FORMAT_VERSION,
        "ok": report.ok,
        "files_scanned": report.files_scanned,
        "suppressed": report.suppressed,
        "counts": dict(sorted(report.counts().items())),
        "findings": [finding.to_dict() for finding in report.findings],
    }


def render_json(report: LintReport) -> str:
    """The report as canonical JSON text (sorted keys, 2-space indent)."""
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


def render_text(report: LintReport) -> str:
    """One line per finding plus a one-line summary."""
    lines: List[str] = [finding.render() for finding in report.findings]
    if report.ok:
        summary = (
            f"reprolint: {report.files_scanned} file(s) clean"
        )
    else:
        by_code = ", ".join(
            f"{code} x{count}"
            for code, count in sorted(report.counts().items())
        )
        summary = (
            f"reprolint: {len(report.findings)} finding(s) in "
            f"{report.files_scanned} file(s) ({by_code})"
        )
    if report.suppressed:
        summary += f", {report.suppressed} suppressed"
    lines.append(summary)
    return "\n".join(lines)


#: ``(code, name, scope, summary)`` per whole-program rule.  They need
#: the module index (and most the call graph), so they live outside the
#: per-file :func:`~repro.lint.rules.rule_catalogue`; ``--list-rules``
#: and ``--select`` treat both as one catalogue.
WHOLE_PROGRAM_RULES = (
    ("T001", "deep-taint-path", "sim/engine.py, sim/algorithm.py, "
     "sim/backend*.py, sim/spec.py, sim/store.py",
     "a deterministic-core function transitively reaches a "
     "nondeterminism source"),
    ("F001", "fork-unsafe-global", "sim/runner.py, chaos/runner.py",
     "a runner module mutates a module-level global that forked "
     "workers snapshot"),
    ("F002", "fork-shared-file-handle", "sim/runner.py, chaos/runner.py",
     "a runner module opens a file handle at import time, sharing its "
     "descriptor and offset across the fork"),
    ("F003", "lock-around-atomic-rename", "sim/runner.py, chaos/runner.py",
     "a runner module holds a lock around os.replace/os.rename/"
     "shutil.move staging, which deadlocks a worker forked mid-hold"),
    ("E001", "phase-engine-mutation", "backend classes",
     "a backend phase transitively mutates engine state outside its "
     "phase allowlist"),
    ("E002", "phase-payload-mutation", "backend classes",
     "a backend phase mutates a payload parameter that is not a "
     "documented out-parameter"),
    ("E003", "hook-payload-mutation", "observer classes",
     "an observer on_* hook transitively mutates its payload "
     "(interprocedural H001)"),
    ("E004", "phase-io", "backend classes",
     "a backend phase performs I/O"),
    ("M001", "mutation-after-submit", "sim/runner.py, chaos/runner.py",
     "an object captured by a submitted work unit is mutated after "
     "the submission"),
    ("S001", "digest-unstable-field", "sim/spec.py",
     "a defaulted spec field is serialized unconditionally, drifting "
     "every digest"),
    ("S002", "digest-missing-field", "sim/spec.py",
     "a spec field never reaches to_dict, so differing specs share a "
     "digest"),
    ("A001", "hidden-persistent-state", "algorithm classes",
     "an algorithm hook writes an attribute that persistent_state() "
     "never emits (state the memory audit cannot see)"),
    ("A002", "unbounded-declared-state", "algorithm classes",
     "a persistent_state() field has no bound in "
     "persistent_state_bounds(), so its bit cost is uncharged"),
    ("A003", "observation-scope-violation", "algorithm classes",
     "a LOCAL-communication algorithm reads a global-only Observation "
     "field"),
    ("A004", "model-escape", "algorithm classes",
     "decide() transitively reaches engine/graph/store internals, "
     "breaking robot anonymity"),
    ("A005", "observation-mutation", "algorithm classes",
     "a decide/detects_termination hook mutates its Observation"),
    ("P001", "parse-error", "all files",
     "a file under analysis does not parse"),
)


def render_rule_catalogue() -> str:
    """The ``--list-rules`` text: code, name, scope and summary per rule."""
    entries = [
        (
            info.code,
            info.name,
            ", ".join(info.scopes) if info.scopes else "all files",
            info.summary,
        )
        for info in rule_catalogue()
    ]
    entries.extend(WHOLE_PROGRAM_RULES)
    lines = []
    for code, name, scope, summary in sorted(entries):
        lines.append(f"{code}  {name}  [{scope}]")
        lines.append(f"      {summary}")
    return "\n".join(lines)
