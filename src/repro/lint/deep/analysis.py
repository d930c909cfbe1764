"""The one ``repro lint`` pass: every rule, one report, one exit code.

:func:`run_lint` parses the whole-program paths once
(:mod:`~repro.lint.deep.modindex`), builds the call graph once
(:mod:`~repro.lint.deep.callgraph`) and infers effect summaries once
(:mod:`~repro.lint.deep.effects`).  Everything whole-program reads that
one graph and those summaries: the taint paths
(:mod:`~repro.lint.deep.taint`), the fork-safety checks
(:mod:`~repro.lint.deep.concurrency`), the E/M/S contracts
(:mod:`~repro.lint.deep.contracts`) and the A rules
(:mod:`~repro.lint.deep.robotmodel`).  The shallow per-file rules run
beside them, on the index's own parse for every file it holds.

Each file gets one suppression table
(:attr:`~repro.lint.deep.modindex.ModuleInfo.suppressions`), shared by
the shallow rules, the taint seeds and the whole-program findings.  A
file that does not parse yields exactly one ``P001``.  The outcome is an
ordinary :class:`~repro.lint.engine.LintReport`: the gate is zero
findings.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.deep.callgraph import build_call_graph
from repro.lint.deep.concurrency import check_fork_safety
from repro.lint.deep.contracts import check_contracts
from repro.lint.deep.effects import infer_effects
from repro.lint.deep.modindex import ModuleInfo, ProjectIndex, build_index
from repro.lint.deep.robotmodel import check_robot_model
from repro.lint.deep.taint import TAINT_CODE, trace_taint_paths
from repro.lint.engine import (
    PARSE_ERROR_CODE,
    LintReport,
    _is_suppressed,
    check_module,
    iter_python_files,
    lint_source,
)
from repro.lint.findings import Finding
from repro.lint.reporters import WHOLE_PROGRAM_RULES
from repro.lint.rules import Rule, all_rules

#: Default roots of the shallow per-file rules.
SHALLOW_DEFAULT_PATHS: Tuple[str, ...] = ("src", "tests", "benchmarks")

#: Default roots of the whole-program rules (the package tree, not
#: tests/benchmarks).
DEEP_DEFAULT_PATHS: Tuple[str, ...] = ("src",)

PathLike = Union[str, pathlib.Path]


def _matches(code: str, selectors: Optional[Sequence[str]]) -> bool:
    return selectors is None or any(code.startswith(s) for s in selectors)


def _selection(
    select: Optional[Iterable[str]],
) -> Tuple[List[Rule], Set[str]]:
    """``(per-file rules, whole-program codes)`` picked by ``select``.

    Selectors are codes or code prefixes from the one catalogue; an
    unknown selector raises ``ValueError`` so a typo fails loudly.
    """
    rules = all_rules()
    program_codes = {entry[0] for entry in WHOLE_PROGRAM_RULES}
    wanted: Optional[List[str]] = None
    if select is not None:
        wanted = [s.strip() for s in select if s.strip()]
        known = {rule.info.code for rule in rules} | program_codes
        for selector in wanted:
            if not any(code.startswith(selector) for code in known):
                raise ValueError(
                    f"unknown rule selector {selector!r}; known codes: "
                    f"{sorted(known)}"
                )
    return (
        [rule for rule in rules if _matches(rule.info.code, wanted)],
        {code for code in program_codes if _matches(code, wanted)}
        - {PARSE_ERROR_CODE},
    )


def run_lint(
    paths: Optional[Sequence[PathLike]] = None,
    *,
    select: Optional[Iterable[str]] = None,
) -> LintReport:
    """Run every selected rule over ``paths`` and merge one report.

    Without ``paths`` the per-file rules scan :data:`SHALLOW_DEFAULT_PATHS`
    and the whole-program rules :data:`DEEP_DEFAULT_PATHS`; explicit
    paths go to both.  The module index is built only when a selected
    rule needs it.  Missing paths raise ``FileNotFoundError``.
    """
    rules, codes = _selection(select)
    report = LintReport()
    scanned: Set[pathlib.Path] = set()
    index: Optional[ProjectIndex] = None
    modules: Dict[pathlib.Path, ModuleInfo] = {}
    if codes:
        index = build_index(paths or DEEP_DEFAULT_PATHS)
        for module in index.modules.values():
            modules[module.path.resolve()] = module
        scanned.update(modules)

    # The per-file pass is also what reports a parse error with its
    # column, so it runs whenever no whole-program rule would parse.
    linted: Set[str] = set()
    if rules or not codes:
        for file_path in iter_python_files(paths or SHALLOW_DEFAULT_PATHS):
            resolved = file_path.resolve()
            scanned.add(resolved)
            display = file_path.as_posix()
            module = modules.get(resolved)
            if module is not None:
                part = check_module(
                    display, module.tree, module.source,
                    module.suppressions, rules,
                )
            else:
                # not indexed: outside the whole-program roots, or a
                # parse error this reports as its one P001
                part = lint_source(
                    file_path.read_text(encoding="utf-8"), display,
                    rules=rules,
                )
            linted.add(display)
            report.findings.extend(part.findings)
            report.suppressed += part.suppressed

    if index is not None:
        for display, lineno, message in index.parse_errors:
            scanned.add(pathlib.Path(display).resolve())
            if display not in linted:
                report.findings.append(
                    Finding(
                        path=display,
                        line=lineno,
                        column=1,
                        code=PARSE_ERROR_CODE,
                        message=f"file does not parse: {message}",
                    )
                )
        _check_program(index, codes, report)
    report.files_scanned = len(scanned)
    report.findings.sort()
    return report


def _check_program(
    index: ProjectIndex, codes: Set[str], report: LintReport
) -> None:
    """Append the selected whole-program findings to ``report``."""
    families = {code[0] for code in codes}
    candidates: List[Tuple[Finding, str]] = []
    if "F" in families:
        candidates.extend(check_fork_safety(index))
    if families & {"T", "E", "M", "S", "A"}:
        graph = build_call_graph(index)
        if TAINT_CODE in codes:
            taint = trace_taint_paths(graph)
            report.suppressed += taint.suppressed_seeds
            candidates.extend(
                (
                    Finding(
                        path=path.root_path,
                        line=path.site.lineno,
                        column=path.site.col,
                        code=TAINT_CODE,
                        message=path.message,
                    ),
                    path.fingerprint,
                )
                for path in taint.paths
            )
        if families & {"E", "M", "S", "A"}:
            summaries = infer_effects(graph)
            if families & {"E", "M", "S"}:
                candidates.extend(check_contracts(graph, summaries))
            if "A" in families:
                candidates.extend(check_robot_model(graph, summaries))
    tables = {
        module.display_path: module.suppressions
        for module in index.modules.values()
    }
    seen: Set[str] = set()
    for finding, fingerprint in candidates:
        if finding.code not in codes:
            continue
        if _is_suppressed(finding, tables.get(finding.path, {})):
            report.suppressed += 1
            continue
        if fingerprint in seen:
            continue  # one report per finding identity
        seen.add(fingerprint)
        report.findings.append(finding)
