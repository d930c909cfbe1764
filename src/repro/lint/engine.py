"""The per-file lint engine: file discovery, parsing, suppressions, dispatch.

:func:`lint_paths` is the per-file pipeline: discover ``*.py`` files
under the given paths, parse each once, run every selected rule whose
scope matches, honor inline suppressions, and return a
:class:`LintReport` whose findings are sorted by location -- the same
report object both reporters and the CLI exit code are computed from.
``repro lint`` itself runs :func:`~repro.lint.deep.analysis.run_lint`,
which feeds :func:`check_module` the whole-program index's parse.

Suppressions are inline comments on the offending line::

    created = time.time()  # reprolint: disable=D001 -- display only

``disable=CODE1,CODE2`` silences the listed codes on that line;
``disable`` with no codes silences everything on the line.  Suppressions
are deliberately line-scoped: there is no file- or block-level off
switch, so every exemption stays next to the code it excuses.
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Union

from repro.lint.findings import Finding
from repro.lint.rules import (
    ModuleContext,
    Rule,
    path_in_scope,
    select_rules,
)

#: The code attached to files that do not parse: a broken file cannot be
#: proven clean, so it is a finding, not a crash.
PARSE_ERROR_CODE = "P001"

_SUPPRESSION = re.compile(
    r"#\s*reprolint:\s*disable(?:=(?P<codes>[A-Z0-9,\s]+))?"
)

#: Marker for "every code suppressed on this line".
_ALL_CODES: FrozenSet[str] = frozenset({"*"})


@dataclass
class LintReport:
    """The outcome of one lint run: findings plus scan bookkeeping."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        """Whether the run found nothing (the gate condition)."""
        return not self.findings

    def counts(self) -> Dict[str, int]:
        """Finding count per rule code (sorted by code on render)."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts


def _suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> codes suppressed on that line.

    Parsed from the token stream, so suppression markers inside string
    literals do not count.
    """
    table: Dict[int, FrozenSet[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION.search(token.string)
            if match is None:
                continue
            codes = match.group("codes")
            if codes is None:
                table[token.start[0]] = _ALL_CODES
            else:
                parsed = frozenset(
                    code.strip()
                    for code in codes.split(",")
                    if code.strip()
                )
                existing = table.get(token.start[0], frozenset())
                table[token.start[0]] = existing | parsed
    except (tokenize.TokenError, IndentationError):
        # The AST parse will report the real problem.
        pass
    return table


def _is_suppressed(
    finding: Finding, table: Dict[int, FrozenSet[str]]
) -> bool:
    codes = table.get(finding.line)
    if codes is None:
        return False
    return codes is _ALL_CODES or "*" in codes or finding.code in codes


def check_module(
    path: str,
    tree: ast.Module,
    source: str,
    table: Dict[int, FrozenSet[str]],
    rules: Sequence[Rule],
) -> LintReport:
    """Run ``rules`` over one parsed module under ``path``'s scopes.

    ``table`` is the module's suppression table (see
    :func:`_suppressions`); the whole-program pass hands in the one it
    already built, so each file is tokenized once.
    """
    report = LintReport(files_scanned=1)
    context = ModuleContext(path=path, tree=tree, source=source)
    for rule in rules:
        if not path_in_scope(path, rule.info.scopes, rule.info.exempt):
            continue
        for finding in rule.check(context):
            if _is_suppressed(finding, table):
                report.suppressed += 1
            else:
                report.findings.append(finding)
    report.findings.sort()
    return report


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint one module's source text under ``path``'s scopes."""
    if rules is None:
        rules = select_rules(None)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        report = LintReport(files_scanned=1)
        report.findings.append(
            Finding(
                path=path,
                line=error.lineno or 1,
                column=(error.offset or 1),
                code=PARSE_ERROR_CODE,
                message=f"file does not parse: {error.msg}",
            )
        )
        return report
    return check_module(path, tree, source, _suppressions(source), rules)


def iter_python_files(
    paths: Iterable[Union[str, pathlib.Path]]
) -> List[pathlib.Path]:
    """Every ``*.py`` file under ``paths``, deduplicated and sorted.

    Missing paths raise ``FileNotFoundError`` -- a gate that silently
    lints nothing would pass vacuously.
    """
    seen = set()
    files: List[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_file():
            candidates = [path]
        elif path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        else:
            raise FileNotFoundError(f"lint target does not exist: {path}")
        for candidate in candidates:
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                files.append(candidate)
    return files


def lint_paths(
    paths: Iterable[Union[str, pathlib.Path]],
    *,
    select: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint every Python file under ``paths`` with the selected rules."""
    rules = select_rules(list(select) if select is not None else None)
    report = LintReport()
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        file_report = lint_source(
            source, file_path.as_posix(), rules=rules
        )
        report.findings.extend(file_report.findings)
        report.suppressed += file_report.suppressed
        report.files_scanned += 1
    report.findings.sort()
    return report
