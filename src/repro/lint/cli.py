"""The ``repro lint`` command line (also ``python -m repro.lint``).

One pass runs every rule -- the shallow per-file families and the
whole-program ones -- and prints one report.  Exit codes follow the
convention of every other gate in CI: ``0`` for a clean tree, ``1`` when
findings exist, ``2`` for usage errors (unknown rule selector, missing
path) *and* for internal analysis failures -- so a misconfigured or
crashing invocation can never masquerade as a passing gate.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import List, Optional

from repro.lint.deep.analysis import run_lint
from repro.lint.reporters import (
    render_json,
    render_rule_catalogue,
    render_text,
)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: per-file rules "
        "scan src tests benchmarks, whole-program rules scan src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the schema-stable JSON report instead of text",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes or families to run "
        "(e.g. 'D' or 'D001,T'); default: all rules",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed arguments."""
    if args.list_rules:
        print(render_rule_catalogue())
        return 0
    select = args.select.split(",") if args.select else None
    try:
        report = run_lint(args.paths or None, select=select)
    except (FileNotFoundError, ValueError) as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    except Exception:
        # An analyzer crash is an infrastructure failure, not a clean
        # tree; exit 2 so CI distinguishes it from both outcomes.
        traceback.print_exc()
        print("repro lint: internal error in the analysis", file=sys.stderr)
        return 2
    print(render_json(report) if args.json else render_text(report))
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
