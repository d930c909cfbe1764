"""Whole-program analysis: the rules that need every module at once.

``repro lint`` runs these beside the shallow per-file rules in one pass
(:func:`~repro.lint.deep.analysis.run_lint`).  Layers, bottom to top:

* :mod:`~repro.lint.deep.modindex` -- parse every module once, index
  definitions, imports, aliases and registry dicts;
* :mod:`~repro.lint.deep.callgraph` -- resolve calls (including
  ``self.`` dispatch, re-exports and registry factories) into a
  whole-program call graph;
* :mod:`~repro.lint.deep.taint` -- seed nondeterminism sources and
  trace every call chain from the deterministic core to one (T001);
* :mod:`~repro.lint.deep.concurrency` -- fork-safety checks on the
  runner modules (F001-F003);
* :mod:`~repro.lint.deep.effects` -- per-function side-effect summaries
  (parameter mutation, global writes, I/O) propagated through the call
  graph to a fixpoint;
* :mod:`~repro.lint.deep.contracts` -- the E/M/S contract rules
  evaluated over those summaries;
* :mod:`~repro.lint.deep.robotmodel` -- the A rule family: robot-model
  conformance of algorithm classes;
* :mod:`~repro.lint.deep.analysis` -- the one pass the CLI calls: one
  index, one call graph, one set of effect summaries, one report.

The gate is zero findings; there is no accepted-findings snapshot.
"""

from repro.lint.deep.analysis import DEEP_DEFAULT_PATHS, run_lint
from repro.lint.deep.contracts import check_contracts
from repro.lint.deep.robotmodel import check_robot_model
from repro.lint.deep.effects import (
    FunctionEffects,
    Witness,
    infer_effects,
    witness_chain,
)
from repro.lint.deep.callgraph import CallGraph, CallSite, build_call_graph
from repro.lint.deep.modindex import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    build_index,
    module_name_for,
)
from repro.lint.deep.taint import (
    CORE_PATHS,
    Seed,
    TaintPath,
    collect_seeds,
    trace_taint_paths,
)

__all__ = [
    "CORE_PATHS",
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "DEEP_DEFAULT_PATHS",
    "FunctionEffects",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "Seed",
    "TaintPath",
    "Witness",
    "build_call_graph",
    "build_index",
    "check_contracts",
    "check_robot_model",
    "collect_seeds",
    "infer_effects",
    "module_name_for",
    "run_lint",
    "trace_taint_paths",
    "witness_chain",
]
