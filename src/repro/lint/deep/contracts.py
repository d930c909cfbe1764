"""Contract checking over effect summaries: the E/M/S rule families.

Where the shallow rules ask "does this function's *text* mutate
something it shouldn't", these rules ask the effects pass
(:mod:`~repro.lint.deep.effects`) whether it *transitively* does --
through local aliases, helpers, registry-dispatched factories and
``functools.partial`` wrappers alike.

**E-rules -- the engine-phase and hook contracts**

* ``E001``: a backend phase implementation mutates engine state outside
  its phase's allowlist (:data:`repro.sim.backend.PHASE_MUTABLE_ATTRS`).
  Applies to every class that subclasses ``EngineBackend`` -- by base
  chain or by the ``*Backend``-with-phase-methods convention, so future
  registered backends and test fixtures are covered without imports.
* ``E002``: a phase body mutates a payload parameter that is not a
  documented out-parameter (:data:`repro.sim.backend.PHASE_OUT_PARAMS`);
  ``observe``/``compute`` handing back a mutated observation map is the
  canonical silent-corruption bug.
* ``E003``: an observer ``on_*`` hook transitively mutates its payload
  -- the interprocedural truth behind the syntactic H001, closing its
  local-alias blind spot (``rr = payload; rr.robots.clear()``).
* ``E004``: a phase performs I/O; phase bodies are deterministic
  simulation code and must not touch the outside world.

**M-rules -- fork-boundary capture discipline**

* ``M001``: inside the runner modules, an object captured by a work
  unit (``pool.submit(fn, captured, ...)``) is mutated -- directly or
  via a summarized callee -- by a later statement of the same function.
  Forked workers hold a snapshot; the parent-side mutation silently
  diverges from what the worker computes against.  This is the gap the
  module-global F001 rule cannot see.

**S-rules -- the digest-stability contract**

* ``S001``: a defaulted spec field outside the format-v1 baseline set
  (:data:`repro.sim.spec.SPEC_BASELINE_FIELDS`) is serialized
  unconditionally in ``to_dict`` -- every pre-existing spec document and
  content digest would drift.
* ``S002``: a spec field never reaches ``to_dict`` at all, so two specs
  differing only in it share a digest (and a run-store entry).

All findings carry a location-free fingerprint, ``CODE|qualname|subject``,
so ``repro lint`` reports each identity once.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.deep.callgraph import CallGraph, _Resolver, iter_own_nodes
from repro.lint.deep.concurrency import FORK_SCOPE
from repro.lint.deep.effects import (
    MUTATOR_METHODS,
    EffectKey,
    FunctionEffects,
    _bind_arguments,
    _peel,
    witness_chain,
)
from repro.lint.deep.modindex import ClassInfo, FunctionInfo, ProjectIndex
from repro.lint.findings import Finding
from repro.lint.hookrules import _is_observer_class
from repro.lint.rules import path_in_scope
from repro.sim.backend import PHASE_MUTABLE_ATTRS, PHASE_OUT_PARAMS
from repro.sim.spec import DIGEST_EXEMPT_FIELDS, SPEC_BASELINE_FIELDS

#: The backend phase primitives the E-rules govern.
PHASE_METHODS: Tuple[str, ...] = tuple(PHASE_MUTABLE_ATTRS)

#: Modules holding spec classes whose ``to_dict`` is digest material.
SPEC_SCOPE: Tuple[str, ...] = ("sim/spec.py",)

#: Pool-submission methods whose arguments cross the fork boundary.
SUBMIT_METHODS = frozenset({"submit", "apply_async", "map_async"})


def check_contracts(
    graph: CallGraph, summaries: Dict[str, FunctionEffects]
) -> List[Tuple[Finding, str]]:
    """Every E/M/S finding (with its fingerprint) in the tree."""
    results: List[Tuple[Finding, str]] = []
    results.extend(_check_backend_phases(graph, summaries))
    results.extend(_check_observer_hooks(graph, summaries))
    results.extend(_check_capture_mutation(graph, summaries))
    results.extend(_check_spec_serialization(graph.index))
    results.sort(key=lambda pair: (pair[0].path, pair[0].line, pair[0].code))
    return results


# ----------------------------------------------------------------------
# E-rules: backend phases and observer hooks
# ----------------------------------------------------------------------


def _base_chain_names(
    cls: ClassInfo, resolver: _Resolver, seen: Optional[Set[str]] = None
) -> Set[str]:
    """Last-segment names of every (transitively reachable) base.

    Unresolvable bases still contribute their written name, so a fixture
    ``class MyBackend(EngineBackend)`` matches without importing the
    real base class.
    """
    seen = set() if seen is None else seen
    if cls.qualname in seen:
        return set()
    seen.add(cls.qualname)
    names: Set[str] = set()
    for base in cls.bases:
        names.add(base.rpartition(".")[2])
        resolved = resolver.resolve(cls.module, base)
        if (
            resolved is not None
            and resolved[0] == "class"
            and isinstance(resolved[1], ClassInfo)
        ):
            names |= _base_chain_names(resolved[1], resolver, seen)
    return names


def _is_backend_class(cls: ClassInfo, resolver: _Resolver) -> bool:
    bases = _base_chain_names(cls, resolver)
    if "EngineBackend" in bases or cls.node.name == "EngineBackend":
        return False if cls.node.name == "EngineBackend" else True
    convention = cls.node.name.endswith("Backend") or any(
        name.endswith("Backend") for name in bases
    )
    return convention and any(
        name in cls.methods for name in PHASE_METHODS
    )


def _engine_state_attr(path: Tuple[str, ...]) -> Optional[str]:
    """The engine attribute a ``self``-rooted mutation path touches.

    Backends reach engine state as ``self.engine.<attr>`` (the property)
    or ``self._engine.<attr>``; anything else rooted at ``self`` is
    backend-private cache and always allowed.
    """
    if not path or path[0] not in ("engine", "_engine"):
        return None
    return path[1] if len(path) > 1 else "*"


def _finding_site(
    graph: CallGraph,
    summaries: Dict[str, FunctionEffects],
    qualname: str,
    key: EffectKey,
) -> Tuple[str, int, int, str]:
    """``(path, line, col, chain text)`` for an effect of ``qualname``."""
    function = graph.index.functions[qualname]
    effects = summaries[qualname]
    witness = effects.effects[key]
    chain, direct = witness_chain(summaries, qualname, key)
    rendered = " -> ".join(chain)
    if direct is not None and len(chain) > 1:
        leaf = graph.index.functions.get(chain[-1])
        where = (
            f"{leaf.module.display_path}:{direct.lineno}"
            if leaf is not None
            else f"line {direct.lineno}"
        )
        rendered += f" ({direct.detail} at {where})"
    elif direct is not None:
        rendered += f" ({direct.detail})"
    return (
        function.module.display_path,
        witness.lineno,
        witness.col,
        rendered,
    )


def _check_backend_phases(
    graph: CallGraph, summaries: Dict[str, FunctionEffects]
) -> Iterator[Tuple[Finding, str]]:
    resolver = _Resolver(graph.index)
    for cls in graph.index.classes.values():
        if not _is_backend_class(cls, resolver):
            continue
        for phase in PHASE_METHODS:
            method = cls.methods.get(phase)
            if method is None:
                continue
            effects = summaries.get(method.qualname)
            if effects is None:
                continue
            allowed = PHASE_MUTABLE_ATTRS.get(phase, frozenset())
            out_params = PHASE_OUT_PARAMS.get(phase, frozenset())
            for key in sorted(effects.effects):
                if key[0] == "io":
                    path, line, col, chain = _finding_site(
                        graph, summaries, method.qualname, key
                    )
                    yield (
                        Finding(
                            path=path,
                            line=line,
                            column=col,
                            code="E004",
                            message=(
                                f"backend phase `{phase}` performs I/O "
                                f"({key[1]}); phase bodies are "
                                "deterministic simulation code -- chain: "
                                f"{chain}"
                            ),
                        ),
                        f"E004|{method.qualname}|{key[1]}",
                    )
                    continue
                if key[0] != "mut":
                    continue
                index, mut_path = key[1], key[2]
                if index == 0:
                    state = _engine_state_attr(mut_path)
                    if state is None or state in allowed:
                        continue
                    path, line, col, chain = _finding_site(
                        graph, summaries, method.qualname, key
                    )
                    allowed_text = (
                        ", ".join(sorted(allowed)) if allowed else "none"
                    )
                    yield (
                        Finding(
                            path=path,
                            line=line,
                            column=col,
                            code="E001",
                            message=(
                                f"backend phase `{phase}` mutates engine "
                                f"state `{state}` outside the phase "
                                f"contract (allowed: {allowed_text}) -- "
                                f"chain: {chain}"
                            ),
                        ),
                        f"E001|{method.qualname}|{state}",
                    )
                    continue
                param = (
                    effects.params[index]
                    if index < len(effects.params)
                    else f"arg{index}"
                )
                if param in out_params:
                    continue
                path, line, col, chain = _finding_site(
                    graph, summaries, method.qualname, key
                )
                yield (
                    Finding(
                        path=path,
                        line=line,
                        column=col,
                        code="E002",
                        message=(
                            f"backend phase `{phase}` mutates its "
                            f"`{param}` payload parameter; only "
                            "documented out-parameters may be written "
                            f"-- chain: {chain}"
                        ),
                    ),
                    f"E002|{method.qualname}|{param}",
                )


def _check_observer_hooks(
    graph: CallGraph, summaries: Dict[str, FunctionEffects]
) -> Iterator[Tuple[Finding, str]]:
    for cls in graph.index.classes.values():
        if not _is_observer_class(cls.node):
            continue
        for name, method in sorted(cls.methods.items()):
            if not name.startswith("on_"):
                continue
            effects = summaries.get(method.qualname)
            if effects is None:
                continue
            reported: Set[str] = set()
            for key in sorted(effects.effects):
                if key[0] != "mut" or key[1] == 0:
                    continue
                index = key[1]
                param = (
                    effects.params[index]
                    if index < len(effects.params)
                    else f"arg{index}"
                )
                if param in reported:
                    continue
                reported.add(param)
                path, line, col, chain = _finding_site(
                    graph, summaries, method.qualname, key
                )
                yield (
                    Finding(
                        path=path,
                        line=line,
                        column=col,
                        code="E003",
                        message=(
                            f"observer hook `{name}` transitively "
                            f"mutates its `{param}` payload; observers "
                            "must not mutate engine state -- chain: "
                            f"{chain}"
                        ),
                    ),
                    f"E003|{method.qualname}|{param}",
                )


# ----------------------------------------------------------------------
# M-rules: mutation after fork-boundary capture
# ----------------------------------------------------------------------


def _captured_names(call: ast.Call) -> Set[str]:
    """Bare-name arguments a submission call captures for the worker."""
    names: Set[str] = set()
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        if isinstance(arg, ast.Name):
            names.add(arg.id)
    return names


def _direct_mutation_root(node: ast.AST) -> Optional[str]:
    """The root name a statement-level node mutates in place, if any."""
    targets: List[ast.AST] = []
    if isinstance(node, ast.Assign):
        targets = [
            t
            for t in node.targets
            if isinstance(t, (ast.Attribute, ast.Subscript))
        ]
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        if isinstance(node.target, (ast.Attribute, ast.Subscript)):
            targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = [
            t
            for t in node.targets
            if isinstance(t, (ast.Attribute, ast.Subscript))
        ]
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATOR_METHODS
    ):
        targets = [node.func.value]
    for target in targets:
        peeled = _peel(target)
        if peeled is not None:
            return peeled[0]
    return None


def _check_capture_mutation(
    graph: CallGraph, summaries: Dict[str, FunctionEffects]
) -> Iterator[Tuple[Finding, str]]:
    for function in list(graph.index.functions.values()):
        module = function.module
        if not path_in_scope(module.display_path, FORK_SCOPE, ()):
            continue
        if not isinstance(
            function.node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
        ):
            continue
        nodes = sorted(
            iter_own_nodes(function.node),
            key=lambda n: (
                getattr(n, "lineno", 0),
                getattr(n, "col_offset", 0),
            ),
        )
        submits: List[Tuple[int, Set[str]]] = []
        for node in nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SUBMIT_METHODS
            ):
                captured = _captured_names(node)
                if captured:
                    submits.append((node.lineno, captured))
        if not submits:
            continue
        yield from _mutations_after_submit(
            graph, summaries, function, nodes, submits
        )


def _mutations_after_submit(
    graph: CallGraph,
    summaries: Dict[str, FunctionEffects],
    function: FunctionInfo,
    nodes: List[ast.AST],
    submits: List[Tuple[int, Set[str]]],
) -> Iterator[Tuple[Finding, str]]:
    module = function.module
    reported: Set[str] = set()

    def live_captures(lineno: int) -> Set[str]:
        names: Set[str] = set()
        for submit_line, captured in submits:
            if lineno > submit_line:
                names |= captured
        return names

    # Direct in-place mutation of a captured name.
    for node in nodes:
        captured = live_captures(getattr(node, "lineno", 0))
        if not captured:
            continue
        root = _direct_mutation_root(node)
        if root in captured and root not in reported:
            reported.add(root)
            yield (
                Finding(
                    path=module.display_path,
                    line=node.lineno,
                    column=node.col_offset + 1,
                    code="M001",
                    message=(
                        f"`{root}` is mutated after being captured by a "
                        "submitted work unit; forked workers hold a "
                        "snapshot, so the mutation silently diverges "
                        "from what the worker computes against"
                    ),
                ),
                f"M001|{function.qualname}|{root}",
            )
    # Transitive mutation: a later call hands the captured name to a
    # callee whose summary mutates the bound parameter.
    for callee_name in sorted(graph.callees(function.qualname)):
        callee = summaries.get(callee_name)
        if callee is None:
            continue
        for call, kind in graph.call_exprs.get(
            (function.qualname, callee_name), ()
        ):
            captured = live_captures(call.lineno)
            if not captured:
                continue
            binding = _bind_arguments(call, kind, callee.params)
            for index, _path in callee.mutated_params():
                argument = binding.get(index)
                if not isinstance(argument, ast.Name):
                    continue
                root = argument.id
                if root not in captured or root in reported:
                    continue
                reported.add(root)
                chain, _direct = witness_chain(
                    summaries, callee_name, ("mut", index, _path)
                )
                rendered = " -> ".join([function.qualname] + chain)
                yield (
                    Finding(
                        path=module.display_path,
                        line=call.lineno,
                        column=call.col_offset + 1,
                        code="M001",
                        message=(
                            f"`{root}` is mutated (via {rendered}) "
                            "after being captured by a submitted work "
                            "unit; forked workers hold a snapshot, so "
                            "the mutation silently diverges from what "
                            "the worker computes against"
                        ),
                    ),
                    f"M001|{function.qualname}|{root}",
                )


# ----------------------------------------------------------------------
# S-rules: spec serialization / digest stability
# ----------------------------------------------------------------------


def _spec_fields(cls: ClassInfo) -> List[Tuple[str, bool, int]]:
    """``(name, has_default, lineno)`` per annotated dataclass field."""
    fields: List[Tuple[str, bool, int]] = []
    for stmt in cls.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            fields.append(
                (stmt.target.id, stmt.value is not None, stmt.lineno)
            )
    return fields


def _emitted_keys(method: ast.AST) -> Tuple[Set[str], Set[str]]:
    """``(unconditional, any)`` serialized keys in a ``to_dict`` body.

    A key counts as emitted where a dict literal carries it or a
    ``data["key"] = ...`` store assigns it; "unconditional" means the
    statement sits at the method body's top level -- anything nested
    under ``if``/loops/``try`` is treated as guarded.
    """
    unconditional: Set[str] = set()
    emitted: Set[str] = set()

    def keys_in(node: ast.AST) -> Iterator[str]:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Dict):
                for key in sub.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        yield key.value
            elif isinstance(sub, ast.Subscript) and isinstance(
                sub.ctx, ast.Store
            ):
                index = sub.slice
                if isinstance(index, ast.Constant) and isinstance(
                    index.value, str
                ):
                    yield index.value

    def visit(stmt: ast.AST, conditional: bool) -> None:
        if isinstance(stmt, (ast.If, ast.For, ast.While, ast.Try)):
            for child in ast.iter_child_nodes(stmt):
                visit(child, True)
            return
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return
        for key in keys_in(stmt):
            emitted.add(key)
            if not conditional:
                unconditional.add(key)

    for stmt in getattr(method, "body", []):
        visit(stmt, False)
    return unconditional, emitted


def _referenced_fields(method: ast.AST) -> Set[str]:
    """Every ``self.<attr>`` read anywhere inside ``to_dict``."""
    found: Set[str] = set()
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            found.add(node.attr)
    return found


def _check_spec_serialization(
    index: ProjectIndex,
) -> Iterator[Tuple[Finding, str]]:
    for cls in index.classes.values():
        if not path_in_scope(cls.module.display_path, SPEC_SCOPE, ()):
            continue
        to_dict = cls.methods.get("to_dict")
        if to_dict is None:
            continue
        fields = _spec_fields(cls)
        if not fields:
            continue
        baseline = SPEC_BASELINE_FIELDS.get(cls.node.name, frozenset())
        exempt = DIGEST_EXEMPT_FIELDS.get(cls.node.name, frozenset())
        unconditional, emitted = _emitted_keys(to_dict.node)
        referenced = _referenced_fields(to_dict.node)
        for name, has_default, lineno in fields:
            if name in exempt:
                continue
            if (
                has_default
                and name in unconditional
                and name not in baseline
            ):
                yield (
                    Finding(
                        path=cls.module.display_path,
                        line=lineno,
                        column=1,
                        code="S001",
                        message=(
                            f"spec field `{cls.node.name}.{name}` has a "
                            "default but is serialized unconditionally "
                            "in to_dict; emit it behind an `if "
                            f"self.{name} ...` guard so pre-existing "
                            "documents and content digests stay "
                            "byte-identical"
                        ),
                    ),
                    f"S001|{cls.qualname}|{name}",
                )
            if name not in emitted and name not in referenced:
                yield (
                    Finding(
                        path=cls.module.display_path,
                        line=lineno,
                        column=1,
                        code="S002",
                        message=(
                            f"spec field `{cls.node.name}.{name}` never "
                            "reaches to_dict; two specs differing only "
                            "in it would share a digest (and a run-store "
                            "entry)"
                        ),
                    ),
                    f"S002|{cls.qualname}|{name}",
                )
