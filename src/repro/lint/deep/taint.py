"""Nondeterminism taint propagation along the call graph.

The shallow D-rules flag nondeterminism *sources* (wall-clock reads,
unseeded RNG, environment lookups) written directly inside the
deterministic core.  This pass closes the remaining gap: a helper in
any other module may contain such a source, and one innocent-looking
call from ``sim/spec.py`` is enough to leak it into a digest.

Seeds are collected per function body using the same detection logic as
the shallow rules -- and two additional ordering sources the per-file
rules deliberately leave to whole-program analysis, because they only
matter when the iteration result flows onward:

* filesystem enumeration order (``os.listdir``, ``os.scandir``,
  ``glob.glob``/``iglob``, ``Path.iterdir``/``glob``/``rglob``) unless
  the call is wrapped directly in ``sorted(...)``;
* iteration over a set display or ``set(...)``/``frozenset(...)`` call,
  whose order varies with interpreter hash randomization;
* builtin ``hash(...)``, which ``PYTHONHASHSEED`` perturbs.

A seed on a line carrying the matching shallow suppression
(``# reprolint: disable=D001`` for a wall-clock read, ``C003`` for a
builtin hash, ...) is treated as audited and does not taint -- that is
what keeps :mod:`repro.sim.store`'s three justified exemptions from
resurfacing as T001 findings.  ``disable=T001`` (or a bare
``disable``) works both on the seed line and on the root call-site line
of a reported chain.

:func:`trace_taint_paths` then runs a forward BFS from every function
defined in the deterministic core (``sim/engine.py``,
``sim/algorithm.py``, the engine backends in ``sim/backend.py`` /
``sim/backend_vectorized.py``, and the digest path in ``sim/spec.py`` /
``sim/store.py``) and reports, per (core function, seeded function)
pair, the shortest call chain connecting them.  Direct in-function
seeds (chain of length zero) are the shallow rules' business and are
not re-reported here.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.lint.deep.callgraph import CallGraph, CallSite, iter_own_nodes
from repro.lint.deep.modindex import FunctionInfo, _dotted
from repro.lint.determinism import GLOBAL_RANDOM_CALLS, WALL_CLOCK_CALLS
from repro.lint.rules import path_in_scope

#: The deterministic core: every function defined in these modules is a
#: taint root the propagator traces forward from.
CORE_PATHS: Tuple[str, ...] = (
    "sim/engine.py",
    "sim/algorithm.py",
    "sim/backend.py",
    "sim/backend_vectorized.py",
    "sim/spec.py",
    "sim/store.py",
)

#: Dotted call targets whose result order follows directory layout.
FS_ORDER_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)

#: Path-object methods with filesystem-dependent result order.
FS_ORDER_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Seed kind -> the shallow rule code whose line suppression clears it.
#: Kinds absent here (ordering seeds) have no shallow counterpart and
#: can only be cleared with ``disable=T001``.
SEED_SHALLOW_CODE: Dict[str, str] = {
    "wall_clock": "D001",
    "unseeded_rng": "D002",
    "env_read": "D003",
    "builtin_hash": "C003",
}

TAINT_CODE = "T001"


@dataclass(frozen=True)
class Seed:
    """One nondeterminism source found inside a function body."""

    kind: str
    detail: str
    lineno: int
    col: int

    @property
    def label(self) -> str:
        """Human phrasing used in taint-path finding messages."""
        noun = {
            "wall_clock": "wall-clock read",
            "unseeded_rng": "unseeded randomness",
            "env_read": "environment read",
            "fs_order": "filesystem-order iteration",
            "set_iteration": "set-order iteration",
            "builtin_hash": "builtin hash()",
        }[self.kind]
        return f"{noun} `{self.detail}`"


@dataclass(frozen=True)
class TaintPath:
    """One shortest call chain from a core function to a seeded one."""

    chain: Tuple[str, ...]
    seed: Seed
    #: where the chain's first call appears inside the root function
    site: CallSite
    #: display path of the file holding the root function
    root_path: str
    #: display path of the file holding the seed
    seed_path: str

    @property
    def fingerprint(self) -> str:
        """Location-free identity: one report per distinct path."""
        return "|".join(
            (TAINT_CODE, "->".join(self.chain), self.seed.kind,
             self.seed.detail)
        )

    @property
    def message(self) -> str:
        """The full-chain finding message (format is pinned by tests)."""
        return (
            f"deterministic core reaches {self.seed.label}: "
            + " -> ".join(self.chain)
            + f"; source at {self.seed_path}:{self.seed.lineno}"
        )


def _line_suppressed(
    table: Dict[int, FrozenSet[str]], lineno: int, codes: Iterable[str]
) -> bool:
    active = table.get(lineno)
    if active is None:
        return False
    return "*" in active or any(code in active for code in codes)


def _sorted_wrapped(nodes: Iterable[ast.AST]) -> Set[int]:
    """ids of Call nodes appearing directly as a ``sorted(...)`` arg."""
    wrapped: Set[int] = set()
    for node in nodes:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
        ):
            for arg in node.args:
                if isinstance(arg, ast.Call):
                    wrapped.add(id(arg))
    return wrapped


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Set):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _call_seed(node: ast.Call) -> Optional[Tuple[str, str]]:
    """(kind, detail) when a call expression is itself a seed."""
    if isinstance(node.func, ast.Name) and node.func.id == "hash":
        return ("builtin_hash", "hash")
    dotted = _dotted(node.func)
    if dotted is None:
        return None
    if dotted in WALL_CLOCK_CALLS:
        return ("wall_clock", dotted)
    if dotted.startswith("random.") and (
        dotted.split(".", 1)[1] in GLOBAL_RANDOM_CALLS
    ):
        return ("unseeded_rng", dotted)
    if dotted == "random.Random" and not (node.args or node.keywords):
        return ("unseeded_rng", dotted)
    if dotted.startswith(("numpy.random.", "np.random.")):
        return ("unseeded_rng", dotted)
    if dotted in ("os.getenv", "os.environb.get"):
        return ("env_read", dotted)
    if dotted in FS_ORDER_CALLS:
        return ("fs_order", dotted)
    return None


def collect_seeds(function: FunctionInfo) -> List[Seed]:
    """Every nondeterminism source written directly in ``function``.

    Nested defs and lambdas are excluded -- they are their own
    call-graph nodes and collect their own seeds.
    """
    own = list(iter_own_nodes(function.node))
    sorted_wrapped = _sorted_wrapped(own)
    seeds: List[Seed] = []

    def add(kind: str, detail: str, node: ast.AST) -> None:
        seeds.append(
            Seed(
                kind=kind,
                detail=detail,
                lineno=getattr(node, "lineno", function.lineno),
                col=getattr(node, "col_offset", 0) + 1,
            )
        )

    for node in own:
        if isinstance(node, ast.Call):
            found = _call_seed(node)
            if found is not None:
                kind, detail = found
                if kind == "fs_order" and id(node) in sorted_wrapped:
                    continue
                add(kind, detail, node)
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in FS_ORDER_METHODS
                and _dotted(node.func) is None  # not glob.glob etc.
                and id(node) not in sorted_wrapped
            ):
                add("fs_order", f".{node.func.attr}", node)
        elif isinstance(node, ast.Attribute) and node.attr == "environ":
            if _dotted(node) == "os.environ":
                add("env_read", "os.environ", node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter):
                add("set_iteration", "for-over-set", node.iter)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for comp in node.generators:
                if _is_set_expr(comp.iter):
                    add("set_iteration", "for-over-set", comp.iter)
    return seeds


@dataclass
class TaintResult:
    """Taint paths plus bookkeeping for the report's suppression count."""

    paths: List[TaintPath]
    suppressed_seeds: int


def trace_taint_paths(
    graph: CallGraph,
    core_paths: Tuple[str, ...] = CORE_PATHS,
) -> TaintResult:
    """All shortest core-to-seed call chains of length >= 1 edge."""
    suppressed_seeds = 0
    seeded: Dict[str, List[Seed]] = {}
    for qualname, function in graph.index.functions.items():
        table = function.module.suppressions
        kept: List[Seed] = []
        for seed in collect_seeds(function):
            codes = [TAINT_CODE]
            shallow = SEED_SHALLOW_CODE.get(seed.kind)
            if shallow is not None:
                codes.append(shallow)
            if _line_suppressed(table, seed.lineno, codes):
                suppressed_seeds += 1
            else:
                kept.append(seed)
        if kept:
            seeded[qualname] = kept

    roots = [
        function
        for function in graph.index.functions.values()
        if path_in_scope(function.module.display_path, core_paths, ())
    ]
    paths: List[TaintPath] = []
    for root in sorted(roots, key=lambda f: f.qualname):
        paths.extend(_paths_from_root(graph, root, seeded))
    paths.sort(key=lambda p: (p.root_path, p.site.lineno, p.fingerprint))
    return TaintResult(paths=paths, suppressed_seeds=suppressed_seeds)


def _paths_from_root(
    graph: CallGraph,
    root: FunctionInfo,
    seeded: Dict[str, List[Seed]],
) -> List[TaintPath]:
    """BFS from ``root``; one shortest path per reachable seeded node."""
    parents: Dict[str, Optional[str]] = {root.qualname: None}
    order: List[str] = []
    queue = deque([root.qualname])
    while queue:
        current = queue.popleft()
        order.append(current)
        for callee in sorted(graph.callees(current)):
            if callee not in parents:
                parents[callee] = current
                queue.append(callee)
    paths: List[TaintPath] = []
    for qualname in order:
        if qualname == root.qualname or qualname not in seeded:
            continue
        chain: List[str] = []
        cursor: Optional[str] = qualname
        while cursor is not None:
            chain.append(cursor)
            cursor = parents[cursor]
        chain.reverse()
        site = graph.callees(chain[0]).get(chain[1])
        if site is None:  # pragma: no cover - BFS edge always recorded
            site = CallSite(root.lineno, 1)
        seed_function = graph.index.functions[qualname]
        for seed in sorted(
            seeded[qualname], key=lambda s: (s.lineno, s.col, s.detail)
        ):
            paths.append(
                TaintPath(
                    chain=tuple(chain),
                    seed=seed,
                    site=site,
                    root_path=root.module.display_path,
                    seed_path=seed_function.module.display_path,
                )
            )
    return paths
