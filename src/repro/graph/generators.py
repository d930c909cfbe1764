"""Generators for the graph families used in tests, examples and benchmarks.

Every generator returns a :class:`~repro.graph.snapshot.GraphSnapshot`.
Pass ``rng`` to randomize the port labelling (the anonymous-graph model puts
no constraint on how a node numbers its ports); omit it for a deterministic
canonical labelling.

The random families (``random_tree``, ``random_connected_graph``) are the
stock workloads of the benchmark harness; the structured families (paths,
stars, grids, cliques...) appear in the paper's constructions: Figure 1 uses
a path glued to an arbitrary connected subgraph, Figure 2 uses two stars
joined at their centers, and Theorem 2 uses a clique of occupied nodes glued
to a connected graph of empty nodes.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.snapshot import GraphSnapshot

EdgeList = List[Tuple[int, int]]


def _snapshot(
    n: int, edges: Iterable[Tuple[int, int]], rng: Optional[random.Random]
) -> GraphSnapshot:
    return GraphSnapshot.from_edges(n, edges, rng=rng)


def path_graph(n: int, *, rng: Optional[random.Random] = None) -> GraphSnapshot:
    """A path on ``n`` nodes: ``0 - 1 - ... - n-1``."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return _snapshot(n, [(i, i + 1) for i in range(n - 1)], rng)


def cycle_graph(n: int, *, rng: Optional[random.Random] = None) -> GraphSnapshot:
    """A cycle (ring) on ``n >= 3`` nodes."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return _snapshot(n, edges, rng)


def star_graph(
    n: int, *, center: int = 0, rng: Optional[random.Random] = None
) -> GraphSnapshot:
    """A star on ``n`` nodes with the given center node."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    if not 0 <= center < n:
        raise ValueError(f"center {center} out of range")
    edges = [(center, v) for v in range(n) if v != center]
    return _snapshot(n, edges, rng)


def complete_graph(n: int, *, rng: Optional[random.Random] = None) -> GraphSnapshot:
    """The clique ``K_n``."""
    if n < 1:
        raise ValueError("clique needs n >= 1")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return _snapshot(n, edges, rng)


def grid_graph(
    rows: int, cols: int, *, rng: Optional[random.Random] = None
) -> GraphSnapshot:
    """A ``rows x cols`` grid; node ``(r, c)`` has index ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs rows, cols >= 1")
    edges: EdgeList = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return _snapshot(rows * cols, edges, rng)


def torus_graph(
    rows: int, cols: int, *, rng: Optional[random.Random] = None
) -> GraphSnapshot:
    """A ``rows x cols`` torus (grid with wraparound); needs both dims >= 3."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs rows, cols >= 3")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            edges.add((min(v, right), max(v, right)))
            edges.add((min(v, down), max(v, down)))
    return _snapshot(rows * cols, sorted(edges), rng)


def hypercube_graph(
    dimension: int, *, rng: Optional[random.Random] = None
) -> GraphSnapshot:
    """The ``dimension``-dimensional hypercube on ``2**dimension`` nodes."""
    if dimension < 1:
        raise ValueError("hypercube needs dimension >= 1")
    n = 1 << dimension
    edges = [
        (v, v ^ (1 << bit)) for v in range(n) for bit in range(dimension)
        if v < v ^ (1 << bit)
    ]
    return _snapshot(n, edges, rng)


def lollipop_graph(
    clique_size: int, path_length: int, *, rng: Optional[random.Random] = None
) -> GraphSnapshot:
    """A clique on ``clique_size`` nodes with a path of ``path_length`` nodes
    attached to clique node 0 (a classic hard case for walk-based methods)."""
    if clique_size < 1 or path_length < 0:
        raise ValueError("lollipop needs clique_size >= 1, path_length >= 0")
    edges = [
        (u, v) for u in range(clique_size) for v in range(u + 1, clique_size)
    ]
    prev = 0
    for i in range(path_length):
        node = clique_size + i
        edges.append((prev, node))
        prev = node
    return _snapshot(clique_size + path_length, edges, rng)


def barbell_graph(
    clique_size: int, bridge_length: int, *, rng: Optional[random.Random] = None
) -> GraphSnapshot:
    """Two cliques of ``clique_size`` nodes joined by a path of
    ``bridge_length`` intermediate nodes."""
    if clique_size < 1 or bridge_length < 0:
        raise ValueError("barbell needs clique_size >= 1, bridge_length >= 0")
    n = 2 * clique_size + bridge_length
    edges = [
        (u, v) for u in range(clique_size) for v in range(u + 1, clique_size)
    ]
    offset = clique_size + bridge_length
    edges += [
        (offset + u, offset + v)
        for u in range(clique_size)
        for v in range(u + 1, clique_size)
    ]
    chain = [0] + [clique_size + i for i in range(bridge_length)] + [offset]
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return _snapshot(n, edges, rng)


def random_tree(n: int, rng: random.Random) -> GraphSnapshot:
    """A uniformly random labelled tree (random Prüfer-like attachment)."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    edges: EdgeList = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    return _snapshot(n, edges, rng)


def random_spanning_tree_edges(
    n: int, rng: random.Random
) -> Set[Tuple[int, int]]:
    """The ``(min, max)`` edge set of a random spanning tree on ``0..n-1``:
    nodes are shuffled and each attaches to a uniformly drawn earlier one."""
    edge_set: Set[Tuple[int, int]] = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[rng.randrange(i)]
        v = order[i]
        edge_set.add((min(u, v), max(u, v)))
    return edge_set


def add_random_chords(
    edge_set: Set[Tuple[int, int]],
    n: int,
    extra_edges: int,
    rng: random.Random,
) -> None:
    """Add up to ``extra_edges`` new uniformly drawn edges to ``edge_set``.

    Each draw is two ``rng.randrange(n)`` calls; self-loops and edges
    already present are redrawn, and sampling gives up after
    ``50 * (budget + 1)`` draws so a near-complete graph cannot spin.
    """
    max_edges = n * (n - 1) // 2
    budget = min(extra_edges, max_edges - len(edge_set))
    attempts = 0
    while budget > 0 and attempts < 50 * (budget + 1):
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in edge_set:
            continue
        edge_set.add(key)
        budget -= 1


def random_connected_graph(
    n: int, extra_edges: int, rng: random.Random
) -> GraphSnapshot:
    """A random connected graph: random spanning tree plus ``extra_edges``
    distinct random non-tree edges (fewer if the graph saturates)."""
    if n < 1:
        raise ValueError("graph needs n >= 1")
    edge_set = random_spanning_tree_edges(n, rng)
    add_random_chords(edge_set, n, extra_edges, rng)
    return _snapshot(n, sorted(edge_set), rng)


def random_regularish_graph(
    n: int, target_degree: int, rng: random.Random
) -> GraphSnapshot:
    """A connected graph where nodes aim for ``target_degree`` neighbors.

    Built as a spanning cycle plus random chords; degrees concentrate near
    the target without the cost of exact regular-graph sampling.
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    if target_degree < 2:
        raise ValueError("target_degree must be >= 2")
    edge_set = {(i, (i + 1) % n) for i in range(n)}
    edge_set = {(min(u, v), max(u, v)) for u, v in edge_set}
    degree = [2] * n
    wanted = max(0, (target_degree - 2) * n // 2)
    attempts = 0
    while wanted > 0 and attempts < 100 * n:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or degree[u] >= target_degree or degree[v] >= target_degree:
            continue
        key = (min(u, v), max(u, v))
        if key in edge_set:
            continue
        edge_set.add(key)
        degree[u] += 1
        degree[v] += 1
        wanted -= 1
    return _snapshot(n, sorted(edge_set), rng)


def two_stars_graph(
    center_a: int,
    leaves_a: Sequence[int],
    center_b: int,
    leaves_b: Sequence[int],
    n: int,
    *,
    rng: Optional[random.Random] = None,
) -> GraphSnapshot:
    """Two stars joined by the edge between their centers (Figure 2).

    This is the single-round topology of the Theorem 3 lower-bound
    adversary: star ``T_A`` over the occupied nodes and star ``T_B`` over
    the empty nodes, connected center-to-center; diameter 3.
    """
    nodes = {center_a, center_b, *leaves_a, *leaves_b}
    if len(nodes) != n or nodes != set(range(n)):
        raise ValueError("stars must partition exactly the nodes 0..n-1")
    edges = [(center_a, leaf) for leaf in leaves_a]
    edges += [(center_b, leaf) for leaf in leaves_b]
    edges.append((center_a, center_b))
    return _snapshot(n, edges, rng)


FAMILY_BUILDERS = {
    "path": lambda n, rng: path_graph(n, rng=rng),
    "cycle": lambda n, rng: cycle_graph(max(n, 3), rng=rng),
    "star": lambda n, rng: star_graph(n, rng=rng),
    "complete": lambda n, rng: complete_graph(n, rng=rng),
    "random_tree": random_tree,
    "random_sparse": lambda n, rng: random_connected_graph(n, n // 2, rng),
    "random_dense": lambda n, rng: random_connected_graph(n, 2 * n, rng),
}
"""Name -> builder map used by sweeps and the CLI; each takes ``(n, rng)``."""


def build_family(name: str, n: int, rng: random.Random) -> GraphSnapshot:
    """Build a named graph family instance (see :data:`FAMILY_BUILDERS`)."""
    try:
        builder = FAMILY_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; known: {sorted(FAMILY_BUILDERS)}"
        ) from None
    return builder(n, rng)


def wheel_graph(n: int, *, rng: Optional[random.Random] = None) -> GraphSnapshot:
    """A wheel: node 0 is the hub of a cycle over nodes ``1..n-1``
    (needs ``n >= 4``)."""
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    rim = list(range(1, n))
    edges = [(0, v) for v in rim]
    edges += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return _snapshot(n, sorted({(min(u, v), max(u, v)) for u, v in edges}), rng)


def complete_bipartite_graph(
    a: int, b: int, *, rng: Optional[random.Random] = None
) -> GraphSnapshot:
    """``K_{a,b}``: nodes ``0..a-1`` on one side, ``a..a+b-1`` on the other."""
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one node")
    edges = [(u, a + v) for u in range(a) for v in range(b)]
    return _snapshot(a + b, edges, rng)


def binary_tree_graph(
    n: int, *, rng: Optional[random.Random] = None
) -> GraphSnapshot:
    """A complete-ish binary tree on ``n`` nodes (heap-index layout)."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    edges = [((v - 1) // 2, v) for v in range(1, n)]
    return _snapshot(n, edges, rng)


def caterpillar_graph(
    spine: int, legs_per_node: int, *, rng: Optional[random.Random] = None
) -> GraphSnapshot:
    """A caterpillar: a spine path with ``legs_per_node`` pendant leaves
    hanging from every spine node."""
    if spine < 1 or legs_per_node < 0:
        raise ValueError("caterpillar needs spine >= 1, legs >= 0")
    edges = [(i, i + 1) for i in range(spine - 1)]
    next_node = spine
    for spine_node in range(spine):
        for _ in range(legs_per_node):
            edges.append((spine_node, next_node))
            next_node += 1
    return _snapshot(next_node, edges, rng)


def broom_graph(
    handle: int, bristles: int, *, rng: Optional[random.Random] = None
) -> GraphSnapshot:
    """A broom: a path of ``handle`` nodes with ``bristles`` leaves
    attached to its last node -- long narrow access to a wide frontier."""
    if handle < 1 or bristles < 0:
        raise ValueError("broom needs handle >= 1, bristles >= 0")
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + i) for i in range(bristles)]
    return _snapshot(handle + bristles, edges, rng)
