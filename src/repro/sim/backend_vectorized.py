"""The ``vectorized`` engine backend: numpy struct-of-arrays kernels.

The reference backend rebuilds per-robot :class:`InfoPacket` /
:class:`Observation` objects, component graphs, spanning trees, and
root-path sets as dicts and dataclasses every round.  This backend keeps
the same engine-owned ground truth but executes the hot phases on flat
integer arrays:

* the round snapshot's own port-ordered CSR table (``indptr`` +
  ``neighbors``) becomes two int64 arrays (cached per snapshot object,
  so static graphs pay the conversion once per run);
* alive robots become sorted ``(node, id)`` arrays, from which per-node
  representative / multiplicity / max-id columns fall out of one
  ``lexsort``;
* the occupied subgraph's edges are extracted with one vectorized mask
  and its connected components labeled by the batched min-label kernel
  :func:`label_occupied_components`;
* spanning-tree construction, disjoint root-path selection, and the
  sliding rule run as tight index loops over those arrays, reproducing
  Algorithm 2/3/4's tie-breaks exactly (decreasing-port DFS pushes,
  increasing-leaf-ID path selection with early exit at the truncation
  cap, smallest-stays root rule, largest-moves interior rule).

Observations are delivered lazily: the engine and the fast compute path
never read them (the move map is computed from the arrays), so packet
objects are only materialized -- via the reference code path, for
byte-identical content -- when an observer or the termination-detection
round actually subscripts the mapping.

Every fast path falls back to the inherited :class:`ReferenceBackend`
implementation when its preconditions do not hold (byzantine robots,
local communication, a subclassed algorithm, ...), so the backend is
*always* bit-identical to the reference -- the cross-backend fingerprint
tests enforce this across the golden campaign and all scheduler models.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.dispersion import DispersionDynamic
from repro.robots.memory import bits_for_state
from repro.sim.algorithm import (
    Decision,
    MoveDecision,
    RobotAlgorithm,
    STAY,
)
from repro.sim.backend import ReferenceBackend
from repro.sim.observation import (
    CommunicationModel,
    Observation,
    build_info_packets,
    observations_from_packets,
)

__all__ = [
    "VectorizedBackend",
    "label_occupied_components",
    "occupied_subgraph_edges",
]


# ----------------------------------------------------------------------
# Array kernels (pure functions; pinned by the kernel golden tests)
# ----------------------------------------------------------------------


def occupied_subgraph_edges(
    indptr: np.ndarray, neighbors: np.ndarray, occupied_nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edges of the occupied-induced subgraph, batched.

    ``occupied_nodes`` is the sorted array of occupied node ids; returns
    ``(src, dst, port)`` where ``src``/``dst`` are *indices into*
    ``occupied_nodes`` and ``port`` is the port at ``src``'s node toward
    ``dst``'s node.  Edges are grouped by ``src`` in increasing port
    order (the order every per-component tie-break needs).
    """
    n = indptr.shape[0] - 1
    n_occ = occupied_nodes.shape[0]
    occ_of_node = np.full(n, -1, dtype=np.int64)
    occ_of_node[occupied_nodes] = np.arange(n_occ, dtype=np.int64)
    counts = indptr[occupied_nodes + 1] - indptr[occupied_nodes]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    seg_start = np.zeros(n_occ, dtype=np.int64)
    np.cumsum(counts[:-1], out=seg_start[1:])
    rel = np.arange(total, dtype=np.int64) - np.repeat(seg_start, counts)
    gathered = neighbors[np.repeat(indptr[occupied_nodes], counts) + rel]
    dst = occ_of_node[gathered]
    keep = dst >= 0
    src = np.repeat(np.arange(n_occ, dtype=np.int64), counts)[keep]
    return src, dst[keep], (rel + 1)[keep]


def label_occupied_components(
    indptr: np.ndarray, neighbors: np.ndarray, occupied_nodes: np.ndarray
) -> np.ndarray:
    """Connected-component labels of the occupied-induced subgraph.

    Batched min-label propagation with pointer jumping: every occupied
    node starts labeled with its own index into ``occupied_nodes`` and
    repeatedly adopts the minimum label across its occupied edges until
    a fixed point.  The returned canonical label of a node is therefore
    the *smallest index* (== the node with the smallest id, since
    ``occupied_nodes`` is sorted) of its component -- a deterministic,
    pinnable labeling.
    """
    occupied_nodes = np.asarray(occupied_nodes, dtype=np.int64)
    src, dst, _ = occupied_subgraph_edges(indptr, neighbors, occupied_nodes)
    return _label_from_edges(occupied_nodes.shape[0], src, dst)


def _label_from_edges(
    n_occ: int, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    labels = np.arange(n_occ, dtype=np.int64)
    while True:
        nxt = labels.copy()
        if src.size:
            np.minimum.at(nxt, src, labels[dst])
        nxt = np.minimum(nxt, nxt[nxt])  # pointer jump: O(log) convergence
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


# ----------------------------------------------------------------------
# Lazy observation delivery
# ----------------------------------------------------------------------


class _LazyObservations(Mapping):
    """``{robot_id: Observation}`` materialized on first subscript.

    The fast compute path reads the round's arrays instead, so for most
    rounds no packet object is ever built; when an observer (or the
    termination-detection round) does subscript, the reference packet
    pipeline runs on state captured at observe time, producing content
    byte-identical to the reference backend's eager delivery.
    """

    __slots__ = (
        "_snapshot",
        "_round_index",
        "_positions",
        "_entry_ports",
        "_communication",
        "_neighborhood_knowledge",
        "_materialized",
    )

    def __init__(
        self,
        snapshot,
        round_index: int,
        positions: Dict[int, int],
        entry_ports: Dict[int, int],
        communication: CommunicationModel,
        neighborhood_knowledge: bool,
    ) -> None:
        self._snapshot = snapshot
        self._round_index = round_index
        self._positions = positions
        self._entry_ports = entry_ports
        self._communication = communication
        self._neighborhood_knowledge = neighborhood_knowledge
        self._materialized: Optional[Mapping[int, Observation]] = None

    def _materialize(self) -> Mapping[int, Observation]:
        if self._materialized is None:
            packets = build_info_packets(
                self._snapshot,
                self._positions,
                neighborhood_knowledge=self._neighborhood_knowledge,
            )
            self._materialized = observations_from_packets(
                packets,
                self._positions,
                self._round_index,
                communication=self._communication,
                neighborhood_knowledge=self._neighborhood_knowledge,
                entry_ports=self._entry_ports,
            )
        return self._materialized

    def __getitem__(self, robot_id: int) -> Observation:
        return self._materialize()[robot_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self._positions)

    def __len__(self) -> int:
        return len(self._positions)


# ----------------------------------------------------------------------
# Per-round struct-of-arrays state
# ----------------------------------------------------------------------


class _RoundArrays:
    """Everything the fast paths need about one round, as flat arrays."""

    __slots__ = (
        "snapshot",
        "round_index",
        "occupied",
        "occ_nodes",
        "rep",
        "counts",
        "max_id",
        "robots_sorted",
        "group_start",
        "degree",
        "adj_offset",
        "adj_dst",
        "adj_port",
        "num_components",
        "mult_components",
        "has_multiplicity",
        "moves",
    )

    def __init__(
        self,
        snapshot,
        round_index: int,
        positions: Dict[int, int],
        indptr: np.ndarray,
        neighbors: np.ndarray,
    ) -> None:
        self.snapshot = snapshot
        self.round_index = round_index

        k_alive = len(positions)
        rids = np.fromiter(positions.keys(), dtype=np.int64, count=k_alive)
        nodes = np.fromiter(positions.values(), dtype=np.int64, count=k_alive)
        order = np.lexsort((rids, nodes))
        rids_sorted = rids[order]
        nodes_sorted = nodes[order]
        occ_np, first = np.unique(nodes_sorted, return_index=True)
        counts_np = np.diff(np.append(first, k_alive))
        n_occ = occ_np.shape[0]

        self.occupied: FrozenSet[int] = frozenset(occ_np.tolist())
        self.occ_nodes: List[int] = occ_np.tolist()
        self.rep: List[int] = rids_sorted[first].tolist()
        self.counts: List[int] = counts_np.tolist()
        self.max_id: List[int] = rids_sorted[first + counts_np - 1].tolist()
        self.robots_sorted: List[int] = rids_sorted.tolist()
        self.group_start: List[int] = np.append(first, k_alive).tolist()
        self.degree: List[int] = (
            (indptr[occ_np + 1] - indptr[occ_np]).tolist()
        )

        src, dst, port = occupied_subgraph_edges(indptr, neighbors, occ_np)
        seg_counts = np.bincount(src, minlength=n_occ)
        offsets = np.zeros(n_occ + 1, dtype=np.int64)
        np.cumsum(seg_counts, out=offsets[1:])
        # Flat per-node occupied adjacency in increasing port order; node
        # i's slice is [adj_offset[i], adj_offset[i + 1]).  Kept flat --
        # only multiplicity-component members ever need their slice.
        self.adj_offset: List[int] = offsets.tolist()
        self.adj_dst: List[int] = dst.tolist()
        self.adj_port: List[int] = port.tolist()

        labels = _label_from_edges(n_occ, src, dst)
        self.num_components = int(np.unique(labels).size)
        mult_labels = np.unique(labels[counts_np >= 2])
        self.mult_components: List[List[int]] = [
            np.nonzero(labels == label)[0].tolist() for label in mult_labels
        ]
        self.has_multiplicity = bool(mult_labels.size)
        self.moves: Optional[Dict[int, int]] = None

    # -- Algorithm 2/3/4 on arrays -------------------------------------

    def robots_at(self, occ_index: int) -> List[int]:
        """Robot ids at an occupied node, ascending."""
        return self.robots_sorted[
            self.group_start[occ_index]:self.group_start[occ_index + 1]
        ]

    def smallest_empty_port(self, occ_index: int) -> int:
        """Smallest port toward an empty neighbor (caller guarantees one
        exists: the node is in the leaf node set)."""
        port = 1
        for j in range(self.adj_offset[occ_index], self.adj_offset[occ_index + 1]):
            occupied_port = self.adj_port[j]
            if occupied_port == port:
                port += 1
            elif occupied_port > port:
                break
        return port

    def round_moves(self) -> Dict[int, int]:
        """The round's full ``{robot_id: exit_port}`` map (Algorithm 4)."""
        if self.moves is None:
            moves: Dict[int, int] = {}
            for members in self.mult_components:
                self._component_moves(members, moves)
            self.moves = moves
        return self.moves

    def _component_moves(
        self, members: List[int], moves: Dict[int, int]
    ) -> None:
        rep = self.rep
        counts = self.counts
        offsets = self.adj_offset
        adj_dst = self.adj_dst
        adj_port = self.adj_port

        # Root: smallest-ID multiplicity node (Algorithm 2).
        root = min(
            (m for m in members if counts[m] >= 2), key=rep.__getitem__
        )

        # DFS spanning tree: push neighbors in decreasing port order so
        # the smallest port is explored first; the discovery port is the
        # port at the parent toward the child (unique: simple graph).
        parent: Dict[int, int] = {root: -1}
        parent_port: Dict[int, int] = {}
        stack: List[Tuple[int, int, int]] = []

        def push_neighbors(node: int) -> None:
            for j in range(offsets[node + 1] - 1, offsets[node] - 1, -1):
                neighbor = adj_dst[j]
                if neighbor not in parent:
                    stack.append((neighbor, node, adj_port[j]))

        push_neighbors(root)
        while stack:
            node, discovered_from, port = stack.pop()
            if node in parent:
                continue  # discovered through an earlier (smaller-port) edge
            parent[node] = discovered_from
            parent_port[node] = port
            push_neighbors(node)

        # Disjoint root paths (Algorithm 3), truncated to count-1 (Alg 4).
        # Candidates in increasing leaf representative-ID order; a path is
        # kept iff its non-root nodes are unused.  Edge-disjointness needs
        # no separate check: a shared tree edge has a shared non-root
        # endpoint (its child side), which the node check already rejects.
        # Selection is a deterministic prefix, so stopping at the
        # truncation cap is identical to truncating afterwards.
        max_paths = counts[root] - 1
        degree = self.degree
        leaf_order = sorted(
            (
                m
                for m in members
                if degree[m] > offsets[m + 1] - offsets[m]
            ),
            key=rep.__getitem__,
        )
        used: set = set()
        paths: List[List[int]] = []
        for leaf in leaf_order:
            if len(paths) >= max_paths:
                break
            if leaf == root:
                paths.append([root])  # trivial path: nothing to check
                continue
            chain: List[int] = []
            node = leaf
            while node != root:
                if node in used:
                    break
                chain.append(node)
                node = parent[node]
            else:
                used.update(chain)
                chain.append(root)
                chain.reverse()
                paths.append(chain)

        # Sliding rule: smallest root robot stays; the i-th path gets the
        # (i+1)-st; at interior/leaf nodes the largest-ID robot moves.
        root_robots = self.robots_at(root)
        for index, path in enumerate(paths):
            root_mover = root_robots[index + 1]
            if len(path) == 1:
                moves[root_mover] = self.smallest_empty_port(root)
                continue
            moves[root_mover] = parent_port[path[1]]
            last = len(path) - 1
            for position in range(1, last + 1):
                node = path[position]
                if position < last:
                    port = parent_port[path[position + 1]]
                else:
                    port = self.smallest_empty_port(node)
                moves[self.max_id[node]] = port


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------


class VectorizedBackend(ReferenceBackend):
    """Struct-of-arrays phase execution, bit-identical to the reference.

    Inherits the (cheap) move/settle/activate phases and falls back to
    the inherited implementation of every overridden phase when the fast
    path's preconditions do not hold.
    """

    name = "vectorized"

    def on_bind(self) -> None:
        engine = self.engine
        self._csr_snapshot = None
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._round: Optional[_RoundArrays] = None

        algorithm = engine._algorithm
        # No byzantine robots: forged packets feed both observations and
        # honest decisions, so everything must go through the reference
        # packet pipeline.
        self._fast_observe = not engine._byzantine
        # The fully-array compute path additionally requires the stock
        # DispersionDynamic fast mode under its declared model; ablation
        # subclasses (overridden component_moves / decide) and faithful
        # mode fall back to reference decide over lazy observations.
        self._fast_compute = (
            self._fast_observe
            and engine._communication is CommunicationModel.GLOBAL
            and engine._neighborhood_knowledge
            and isinstance(algorithm, DispersionDynamic)
            and type(algorithm).decide is DispersionDynamic.decide
            and type(algorithm).component_moves
            is DispersionDynamic.component_moves
            and type(algorithm).on_round_start
            is DispersionDynamic.on_round_start
            and not getattr(algorithm, "_faithful", True)
        )
        # Stock persistent state is {"id": robot_id}: the audit reduces
        # to one bits_for_state call on the largest honest id (bit cost
        # is monotone in the id, with or without a declared bound).
        self._fast_audit = (
            type(algorithm).persistent_state
            is RobotAlgorithm.persistent_state
        )

    # -- phases ---------------------------------------------------------

    def observe(self, snapshot, round_index: int):
        engine = self.engine
        if not self._fast_observe:
            self._round = None
            return super().observe(snapshot, round_index)
        if self._csr_snapshot is not snapshot:
            indptr, neighbors = snapshot.csr()
            self._csr = (
                np.asarray(indptr, dtype=np.int64),
                np.asarray(neighbors, dtype=np.int64),
            )
            self._csr_snapshot = snapshot
        indptr, neighbors = self._csr
        positions = dict(engine._positions)
        self._round = _RoundArrays(
            snapshot, round_index, positions, indptr, neighbors
        )
        num_occupied = len(self._round.occ_nodes)
        engine._packets_broadcast += num_occupied
        if engine._communication is CommunicationModel.GLOBAL:
            engine._packet_deliveries += num_occupied * len(positions)
        else:
            engine._packet_deliveries += len(positions)
        return _LazyObservations(
            snapshot,
            round_index,
            positions,
            dict(engine._entry_ports),
            engine._communication,
            engine._neighborhood_knowledge,
        )

    def compute(
        self, snapshot, round_index: int, observations, active
    ) -> Dict[int, Decision]:
        arrays = self._round
        if (
            not self._fast_compute
            or arrays is None
            or arrays.snapshot is not snapshot
            or arrays.round_index != round_index
        ):
            return super().compute(snapshot, round_index, observations, active)
        if not arrays.has_multiplicity:
            # No multiplicity packet anywhere: every robot stays
            # (DispersionDynamic's termination test).
            return {robot_id: STAY for robot_id in sorted(active)}
        moves = arrays.round_moves()
        decisions: Dict[int, Decision] = {}
        for robot_id in sorted(active):
            port = moves.get(robot_id)
            decisions[robot_id] = (
                MoveDecision(port) if port is not None else STAY
            )
        return decisions

    def audit_memory(self) -> int:
        if not self._fast_audit:
            return super().audit_memory()
        engine = self.engine
        if engine._byzantine:
            honest = [
                robot_id
                for robot_id in engine._positions
                if robot_id not in engine._byzantine
            ]
        else:
            honest = list(engine._positions)
        if not honest:
            return 0
        bounds = engine._algorithm.persistent_state_bounds(
            engine._k, engine._n
        )
        return bits_for_state({"id": max(honest)}, bounds=bounds)

    def count_occupied_components(self, snapshot, occupied) -> int:
        arrays = self._round
        if (
            arrays is not None
            and arrays.snapshot is snapshot
            and arrays.occupied == occupied
        ):
            return arrays.num_components
        return super().count_occupied_components(snapshot, occupied)
