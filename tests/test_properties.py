"""Property-based tests (hypothesis) for the core data structures and the
paper's invariants."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.components import partition_into_components
from repro.core.disjoint_paths import (
    check_pairwise_disjoint,
    compute_disjoint_paths,
)
from repro.core.dispersion import DispersionDynamic
from repro.core.spanning_tree import build_spanning_tree
from repro.graph.dynamic import RandomChurnDynamicGraph
from repro.graph.generators import random_connected_graph
from repro.graph.snapshot import GraphSnapshot
from repro.robots.robot import RobotSet
from repro.sim.engine import SimulationEngine
from repro.sim.observation import build_info_packets

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=10_000)


@st.composite
def snapshots(draw, min_n=2, max_n=25):
    seed = draw(seeds)
    rng = random.Random(seed)
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    return random_connected_graph(n, extra, rng)


@st.composite
def instances(draw, min_n=3, max_n=25):
    """(snapshot, positions) with 2 <= k <= n robots."""
    snapshot = draw(snapshots(min_n=min_n, max_n=max_n))
    seed = draw(seeds)
    rng = random.Random(seed)
    k = draw(st.integers(min_value=2, max_value=snapshot.n))
    robots = RobotSet.arbitrary(k, snapshot.n, rng)
    return snapshot, robots.positions


# ---------------------------------------------------------------------------
# Snapshot invariants
# ---------------------------------------------------------------------------


@given(snapshots())
@settings(max_examples=60, deadline=None)
def test_ports_are_bijective(snapshot: GraphSnapshot):
    for v in snapshot.nodes():
        ports = snapshot.port_map(v)
        assert sorted(ports) == list(range(1, snapshot.degree(v) + 1))
        assert len(set(ports.values())) == snapshot.degree(v)


@given(snapshots())
@settings(max_examples=60, deadline=None)
def test_edges_are_symmetric_with_consistent_ports(snapshot: GraphSnapshot):
    for edge in snapshot.edges():
        assert snapshot.neighbor_via(edge.u, edge.port_u) == edge.v
        assert snapshot.neighbor_via(edge.v, edge.port_v) == edge.u


@given(snapshots(), seeds)
@settings(max_examples=30, deadline=None)
def test_relabeling_preserves_structure(snapshot: GraphSnapshot, seed: int):
    relabeled = snapshot.relabeled_ports(random.Random(seed))
    assert relabeled.n == snapshot.n
    assert {(e.u, e.v) for e in relabeled.edges()} == {
        (e.u, e.v) for e in snapshot.edges()
    }
    assert [relabeled.degree(v) for v in relabeled.nodes()] == [
        snapshot.degree(v) for v in snapshot.nodes()
    ]


@st.composite
def port_labelled_graphs(draw, max_n=14):
    """Any simple graph (disconnected and isolated nodes included) with a
    seeded random port labelling."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return GraphSnapshot.from_edges(n, edges, rng=random.Random(draw(seeds)))


@given(port_labelled_graphs())
@settings(max_examples=80, deadline=None)
def test_csr_views_agree(snapshot: GraphSnapshot):
    """Every query derived from the CSR table tells the same graph."""
    n = snapshot.n
    assert GraphSnapshot.from_port_maps(
        n, [snapshot.port_map(v) for v in snapshot.nodes()]
    ) == snapshot
    for v in snapshot.nodes():
        for port in snapshot.ports(v):
            target = snapshot.neighbor_via(v, port)
            assert snapshot.port_of(v, target) == port
            entry = snapshot.port_of(target, v)
            assert snapshot.neighbor_via(target, entry) == v
    for u in snapshot.nodes():
        for v in snapshot.nodes():
            assert snapshot.has_edge(u, v) == snapshot.has_edge(v, u)
            assert snapshot.has_edge(u, v) == (v in snapshot.neighbors(u))
    edges = snapshot.edges()
    assert len(edges) == snapshot.num_edges
    assert list(edges) == sorted(edges, key=lambda e: (e.u, e.port_u))
    for edge in edges:
        assert edge.u < edge.v
        assert edge.port_v == snapshot.port_of(edge.v, edge.u)


# ---------------------------------------------------------------------------
# Packet / component invariants
# ---------------------------------------------------------------------------


@given(instances())
@settings(max_examples=60, deadline=None)
def test_components_partition_the_occupied_nodes(instance):
    snapshot, positions = instance
    packets = list(build_info_packets(snapshot, positions).values())
    components = partition_into_components(packets)
    reps = [rep for c in components for rep in c.representatives]
    assert len(reps) == len(set(reps))
    assert sorted(reps) == sorted(p.representative_id for p in packets)
    total_robots = sum(c.total_robots() for c in components)
    assert total_robots == len(positions)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_components_match_ground_truth(instance):
    snapshot, positions = instance
    packets = list(build_info_packets(snapshot, positions).values())
    components = partition_into_components(packets)
    truth = snapshot.induced_occupied_components(positions.values())

    def rep_of(node):
        return min(r for r, pos in positions.items() if pos == node)

    truth_sets = {frozenset(rep_of(v) for v in comp) for comp in truth}
    ours = {frozenset(c.representatives) for c in components}
    assert ours == truth_sets


@given(instances())
@settings(max_examples=60, deadline=None)
def test_spanning_trees_span_and_paths_are_disjoint(instance):
    snapshot, positions = instance
    packets = list(build_info_packets(snapshot, positions).values())
    for component in partition_into_components(packets):
        tree = build_spanning_tree(component)
        if tree is None:
            assert not component.has_multiplicity
            continue
        assert sorted(tree.nodes) == component.representatives
        assert tree.is_valid_tree()
        paths = compute_disjoint_paths(tree, component)
        assert check_pairwise_disjoint(paths)
        if len(set(positions.values())) < snapshot.n:
            # Lemma 3: an empty node exists somewhere, so if this
            # component borders one, paths must be non-empty; components
            # always border empty nodes when k < n (2-hop separation).
            assert paths


# ---------------------------------------------------------------------------
# Full-run invariants
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=0, max_value=20),
    seeds,
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_dispersion_always_succeeds_within_k_rounds(k, extra, seed):
    n = k + random.Random(seed).randint(0, 10)
    dyn = RandomChurnDynamicGraph(n, extra_edges=extra, seed=seed)
    robots = RobotSet.arbitrary(k, n, random.Random(seed + 1))
    result = SimulationEngine(dyn, robots, DispersionDynamic()).run()
    assert result.dispersed
    assert result.rounds <= result.k - result.initial_occupied
    # Lemma 7: monotone growth
    trajectory = result.occupied_trajectory()
    assert all(b > a for a, b in zip(trajectory, trajectory[1:]))
    # final configuration is a dispersion
    assert len(set(result.final_positions.values())) == k


@given(
    st.integers(min_value=4, max_value=20),
    st.integers(min_value=1, max_value=6),
    seeds,
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_faulty_dispersion_survivors_disperse(k, f, seed):
    from repro.robots.faults import CrashSchedule

    f = min(f, k - 1)
    n = k + 5
    rng = random.Random(seed)
    schedule = CrashSchedule.random_schedule(k, f, k, rng)
    dyn = RandomChurnDynamicGraph(n, extra_edges=n // 2, seed=seed)
    result = SimulationEngine(
        dyn,
        RobotSet.rooted(k, n),
        DispersionDynamic(),
        crash_schedule=schedule,
    ).run()
    assert result.dispersed
    survivors = result.final_positions
    assert len(set(survivors.values())) == len(survivors)
    assert set(survivors) | set(result.crashed_robots) == set(
        range(1, k + 1)
    )


# ---------------------------------------------------------------------------
# Anonymity: the robots' world is invariant under node relabeling
# ---------------------------------------------------------------------------


@given(instances(), seeds)
@settings(max_examples=40, deadline=None)
def test_observations_invariant_under_node_relabeling(instance, seed):
    """The graph is anonymous: if the ground-truth node indices are
    permuted (ports carried along), every robot receives exactly the same
    observation.  This proves no node identity leaks into the packets."""
    snapshot, positions = instance
    permutation = list(range(snapshot.n))
    random.Random(seed).shuffle(permutation)

    relabeled_ports = [dict() for _ in range(snapshot.n)]
    for v in range(snapshot.n):
        for port, neighbor in snapshot.port_map(v).items():
            relabeled_ports[permutation[v]][port] = permutation[neighbor]
    relabeled_snapshot = GraphSnapshot.from_port_maps(
        snapshot.n, relabeled_ports
    )
    relabeled_positions = {
        robot: permutation[node] for robot, node in positions.items()
    }

    from repro.sim.observation import build_observations

    original = build_observations(snapshot, positions, 0)
    relabeled = build_observations(
        relabeled_snapshot, relabeled_positions, 0
    )
    assert set(original) == set(relabeled)
    for robot_id in original:
        a, b = original[robot_id], relabeled[robot_id]
        assert a.own_packet == b.own_packet
        assert a.packets == b.packets


@given(instances(min_n=4, max_n=16), seeds)
@settings(max_examples=15, deadline=None)
def test_dispersion_run_isomorphic_under_relabeling(instance, seed):
    """Consequence of anonymity: the whole run commutes with relabeling --
    same rounds, and final positions related by the permutation."""
    snapshot, positions = instance
    permutation = list(range(snapshot.n))
    random.Random(seed).shuffle(permutation)

    relabeled_ports = [dict() for _ in range(snapshot.n)]
    for v in range(snapshot.n):
        for port, neighbor in snapshot.port_map(v).items():
            relabeled_ports[permutation[v]][port] = permutation[neighbor]
    relabeled_snapshot = GraphSnapshot.from_port_maps(
        snapshot.n, relabeled_ports
    )
    relabeled_positions = {
        robot: permutation[node] for robot, node in positions.items()
    }

    from repro.graph.dynamic import StaticDynamicGraph

    a = SimulationEngine(
        StaticDynamicGraph(snapshot), positions, DispersionDynamic()
    ).run()
    b = SimulationEngine(
        StaticDynamicGraph(relabeled_snapshot),
        relabeled_positions,
        DispersionDynamic(),
    ).run()
    assert a.rounds == b.rounds
    assert a.reason is b.reason
    for robot_id, node in a.final_positions.items():
        assert b.final_positions[robot_id] == permutation[node]


# ---------------------------------------------------------------------------
# One-round sliding semantics (unit-level Lemma 7)
# ---------------------------------------------------------------------------


@given(instances())
@settings(max_examples=50, deadline=None)
def test_sliding_moves_preserve_occupancy_unit_level(instance):
    """Applying one round's move map directly to the configuration keeps
    every occupied node occupied and claims >= 1 new node per component
    with a multiplicity -- Lemma 7 at the granularity of a single
    compute step, without the engine in the loop."""
    from repro.core.dispersion import component_moves

    snapshot, positions = instance
    if len(set(positions.values())) == snapshot.n:
        return  # no empty node anywhere; nothing to verify
    packets = list(build_info_packets(snapshot, positions).values())
    moves = {}
    components = partition_into_components(packets)
    for component in components:
        moves.update(component_moves(component))

    new_positions = dict(positions)
    for robot_id, port in moves.items():
        node = positions[robot_id]
        assert 1 <= port <= snapshot.degree(node)
        new_positions[robot_id] = snapshot.neighbor_via(node, port)

    occupied_before = set(positions.values())
    occupied_after = set(new_positions.values())
    assert occupied_before <= occupied_after
    if any(c.has_multiplicity for c in components):
        assert occupied_after - occupied_before
