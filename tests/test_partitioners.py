"""Unit tests for the Hash / LDG / Fennel baselines and shared state."""
import pytest

from repro.graphs.model import LabeledGraph
from repro.partitioners.base import PartitionState, StreamEdge, stream_of
from repro.partitioners.fennel import FennelPartitioner
from repro.partitioners.hash_part import HashPartitioner, hash_vertex
from repro.partitioners.ldg import LDGPartitioner, ldg_choose


def chain_graph(n: int, label: str = "a") -> LabeledGraph:
    return LabeledGraph({i: label for i in range(n)}, [(i, i + 1) for i in range(n - 1)])


def chain_stream(n: int):
    g = chain_graph(n)
    return g, list(stream_of(g, g.canonical_edges()))


class TestPartitionState:
    def test_capacities(self):
        st = PartitionState(4, 100, slack=1.1)
        assert st.capacity == 28  # ceil(1.1 * 25)
        assert st.soft_capacity == 25

    def test_assign_and_sizes(self):
        st = PartitionState(2, 10)
        st.assign(1, 0)
        st.assign(2, 1)
        st.assign(3, 1)
        assert st.sizes == [1, 2]

    def test_no_reassignment(self):
        st = PartitionState(2, 10)
        st.assign(1, 0)
        with pytest.raises(ValueError):
            st.assign(1, 1)
        st.assign(1, 0)  # same partition is a no-op
        assert st.sizes == [1, 0]

    def test_neighbours_in(self):
        st = PartitionState(2, 10)
        st.observe_edge(1, 2)
        st.observe_edge(1, 3)
        st.assign(2, 0)
        st.assign(3, 1)
        assert st.neighbour_counts(1) == [1, 1]
        assert st.neighbour_counts(99) == [0, 0]

    def test_least_loaded_tie_lowest_index(self):
        st = PartitionState(3, 30)
        st.assign(1, 0)
        assert st.least_loaded() == 1

    def test_imbalance(self):
        st = PartitionState(2, 4)
        st.assign(1, 0)
        st.assign(2, 0)
        st.assign(3, 1)
        assert st.imbalance() == pytest.approx(1.0)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            PartitionState(0, 10)


class TestHash:
    def test_deterministic(self):
        assert hash_vertex(42, 8) == hash_vertex(42, 8)

    def test_range(self):
        for v in range(1000):
            assert 0 <= hash_vertex(v, 8) < 8

    def test_roughly_balanced(self):
        counts = [0] * 8
        for v in range(8000):
            counts[hash_vertex(v, 8)] += 1
        assert max(counts) < 1.15 * 1000
        assert min(counts) > 0.85 * 1000

    def test_seed_changes_assignment(self):
        diffs = sum(
            1 for v in range(100) if hash_vertex(v, 8, seed=0) != hash_vertex(v, 8, seed=1)
        )
        assert diffs > 50

    def test_partitioner_assigns_all_endpoints(self):
        g, stream = chain_stream(50)
        asg = HashPartitioner(4, g.n_vertices).partition(stream)
        assert set(asg) == set(g.labels)

    def test_partitioner_matches_hash_vertex(self):
        g, stream = chain_stream(20)
        p = HashPartitioner(4, g.n_vertices, seed=3)
        asg = p.partition(stream)
        for v, pid in asg.items():
            assert pid == hash_vertex(v, 4, seed=3)


class TestLDG:
    def test_cold_start_goes_least_loaded(self):
        st = PartitionState(4, 100)
        st.observe_edge(1, 2)
        assert ldg_choose(st, 1) == 0  # all empty: lowest index

    def test_follows_neighbours(self):
        st = PartitionState(4, 100)
        st.observe_edge(1, 2)
        st.assign(2, 3)
        # balance others a little so partition 3 is not also least loaded
        st.assign(7, 0)
        assert ldg_choose(st, 1) == 3

    def test_residual_capacity_discounts_full_partitions(self):
        st = PartitionState(2, 8)  # soft capacity 4
        st.observe_edge(1, 2)
        st.observe_edge(1, 3)
        for i, v in enumerate((2, 10, 11, 12)):
            st.assign(v, 0)  # partition 0 at soft capacity, holds 1 nbr
        st.assign(3, 1)  # partition 1 holds 1 neighbour, plenty of room
        # score_0 = 1 * (1 - 4/4) = 0 < score_1 = 1 * (1 - 1/4)
        assert ldg_choose(st, 1) == 1

    def test_hard_capacity_skipped(self):
        st = PartitionState(2, 2, slack=1.0)  # hard capacity 1 each
        st.observe_edge(1, 2)
        st.assign(2, 0)
        assert ldg_choose(st, 1) == 1  # partition 0 full

    def test_spills_when_everything_full(self):
        st = PartitionState(2, 2, slack=1.0)
        st.assign(1, 0)
        st.assign(2, 1)
        st.observe_edge(3, 1)
        assert ldg_choose(st, 3) in (0, 1)

    def test_chain_collocates_neighbours(self):
        """A streamed chain should mostly follow itself, not scatter."""
        g, stream = chain_stream(64)
        asg = LDGPartitioner(4, g.n_vertices).partition(stream)
        same = sum(1 for u, v in g.canonical_edges() if asg[u] == asg[v])
        assert same / g.n_edges > 0.8

    def test_balance_within_slack(self):
        g, stream = chain_stream(200)
        p = LDGPartitioner(8, g.n_vertices)
        p.partition(stream)
        assert p.state.imbalance() <= 1.1 + 1e-9

    def test_all_assigned(self):
        g, stream = chain_stream(30)
        asg = LDGPartitioner(3, g.n_vertices).partition(stream)
        assert set(asg) == set(g.labels)


class TestFennel:
    def test_alpha_formula(self):
        p = FennelPartitioner(4, 100, 400)
        assert p.alpha == pytest.approx(2 * 400 / 100**1.5)

    def test_follows_neighbours(self):
        g, stream = chain_stream(64)
        asg = FennelPartitioner(4, g.n_vertices, g.n_edges).partition(stream)
        same = sum(1 for u, v in g.canonical_edges() if asg[u] == asg[v])
        assert same / g.n_edges > 0.8

    def test_nu_cap_enforced(self):
        g, stream = chain_stream(200)
        p = FennelPartitioner(8, g.n_vertices, g.n_edges, nu=1.1)
        p.partition(stream)
        assert max(p.state.sizes) <= 1.1 * 200 / 8 + 1  # one-past-the-post at most

    def test_balance_under_adversarial_clique_stream(self):
        """Everything prefers the first partition; the additive penalty
        must still spread vertices."""
        n = 60
        labels = {i: "a" for i in range(n)}
        edges = [(i, j) for i in range(n) for j in range(i + 1, min(i + 4, n))]
        g = LabeledGraph(labels, edges)
        p = FennelPartitioner(4, n, len(edges))
        p.partition(stream_of(g, g.canonical_edges()))
        assert p.state.imbalance() <= 1.2

    def test_all_assigned(self):
        g, stream = chain_stream(30)
        asg = FennelPartitioner(3, g.n_vertices, g.n_edges).partition(stream)
        assert set(asg) == set(g.labels)

    def test_gamma_default(self):
        assert FennelPartitioner(2, 10, 20).gamma == 1.5


class TestDeterminism:
    @pytest.mark.parametrize("cls", [HashPartitioner, LDGPartitioner])
    def test_two_runs_identical(self, cls):
        g, stream = chain_stream(100)
        a1 = cls(4, g.n_vertices).partition(iter(stream))
        a2 = cls(4, g.n_vertices).partition(iter(stream))
        assert a1 == a2

    def test_fennel_two_runs_identical(self):
        g, stream = chain_stream(100)
        a1 = FennelPartitioner(4, g.n_vertices, g.n_edges).partition(iter(stream))
        a2 = FennelPartitioner(4, g.n_vertices, g.n_edges).partition(iter(stream))
        assert a1 == a2


class TestStreamOf:
    def test_stream_edges_carry_labels(self):
        g = LabeledGraph({0: "x", 1: "y"}, [(0, 1)])
        [e] = list(stream_of(g, g.canonical_edges()))
        assert e == StreamEdge(0, 0, 1, "x", "y")
