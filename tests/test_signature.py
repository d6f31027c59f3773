"""Unit tests for number-theoretic graph signatures (paper Sec. 2.1, 2.3)."""
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signature import (
    DEFAULT_P,
    LabelHash,
    collision_probability,
    factor_key,
    graph_factors,
    incremental_factors,
    product,
    signature,
)
from repro.graphs.model import LabeledGraph


@pytest.fixture()
def paper_hash() -> LabelHash:
    """The paper's worked-example parameters: p = 11, r(a)=3, r(b)=10."""
    return LabelHash(["a", "b"], p=11).with_r({"a": 3, "b": 10})


def q1_graph() -> LabeledGraph:
    """Query q1 of Fig. 1: a 4-cycle of a-b edges."""
    return LabeledGraph({0: "a", 1: "b", 2: "a", 3: "b"}, [(0, 1), (1, 2), (2, 3), (3, 0)])


class TestPaperWorkedExamples:
    def test_edge_factor_ab(self, paper_hash):
        # (3 - 10) mod 11 = 7 in the paper's (absolute-difference) reading
        assert paper_hash.edge_factor("a", "b") == 7

    def test_edge_factor_symmetric(self, paper_hash):
        assert paper_hash.edge_factor("a", "b") == paper_hash.edge_factor("b", "a")

    def test_degree_factor_b(self, paper_hash):
        # degFac(b) for degree 2: ((10+1) mod 11) -> 0 -> replaced by 11,
        # then ((10+2) mod 11) = 1; total 11 (footnote 3)
        assert paper_hash.degree_factor("b", 1) == 11
        assert paper_hash.degree_factor("b", 2) == 1

    def test_degree_factor_a(self, paper_hash):
        # degFac(a) for degree 2 = 4 * 5 = 20
        assert paper_hash.degree_factor("a", 1) == 4
        assert paper_hash.degree_factor("a", 2) == 5

    def test_q1_signature(self, paper_hash):
        # Sec. 2.1: signature(q1) = 2401 * 48400 = 116208400
        assert signature(q1_graph(), paper_hash) == 116_208_400

    def test_single_ab_edge_signature(self, paper_hash):
        # Sec. 2.2: signature(a-b) = 7 * 4 * 11 = 308
        g = LabeledGraph({0: "a", 1: "b"}, [(0, 1)])
        assert signature(g, paper_hash) == 308

    def test_aba_path_signature(self, paper_hash):
        # Sec. 2.2: signature(a-b-a) = 308 * 7 * 4 * 1 = 8624
        g = LabeledGraph({0: "a", 1: "b", 2: "a"}, [(0, 1), (1, 2)])
        assert signature(g, paper_hash) == 8624

    def test_incremental_matches_full_recompute(self, paper_hash):
        # fac(e, a-b) * sig(a-b) == sig(a-b-a): incrementality (Sec. 2.1)
        labels = {0: "a", 1: "b", 2: "a"}
        fac = incremental_factors((1, 2), [(0, 1)], labels, paper_hash)
        assert 308 * math.prod(fac) == 8624


class TestLabelHash:
    def test_values_in_range(self):
        h = LabelHash(["x", "y", "z"], p=251)
        for v in h.r.values():
            assert 1 <= v < 251

    def test_deterministic_across_instances(self):
        h1 = LabelHash(["x", "y"], p=251, seed=7)
        h2 = LabelHash([], p=251, seed=7)
        assert h1.value("x") == h2.value("x")
        assert h1.value("y") == h2.value("y")

    def test_seed_changes_values(self):
        vals1 = [LabelHash([], p=251, seed=s).value("label") for s in range(20)]
        assert len(set(vals1)) > 1

    def test_unknown_label_on_demand(self):
        h = LabelHash(["a"], p=251)
        assert 1 <= h.value("never-seen-before") < 251

    def test_zero_factor_replaced_by_p(self):
        # same label => |r - r| = 0 => factor must be p, never 0
        h = LabelHash(["a"], p=11)
        assert h.edge_factor("a", "a") == 11

    def test_small_p_rejected(self):
        with pytest.raises(ValueError):
            LabelHash(["a"], p=2)

    def test_degree_factor_rejects_zero(self):
        h = LabelHash(["a"], p=11)
        with pytest.raises(ValueError):
            h.degree_factor("a", 0)


class TestFactorMultisets:
    def test_no_false_negatives_isomorphic_graphs(self):
        """Isomorphic graphs always share a signature (Sec. 2.3)."""
        h = LabelHash(["a", "b", "c"], p=251)
        g1 = LabeledGraph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)])
        g2 = LabeledGraph({5: "c", 9: "b", 7: "a"}, [(9, 5), (7, 9)])
        assert graph_factors(g1, h) == graph_factors(g2, h)

    def test_factor_multiset_distinguishes_products(self):
        """{6,2} vs {4,3} vs {12} are distinct as multisets (Sec. 2.3)."""
        assert factor_key(Counter([6, 2])) != factor_key(Counter([4, 3]))
        assert factor_key(Counter([12])) != factor_key(Counter([6, 2]))
        assert product(Counter([6, 2])) == product(Counter([4, 3])) == product(Counter([12]))

    def test_different_labels_differ(self):
        h = LabelHash(["a", "b", "c"], p=251)
        ab = LabeledGraph({0: "a", 1: "b"}, [(0, 1)])
        ac = LabeledGraph({0: "a", 1: "c"}, [(0, 1)])
        assert graph_factors(ab, h) != graph_factors(ac, h)

    def test_triangle_vs_path(self):
        """Same labels, different structure -> different degree factors."""
        h = LabelHash(["a"], p=251)
        tri = LabeledGraph({0: "a", 1: "a", 2: "a"}, [(0, 1), (1, 2), (0, 2)])
        path = LabeledGraph({0: "a", 1: "a", 2: "a", 3: "a"}, [(0, 1), (1, 2), (2, 3)])
        assert graph_factors(tri, h) != graph_factors(path, h)

    def test_factor_count_is_3E(self):
        """Handshaking lemma: |E| edge factors + 2|E| degree factors."""
        h = LabelHash(["a", "b"], p=251)
        g = q1_graph()
        assert sum(graph_factors(g, h).values()) == 3 * g.n_edges


@st.composite
def labelled_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    labels = {i: draw(st.sampled_from(["a", "b", "c"])) for i in range(n)}
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=1, max_size=min(8, len(possible)), unique=True)
    )
    return LabeledGraph(labels, edges)


class TestSignatureProperties:
    @settings(max_examples=60, deadline=None)
    @given(labelled_graphs(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_relabelling_invariance(self, g, perm_seed):
        """Signature is invariant under vertex-id permutation."""
        import random

        h = LabelHash(["a", "b", "c"], p=251)
        rnd = random.Random(perm_seed)
        ids = list(g.labels)
        shuffled = ids[:]
        rnd.shuffle(shuffled)
        mapping = dict(zip(ids, shuffled))
        g2 = LabeledGraph(
            {mapping[v]: l for v, l in g.labels.items()},
            [(mapping[u], mapping[v]) for u, v in g.edges],
        )
        assert graph_factors(g, h) == graph_factors(g2, h)

    @settings(max_examples=60, deadline=None)
    @given(labelled_graphs())
    def test_incremental_equals_batch(self, g):
        """Building a connected sub-graph edge-by-edge multiplies exactly
        the factors of the full recomputation."""
        h = LabelHash(["a", "b", "c"], p=251)
        edges = g.edges
        # grow a connected sub-graph greedily from the first edge
        sub = [edges[0]]
        verts = set(edges[0])
        acc = Counter(incremental_factors(edges[0], (), g.labels, h))
        changed = True
        while changed:
            changed = False
            for e in edges:
                if e not in sub and (e[0] in verts or e[1] in verts):
                    acc.update(incremental_factors(e, sub, g.labels, h))
                    sub.append(e)
                    verts |= set(e)
                    changed = True
        sub_graph = LabeledGraph(dict(g.labels), sub)
        expect = graph_factors(sub_graph, h)
        # restrict expectation to the sub-graph's own vertices
        assert acc == expect


class TestCollisionProbability:
    def test_fig4_shape_more_edges_lower_probability(self):
        """Fig. 4: at a fixed allowed-collision *count*, more factors ->
        lower probability (8 vs 12 edges both allow c_max = 1 at 5%)."""
        p = 31
        assert collision_probability(8, p) >= collision_probability(12, p)

    def test_fig4_shape_larger_p_higher_probability(self):
        for e in (8, 12, 16):
            assert collision_probability(e, 251) > collision_probability(e, 13)

    def test_p251_negligible_collisions(self):
        """Sec. 2.3: at p = 251 the probability of significant factor
        collisions is negligible for typical query sizes."""
        assert collision_probability(8, 251) > 0.95
        assert collision_probability(16, 251) > 0.95

    def test_probability_bounds(self):
        for e in (1, 8, 20):
            for p in (3, 11, 251):
                assert 0.0 <= collision_probability(e, p) <= 1.0 + 1e-12
