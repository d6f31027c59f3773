"""Unit tests for sliding-window motif matching (paper Sec. 3, Alg. 2).

The central fixture reconstructs the Fig. 5 walkthrough: a stream of five
edges over labels a/b/c, matched against motifs m1 = a-b, m2 = b-c,
m3 = a-b-c, m4 = a-b-a, m5 = b-a-b and m6 = a-b-a-b (all sub-graphs of the
workload {a-b-a-b path, a-b-c path}).
"""
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.motifs import WindowMatcher
from repro.core.signature import factor_key, graph_factors, incremental_factors
from repro.core.tpstry import ROOT_KEY, TPSTry
from repro.graphs.generators import generate
from repro.graphs.model import Edge, LabeledGraph
from repro.graphs.streams import ORDERS, ordered_stream
from repro.workloads.queries import _path, workload


def fig5_motifs():
    wl = [(_path(["a", "b", "a", "b"]), 0.5), (_path(["a", "b", "c"]), 0.5)]
    return TPSTry.from_workload(wl).motifs(0.4)


# Fig. 5 vertex labels: 1,3 are 'a'; 2,4 are 'b'; 5,6 are 'c'.
FIG5_LABELS = {1: "a", 2: "b", 3: "a", 4: "b", 5: "c", 6: "c"}
E1 = Edge(1, 1, 2)  # a-b
E2 = Edge(2, 3, 4)  # a-b
E3 = Edge(3, 4, 5)  # b-c
E4 = Edge(4, 2, 6)  # b-c (incident to e1)
E5 = Edge(5, 2, 3)  # b-a, joins e1 and e2


@pytest.fixture()
def matcher():
    return WindowMatcher(fig5_motifs(), dict(FIG5_LABELS))


def edge_sets(matcher, v):
    return {m.eids for m in matcher.matches_at(v)}


class TestFig5Walkthrough:
    def test_e1_single_edge_match(self, matcher):
        assert matcher.offer(E1) is True
        assert edge_sets(matcher, 1) == {frozenset({1})}
        assert edge_sets(matcher, 2) == {frozenset({1})}

    def test_e2_independent_match(self, matcher):
        matcher.offer(E1)
        matcher.offer(E2)
        assert edge_sets(matcher, 3) == {frozenset({2})}
        # e1's entries are untouched: e2 is not connected to e1
        assert edge_sets(matcher, 1) == {frozenset({1})}

    def test_e3_extends_e2_to_abc(self, matcher):
        """Fig. 5: e3 (b-c) joins e2's match to form an a-b-c m3 match
        recorded for vertices 3, 4 and 5."""
        matcher.offer(E1)
        matcher.offer(E2)
        assert matcher.offer(E3) is True
        assert frozenset({2, 3}) in edge_sets(matcher, 3)
        assert frozenset({2, 3}) in edge_sets(matcher, 4)
        assert frozenset({2, 3}) in edge_sets(matcher, 5)
        # older matches are kept, not replaced (Sec. 3)
        assert frozenset({2}) in edge_sets(matcher, 3)

    def test_e4_extends_e1(self, matcher):
        for e in (E1, E2, E3):
            matcher.offer(e)
        matcher.offer(E4)
        assert frozenset({4}) in edge_sets(matcher, 6)       # <e4, m2>
        assert frozenset({1, 4}) in edge_sets(matcher, 2)    # <{e1,e4}, m3>

    def test_e5_pairwise_join_forms_m6(self, matcher):
        """The m6 = a-b-a-b match combines <{e1,e5}, m4> with <e2, m1>
        (Alg. 2 lines 11-18) and lands in matchList for vertices 1-4."""
        for e in (E1, E2, E3, E4):
            matcher.offer(e)
        matcher.offer(E5)
        assert frozenset({1, 5}) in edge_sets(matcher, 2)    # a-b-a   (m4)
        assert frozenset({2, 5}) in edge_sets(matcher, 3)    # b-a-b   (m5)
        for v in (1, 2, 3, 4):
            assert frozenset({1, 2, 5}) in edge_sets(matcher, v)  # m6

    def test_full_window_contents(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        assert len(matcher) == 5


class TestGate:
    def test_non_motif_edge_rejected(self, matcher):
        """An edge whose type matches no single-edge motif never enters
        the window (Sec. 3)."""
        labels = matcher.labels
        labels[10] = "c"
        labels[11] = "c"
        assert matcher.offer(Edge(99, 10, 11)) is False  # c-c: not a motif
        assert len(matcher) == 0
        assert 10 not in matcher.match_list

    def test_motif_edge_accepted(self, matcher):
        assert matcher.offer(E1) is True
        assert len(matcher) == 1


class TestEviction:
    def test_matches_containing_sorted_by_support(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        m_e1 = matcher.matches_containing(1)
        # single-edge a-b (support 1.0) sorts first; support then
        # descends (all other motifs have support 0.5)
        assert m_e1[0].eids == frozenset({1})
        supports = [matcher.motifs.support(m.node) for m in m_e1]
        assert supports == sorted(supports, reverse=True)
        assert all(1 in m.eids for m in m_e1)

    def test_matches_containing_total_order(self, matcher):
        """Matches tied on support and size order by their sorted edge
        ids, so the cluster order never falls to set iteration."""
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        keys = [
            (-matcher.motifs.support(m.node), len(m.eids), sorted(m.eids))
            for m in matcher.matches_containing(1)
        ]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_remove_edges_drops_touching_matches(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        matcher.remove_edges({1})
        assert 1 not in matcher.window
        for v in matcher.match_list:
            for m in matcher.matches_at(v):
                assert 1 not in m.eids
        # e2's own matches survive (they never contained e1)
        assert frozenset({2}) in edge_sets(matcher, 3)

    def test_remove_all(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        matcher.remove_edges(set(matcher.window))
        assert len(matcher) == 0
        assert matcher.match_list == {}
        assert matcher._by_eid == {}

    def test_oldest_follows_arrival_order(self, matcher):
        matcher.offer(E1)
        matcher.offer(E2)
        assert matcher.oldest() == E1
        matcher.remove_edges({E1.eid})
        assert matcher.oldest() == E2

    def test_every_window_edge_has_single_match(self, matcher):
        """The eviction path relies on matches_containing(eid) never being
        empty for a window edge."""
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        matcher.remove_edges({E1.eid})
        for eid in matcher.window:
            assert matcher.matches_containing(eid)


class TestInvariants:
    def test_no_duplicate_matches(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        seen = set()
        for v in matcher.match_list:
            for m in matcher.matches_at(v):
                seen.add(m)
        assert seen == matcher.matches()

    def test_match_list_buckets_by_node_and_degree(self, matcher):
        """matchList files each match under every vertex it holds, in the
        bucket (match node, degree of the vertex in the match)."""
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        matcher.remove_edges({E3.eid})
        filed = set()
        for v, buckets in matcher.match_list.items():
            assert buckets
            for (node, d), ms in buckets.items():
                assert ms
                for m in ms:
                    ends = [x for i in m.eids for x in matcher.window[i].endpoints()]
                    assert m.node == node and ends.count(v) == d
                    filed.add((v, m))
        assert filed == {
            (v, m)
            for m in matcher.matches()
            for v in {x for i in m.eids for x in matcher.window[i].endpoints()}
        }

    def test_match_size_bounded_by_largest_motif(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        cap = matcher.motifs.max_motif_edges()
        for m in matcher.matches():
            assert len(m.eids) <= cap

    def test_matches_are_connected(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        for m in matcher.matches():
            edges = [matcher.window[i].endpoints() for i in m.eids]
            verts = {x for p in edges for x in p}
            # union-find connectivity
            parent = {v: v for v in verts}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in edges:
                parent[find(u)] = find(v)
            assert len({find(v) for v in verts}) == 1

    def test_match_nodes_are_motifs(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        for m in matcher.matches():
            assert matcher.motifs.is_motif(m.node)

    def test_by_eid_index_consistent(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        matcher.remove_edges({E3.eid})
        for eid, ms in matcher._by_eid.items():
            for m in ms:
                assert eid in m.eids
                assert m in matcher.matches()
        for m in matcher.matches():
            for eid in m.eids:
                assert m in matcher._by_eid[eid]


class TestStreamScenarios:
    def test_duplicate_vertex_ids_interleaved(self):
        """Two overlapping a-b-a paths share matches without clobbering."""
        motifs = fig5_motifs()
        labels = {1: "a", 2: "b", 3: "a", 4: "a"}
        m = WindowMatcher(motifs, labels)
        m.offer(Edge(1, 1, 2))
        m.offer(Edge(2, 2, 3))
        m.offer(Edge(3, 2, 4))
        sets2 = {mm.eids for mm in m.matches_at(2)}
        assert frozenset({1, 2}) in sets2  # 1-2-3 a-b-a
        assert frozenset({1, 3}) in sets2  # 1-2-4 a-b-a
        assert frozenset({2, 3}) in sets2  # 3-2-4 a-b-a

    def test_star_does_not_overmatch(self):
        """A b vertex with three a neighbours yields only 2-edge a-b-a
        matches (a-b-a-b needs a second b)."""
        motifs = fig5_motifs()
        labels = {0: "b", 1: "a", 2: "a", 3: "a"}
        m = WindowMatcher(motifs, labels)
        for i, leaf in enumerate((1, 2, 3), start=1):
            m.offer(Edge(i, 0, leaf))
        sizes = {len(mm.eids) for mm in m.matches()}
        assert sizes == {1, 2}


# ---------------------------------------------------------------------------
# Brute-force oracle: the matcher's match set is exactly the connected
# window edge subsets of at most max_motif_edges edges whose full factor
# multiset is a motif.

# Graph scales at which 100-200 edges pass each dataset's motif gate.
ORACLE_SCALE = {"dblp": 150, "lubm": 1000}


@lru_cache(maxsize=None)
def oracle_setup(dataset: str, seed: int, order: str):
    """A generated graph, its motifs and its gated edges in stream order.
    Edges the gate rejects never touch the matcher, so they are left out."""
    g = generate(dataset, scale=ORACLE_SCALE[dataset], seed=seed)
    motifs = TPSTry.from_workload(workload(dataset)).motifs(0.4)
    h = motifs.trie.h
    gated = [
        (u, v)
        for u, v in ordered_stream(g, order, seed=seed)
        if motifs.motif_child(ROOT_KEY, incremental_factors((u, v), (), g.labels, h))
    ]
    return g, motifs, gated


def brute_force_matches(matcher: WindowMatcher) -> set[tuple[frozenset[int], tuple]]:
    window, labels = matcher.window, matcher.labels
    cap = matcher.motifs.max_motif_edges()
    at: dict[int, set[int]] = {}
    for eid, e in window.items():
        for x in e.endpoints():
            at.setdefault(x, set()).add(eid)
    connected: set[frozenset[int]] = set()
    frontier = {frozenset([eid]) for eid in window}
    while frontier:
        connected |= frontier
        frontier = {
            s | {nb}
            for s in frontier
            if len(s) < cap
            for eid in s
            for x in window[eid].endpoints()
            for nb in at[x] - s
        } - connected
    out = set()
    keys: dict[tuple, tuple] = {}  # graph_factors depends only on this shape
    for s in connected:
        pairs = [window[i].endpoints() for i in s]
        deg = Counter(x for p in pairs for x in p)
        shape = (
            tuple(sorted(tuple(sorted((labels[a], labels[b]))) for a, b in pairs)),
            tuple(sorted((labels[x], d) for x, d in deg.items())),
        )
        if shape not in keys:
            sub = LabeledGraph({x: labels[x] for x in deg}, pairs)
            keys[shape] = factor_key(graph_factors(sub, matcher.h))
        if matcher.motifs.is_motif(keys[shape]):
            out.add((s, keys[shape]))
    return out


def assert_oracle(matcher: WindowMatcher) -> None:
    assert {(m.eids, m.node) for m in matcher.matches()} == brute_force_matches(matcher)


class TestBruteForceOracle:
    @pytest.mark.parametrize("dataset", ["dblp", "lubm"])
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2),
        order=st.sampled_from(ORDERS),
        n_edges=st.integers(20, 300),
        removals=st.lists(
            st.tuples(st.integers(0, 299), st.lists(st.integers(0, 10_000), max_size=4)),
            max_size=6,
        ),
    )
    def test_window_matches_equal_brute_force(self, dataset, seed, order, n_edges, removals):
        """Interleaved with remove_edges of arbitrary window edges."""
        g, motifs, edge_order = oracle_setup(dataset, seed, order)
        m = WindowMatcher(motifs, dict(g.labels))
        schedule: dict[int, list[list[int]]] = {}
        for at_edge, picks in removals:
            schedule.setdefault(at_edge, []).append(picks)
        for i, (u, v) in enumerate(edge_order[:n_edges]):
            m.offer(Edge(i, u, v))
            for picks in schedule.get(i, ()):
                live = list(m.window)
                if live:
                    m.remove_edges({live[p % len(live)] for p in picks})
                    assert_oracle(m)
        assert_oracle(m)

    def test_lubm_exercises_the_join(self):
        """LUBM's largest motif has 3 edges, so joins of two matches
        across an arriving edge occur."""
        g, motifs, edge_order = oracle_setup("lubm", 0, "random")
        assert motifs.max_motif_edges() == 3
        m = WindowMatcher(motifs, dict(g.labels))
        for i, (u, v) in enumerate(edge_order):
            m.offer(Edge(i, u, v))
        assert any(len(x) == 3 for x in m.matches())
        assert_oracle(m)
