"""Sliding-window motif matching over a graph stream (paper Sec. 3, Alg. 2).

The :class:`WindowMatcher` maintains Loom's temporary partition ``P_temp``
(the window of the most recent motif-relevant edges) together with the
``matchList`` map: vertex -> ⟨edge-set, trie-node⟩ motif matches containing
that vertex. All isomorphism checks are incremental factor arithmetic
against the motif-filtered TPSTry++ — signatures are never recomputed from
scratch.

``fac(e, g)`` depends only on e's endpoint labels and their degrees in
``g``, so matchList buckets each vertex's matches by (trie node, degree of
the vertex in the match), and a bucket that the arriving edge cannot extend
is skipped without touching its matches (see ``_children_of``).

Per arriving edge ``e = (v1, v2)``:

1. If ``e``'s single-edge factors match no single-edge motif, it is
   rejected (the caller assigns it immediately via LDG; it never enters the
   window and displaces nothing).
2. Every existing match touching ``v1`` or ``v2`` is extended with ``e`` if
   the match's trie node has a motif child whose factor difference equals
   ``fac(e, match)`` (Alg. 2 lines 4-8); then ``⟨{e}, m⟩`` joins matchList.
3. Pairs of matches from matchList(v1) x matchList(v2) that contain ``e``
   are recursively joined edge-by-edge from the smaller into the larger,
   recording a new match only when the smaller match is exhausted
   (Alg. 2 lines 11-18).

New matches never replace old ones; matches are dropped only when one of
their edges is permanently assigned to a partition (``remove_edges``).
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core.tpstry import ROOT_KEY, FactorKey, MotifIndex
from repro.graphs.model import Edge


@dataclass(frozen=True, slots=True)
class Match:
    """A motif-matching sub-graph in the window: its window edge ids and
    the TPSTry++ node (motif) it matches."""

    eids: frozenset[int]
    node: FactorKey

    def __len__(self) -> int:
        return len(self.eids)


class WindowMatcher:
    """``P_temp`` + ``matchList`` state machine (one instance per stream)."""

    def __init__(self, motifs: MotifIndex, labels: dict[int, str]):
        self.motifs = motifs
        self.labels = labels  # shared, grows as the stream reveals vertices
        self.h = motifs.trie.h
        self.window: OrderedDict[int, Edge] = OrderedDict()  # eid -> Edge, arrival order
        # vertex -> (trie node, degree of the vertex in the match) -> matches
        self.match_list: dict[int, dict[tuple[FactorKey, int], set[Match]]] = {}
        self._by_eid: dict[int, set[Match]] = {}  # edge -> matches containing it
        self._max_edges = motifs.max_motif_edges()
        # (node, label_a, label_b, deg_a) -> {deg_b: motif child}: see _children_of
        self._children: dict[tuple[FactorKey, str, str, int], dict[int, FactorKey]] = {}

    # ---------------------------------------------------------------- utils
    def __len__(self) -> int:
        return len(self.window)

    def oldest(self) -> Edge | None:
        return next(iter(self.window.values()), None)

    def matches(self) -> set[Match]:
        """Every match currently in the window."""
        return set().union(*self._by_eid.values())

    def matches_at(self, v: int) -> set[Match]:
        """The matches that contain vertex ``v`` (its matchList entry)."""
        return set().union(*self.match_list.get(v, {}).values())

    def _vertices(self, eids: frozenset[int]) -> set[int]:
        return {x for i in eids for x in self.window[i].endpoints()}

    def _degrees(self, eids: frozenset[int]) -> dict[int, int]:
        """Sub-graph degree of each vertex of a window edge set."""
        deg: dict[int, int] = {}
        for i in eids:
            e = self.window[i]
            deg[e.u] = deg.get(e.u, 0) + 1
            deg[e.v] = deg.get(e.v, 0) + 1
        return deg

    def _children_of(self, node: FactorKey, la: str, lb: str, da: int) -> dict[int, FactorKey]:
        """Memoised ``{deg_b: child}`` for an ``la``-``lb`` edge added to a
        match at ``node`` where its ``la`` endpoint has degree ``da``."""
        key = (node, la, lb, da)
        out = self._children.get(key)
        if out is None:
            h = self.h
            fixed = (h.edge_factor(la, lb), h.degree_factor(la, da + 1))
            out = {}
            for db in range(self._max_edges):
                fac = tuple(sorted(fixed + (h.degree_factor(lb, db + 1),)))
                child = self.motifs.motif_child(node, fac)
                if child is not None:
                    out[db] = child
            self._children[key] = out
        return out

    def _record(self, m: Match) -> None:
        """Insert a match into matchList for all its vertices; dedup."""
        if m in self._by_eid.get(next(iter(m.eids)), ()):
            return
        for v, d in self._degrees(m.eids).items():
            self.match_list.setdefault(v, {}).setdefault((m.node, d), set()).add(m)
        for eid in m.eids:
            self._by_eid.setdefault(eid, set()).add(m)

    # ------------------------------------------------------------ main path
    def offer(self, e: Edge) -> bool:
        """Process a new stream edge. Returns True if it entered the window
        (matched a single-edge motif), False if the caller must assign it
        immediately."""
        node = self._children_of(ROOT_KEY, self.labels[e.u], self.labels[e.v], 0).get(0)
        if node is None:
            return False
        self.window[e.eid] = e
        self._extend_with(e)
        self._record(Match(frozenset([e.eid]), node))
        self._join_pairs(e)
        return True

    def _extend_with(self, e: Edge) -> None:
        """Alg. 2 lines 4-8: grow each match touching e's endpoints by e,
        visiting only the buckets that e can extend."""
        window, grown = self.window, []
        for a, b in ((e.u, e.v), (e.v, e.u)):
            la, lb = self.labels[a], self.labels[b]
            for (node, da), bucket in self.match_list.get(a, {}).items():
                children = self._children_of(node, la, lb, da)
                if not children:
                    continue
                for m in bucket:
                    db = 0
                    for i in m.eids:
                        x = window[i]
                        db += (x.u == b) + (x.v == b)
                    child = children.get(db)
                    if child is not None:
                        grown.append(Match(m.eids | {e.eid}, child))
        # A match holding both endpoints is grown twice; _record dedups.
        for m in grown:
            self._record(m)

    def _join_pairs(self, e: Edge) -> None:
        """Alg. 2 lines 11-18: join matches across e's two endpoints.

        Any *newly formed* combined match must contain the just-arrived
        edge ``e`` (joins among older matches were already attempted when
        their own last edge arrived), and a match holding ``e`` holds both
        endpoints; so each one is paired with the matches at the other
        endpoint. ``{e}`` is left out: big + {e} is what _extend_with did,
        and {e} + {e'} reaches the same trie node as extending {e'} by e.
        A match at the largest-motif size can never absorb another edge.
        """
        cap = self._max_edges
        anchored = [m for m in self._by_eid[e.eid] if 1 < len(m.eids) < cap]
        if not anchored:
            return

        def joinable(v: int) -> list[Match]:
            return [m for ms in self.match_list[v].values() for m in ms if len(m.eids) < cap]

        at_u, at_v = joinable(e.u), joinable(e.v)
        for a in anchored:
            for m2 in at_v:
                self._join(a, m2)
            for m1 in at_u:
                if e.eid not in m1.eids:
                    self._join(m1, a)

    def _join(self, m1: Match, m2: Match) -> None:
        """Grow the larger of two overlapping matches by the other's edges."""
        if m2.eids <= m1.eids or m1.eids <= m2.eids:
            return
        big, small = (m1, m2) if len(m1.eids) >= len(m2.eids) else (m2, m1)
        rest = small.eids - big.eids
        if len(big.eids) + len(rest) <= self._max_edges:
            self._grow(big.eids, big.node, rest, self._degrees(big.eids))

    def _grow(
        self,
        base: frozenset[int],
        node: FactorKey,
        remaining: frozenset[int],
        deg: dict[int, int],
    ) -> None:
        """Recursively add ``remaining`` edges to ``base``; record the match
        only when every edge has been placed ("grow ... updating matchList
        only if all edges from the smaller match have been added").
        ``deg`` carries the sub-graph degrees of ``base``."""
        if not remaining:
            self._record(Match(base, node))
            return
        for eid in sorted(remaining):
            x = self.window[eid]
            du, dv = deg.get(x.u, 0), deg.get(x.v, 0)
            if not du and not dv:
                continue  # trie children always add incident edges
            child = self._children_of(node, self.labels[x.u], self.labels[x.v], du).get(dv)
            if child is not None:
                ndeg = dict(deg)
                ndeg[x.u], ndeg[x.v] = du + 1, dv + 1
                self._grow(base | {eid}, child, remaining - {eid}, ndeg)

    # ------------------------------------------------------------ eviction
    def matches_containing(self, eid: int) -> list[Match]:
        """All window matches containing edge ``eid``, sorted by descending
        motif support then ascending size (Sec. 4's support ordering; the
        single-edge match always sorts first by support monotonicity).
        Ties break on the sorted edge ids, a total order, so the result
        never depends on set iteration order."""
        out = self._by_eid.get(eid, set())
        return sorted(
            out,
            key=lambda m: (-self.motifs.support(m.node), len(m.eids), sorted(m.eids)),
        )

    def remove_edges(self, eids: set[int]) -> None:
        """Permanently assign edges: drop them from the window and drop
        every match touching any of them (their edges left ``P_temp``)."""
        doomed = set()
        for eid in eids:
            doomed |= self._by_eid.get(eid, set())
        for m in doomed:
            for v, d in self._degrees(m.eids).items():
                buckets = self.match_list[v]
                bucket = buckets[(m.node, d)]
                bucket.discard(m)
                if not bucket:
                    del buckets[(m.node, d)]
                    if not buckets:
                        del self.match_list[v]
            for eid in m.eids:
                s = self._by_eid[eid]
                s.discard(m)
                if not s:
                    del self._by_eid[eid]
        for eid in eids:
            self.window.pop(eid, None)
