"""The Loom partitioner (paper Sec. 4).

Wires together the motif-filtered TPSTry++ (Sec. 2), the sliding-window
matcher (Sec. 3) and two balance-aware assignment heuristics:

* **LDG** for edges that can never belong to a motif match — they are
  assigned the moment they arrive and never enter the window;
* **equal opportunism** for the evicted edge of a full window together
  with its cluster of motif matches ``M_e``.

Equal opportunism scores each partition with a rationed sum of bids

    bid(S_i, ⟨E_k, m_k⟩) = N(S_i, E_k) · (1 − |V(S_i)|/C) · supp(m_k)

over the first ``l(S_i) · |M_e|`` matches of the support-ordered ``M_e``,
where the ration

    l(S_i) = (|V(S_min)| / |V(S_i)|) · α,
    α = 1 if S_i is smallest, 0 if |V(S_i)| > |V(S_min)|·b, else user α

(the paper's Eq. 2 as computed in its own worked example — see DESIGN.md
for the typo note). The winning partition receives every vertex of its
rationed matches; those edges leave the window, and matches sharing them
are dropped. Defaults follow the paper: window t = 10k edges, support
threshold T = 40%, α = 2/3, b = 1.1.
"""
from __future__ import annotations

import math

from repro.core.motifs import Match, WindowMatcher
from repro.core.tpstry import MotifIndex, TPSTry
from repro.graphs.model import Edge, LabeledGraph
from repro.partitioners.base import StreamEdge, StreamingPartitioner
from repro.partitioners.ldg import ldg_choose

DEFAULT_WINDOW = 10_000
DEFAULT_THRESHOLD = 0.4
DEFAULT_ALPHA = 2.0 / 3.0
DEFAULT_B = 1.1


def ration(
    sizes: list[int],
    i: int,
    capacity: int,
    *,
    alpha: float = DEFAULT_ALPHA,
) -> float:
    """The rationing function ``l(S_i)`` over vertex counts ``sizes``.

    Eq. 2 with the semantics of the paper's worked example: the smallest
    partition gets the full ration (α = 1); a partition over the maximum
    imbalance may not bid at all (α = 0); otherwise the inverse size ratio
    scaled by the user α. The imbalance cap is Fennel-style — against the
    capacity ``b·n/k`` — because the example applies the α = 2/3 branch to
    a partition 33% larger than the smallest, which rules out a cap
    relative to |V(S_min)| (see DESIGN.md on Eq. 2).
    """
    s_min = min(sizes)
    s_i = sizes[i]
    if s_i <= s_min:
        return 1.0  # the smallest partition always gets the full ration
    if s_i >= capacity:
        return 0.0  # over the maximum-imbalance cap: may not bid
    return (s_min / s_i) * alpha


class LoomPartitioner(StreamingPartitioner):
    """Streaming, workload-aware partitioner."""

    name = "loom"

    def __init__(
        self,
        k: int,
        n_vertices: int,
        workload: list[tuple[LabeledGraph, float]] | None = None,
        *,
        motifs: MotifIndex | None = None,
        window: int = DEFAULT_WINDOW,
        threshold: float = DEFAULT_THRESHOLD,
        alpha: float = DEFAULT_ALPHA,
        b: float = DEFAULT_B,
        p: int = 251,
        seed: int = 7,
    ):
        super().__init__(k, n_vertices, slack=b)
        if motifs is None:
            if workload is None:
                raise ValueError("provide a workload or a prebuilt MotifIndex")
            motifs = TPSTry.from_workload(workload, p=p, seed=seed).motifs(threshold)
        self.motifs = motifs
        self.t = window
        self.alpha = alpha
        self.b = b
        self.labels: dict[int, str] = {}
        self.matcher = WindowMatcher(motifs, self.labels)
        self._type_supp_cache: dict[tuple[str, str], float] = {}

    # ------------------------------------------------------------- stream
    def add_edge(self, e: StreamEdge) -> None:
        st = self.state
        self.labels.setdefault(e.u, e.lu)
        self.labels.setdefault(e.v, e.lv)
        st.observe_edge(e.u, e.v)
        entered = self.matcher.offer(Edge(e.eid, e.u, e.v))
        if not entered:
            # Sec. 3: e can never be part of a motif match — assign now;
            # it "behaves as if never added to the window" and displaces
            # nothing. An endpoint that currently belongs to P_temp (it
            # has motif matches awaiting allocation) is NOT permanently
            # placed here: window vertices are "accessible in this
            # temporary partition prior to being permanently allocated",
            # and their placement is equal opportunism's decision.
            for w in (e.u, e.v):
                if not st.is_assigned(w) and w not in self.matcher.match_list:
                    st.assign(w, ldg_choose(st, w))
        # Slide the window: it spans the t most recently added stream
        # edges (Sec. 1.3), so buffered motif edges older than t stream
        # positions are evicted and permanently assigned.
        while True:
            oldest = self.matcher.oldest()
            if oldest is None or oldest.eid > e.eid - self.t:
                break
            self._evict()

    def finalize(self) -> None:
        """Drain ``P_temp`` at end of stream (the window is only a staging
        partition; every edge must end up permanently placed)."""
        while len(self.matcher):
            self._evict()

    # ----------------------------------------------------------- eviction
    def _evict(self) -> None:
        e_old = self.matcher.oldest()
        assert e_old is not None
        m_e = self.matcher.matches_containing(e_old.eid)
        if not m_e:  # unreachable: every window edge keeps its 1-edge match
            self._assign_edges({e_old.eid}, None)
            return
        self._equal_opportunism(m_e)

    def _equal_opportunism(self, m_e: list[Match]) -> None:
        """Pick the winning partition + rationed prefix of ``M_e``."""
        st = self.state
        supports = [self.motifs.support(m.node) for m in m_e]
        match_verts = [self.matcher._vertices(m.eids) for m in m_e]
        # N(S_i, E_k) for every partition at once: one pass per match.
        in_part: list[dict[int, int]] = []
        for verts in match_verts:
            hist: dict[int, int] = {}
            for v in verts:
                pid = st.assignment.get(v, -1)
                if pid >= 0:
                    hist[pid] = hist.get(pid, 0) + 1
            in_part.append(hist)
        # LDG-style secondary signal: where the whole cluster's unassigned
        # vertices already have assigned neighbours. Equal opportunism
        # "extends ideas present in LDG" (Sec. 4); without this, clusters
        # whose own vertices are all unassigned (bid 0 everywhere) would
        # scatter round-robin instead of following their neighbourhood.
        # Neighbour pulls are weighted by the workload relevance of the
        # connecting edge type (its single-edge support in the TPSTry++,
        # plus a small floor so unqueried edges still count): the paper's
        # own rationale — edges "may not be traversed with equal
        # likelihood given a workload Q" — applied to the tie-break.
        cluster = {v for verts in match_verts for v in verts}
        nbr_counts = [0.0] * st.k
        for v in cluster:
            if not st.is_assigned(v):
                for w in st.adj.get(v, ()):
                    pid = st.assignment.get(w, -1)
                    if pid >= 0:
                        nbr_counts[pid] += 0.1 + self._edge_type_support(v, w)
        best_pid, best_key, best_n = 0, None, 1
        for pid in range(st.k):
            l_i = ration(st.sizes, pid, st.capacity, alpha=self.alpha)
            if l_i <= 0.0:
                continue
            n_i = max(1, math.ceil(l_i * len(m_e)))
            # Residual weight against the hard cap b·n/k: it stays
            # positive until the ration (l = 0 at the cap) excludes the
            # partition, so a cluster's anchor partition never loses its
            # bid merely for being at the balanced size — the LDG
            # fallback fills to the soft cap n/k, below this.
            resid = 1.0 - st.sizes[pid] / st.capacity
            total = 0.0
            for supp, hist in zip(supports[:n_i], in_part[:n_i]):
                total += hist.get(pid, 0) * resid * supp
            key = (total, nbr_counts[pid] * max(resid, 0.0), -st.sizes[pid], -pid)
            if best_key is None or key > best_key:
                best_pid, best_key, best_n = pid, key, n_i
        if best_key is None:  # every partition over the imbalance cap
            best_pid, best_n = st.least_loaded(), 1
        won = m_e[:best_n]
        eids = {eid for m in won for eid in m.eids}
        self._assign_edges(eids, best_pid)

    def _edge_type_support(self, u: int, v: int) -> float:
        """Single-edge motif support of the (label(u), label(v)) edge type
        (0 for types matching no single-edge motif); cached per type."""
        lu, lv = self.labels.get(u), self.labels.get(v)
        key = (lu, lv) if lu <= lv else (lv, lu)
        supp = self._type_supp_cache.get(key)
        if supp is None:
            from repro.core.signature import incremental_factors

            fac = incremental_factors((0, 1), (), {0: key[0], 1: key[1]}, self.matcher.h)
            node = self.motifs.single_edge_motif(fac)
            supp = self.motifs.support(node) if node is not None else 0.0
            self._type_supp_cache[key] = supp
        return supp

    def _assign_edges(self, eids: set[int], pid: int | None) -> None:
        """Assign every unassigned vertex of ``eids`` to ``pid`` (or via
        LDG when ``pid`` is None), then retire the edges from the window."""
        st = self.state
        verts = sorted({x for i in eids for x in self.matcher.window[i].endpoints()})
        for v in verts:
            if not st.is_assigned(v):
                st.assign(v, pid if pid is not None else ldg_choose(st, v))
        self.matcher.remove_edges(eids)
