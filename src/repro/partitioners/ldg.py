"""Linear Deterministic Greedy (LDG) partitioner [Stanton & Kliot, KDD'12].

The paper (Sec. 4) uses LDG both as an evaluation baseline and as Loom's
fallback for edges that cannot form part of any motif match. A vertex is
assigned to the partition maximising

    N(S_i, v) * (1 - |V(S_i)| / C)

where ``N(S_i, v)`` counts v's already-assigned neighbours in ``S_i`` and
``C`` is the per-partition capacity constraint. Ties (including the cold
start where every product is 0) go to the least-loaded partition, which is
what keeps LDG's imbalance at the 1-3% the paper reports.

LDG is defined for vertex streams; following the paper's footnote 7 ("LDG
may partition either vertex or edge streams") we apply the rule to each
not-yet-assigned endpoint as its edge arrives, in endpoint order, scoring
against the adjacency revealed so far.
"""
from __future__ import annotations

from repro.partitioners.base import PartitionState, StreamEdge, StreamingPartitioner


def ldg_choose(state: PartitionState, v: int) -> int:
    """Partition index maximising LDG's weighted neighbour count for ``v``."""
    best_pid = -1
    best_score = float("-inf")
    counts = state.neighbour_counts(v)
    for pid in range(state.k):
        if state.sizes[pid] >= state.capacity:
            continue
        score = counts[pid] * (
            1.0 - state.sizes[pid] / state.soft_capacity
        )
        # Deterministic tie-break: least loaded, then lowest index.
        key = (score, -state.sizes[pid], -pid)
        if best_pid < 0 or key > (best_score, -state.sizes[best_pid], -best_pid):
            best_pid, best_score = pid, score
    if best_pid < 0:  # every partition at capacity: spill to least loaded
        best_pid = state.least_loaded()
    return best_pid


class LDGPartitioner(StreamingPartitioner):
    """Edge-stream LDG."""

    name = "ldg"

    def add_edge(self, e: StreamEdge) -> None:
        st = self.state
        st.observe_edge(e.u, e.v)
        for w in (e.u, e.v):
            if not st.is_assigned(w):
                st.assign(w, ldg_choose(st, w))
