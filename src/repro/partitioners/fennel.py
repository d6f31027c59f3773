"""Fennel streaming partitioner [Tsourakakis et al., WSDM'14].

The paper's primary point of comparison (Sec. 5.1), run with the authors'
suggested γ = 1.5. Fennel assigns vertex ``v`` to the partition maximising
the marginal interpolated objective

    |N(v) ∩ S_i| − α · γ · |S_i|^(γ−1),   α = √k · m / n^(3/2)

subject to the hard balance constraint |S_i| < ν · n / k (ν = 1.1, the
same maximum imbalance Loom adopts for b). As with LDG we apply the
vertex rule to each unassigned endpoint of the arriving edge, scored over
the adjacency revealed so far.
"""
from __future__ import annotations

import math

from repro.partitioners.base import PartitionState, StreamEdge, StreamingPartitioner


class FennelPartitioner(StreamingPartitioner):
    name = "fennel"

    def __init__(
        self,
        k: int,
        n_vertices: int,
        n_edges: int,
        *,
        gamma: float = 1.5,
        nu: float = 1.1,
    ):
        super().__init__(k, n_vertices, slack=nu)
        self.gamma = gamma
        self.nu = nu
        n = max(1, n_vertices)
        self.alpha = math.sqrt(k) * max(1, n_edges) / n**1.5
        self.max_size = nu * n / k

    def _choose(self, st: PartitionState, v: int) -> int:
        best_pid, best_key = -1, None
        counts = st.neighbour_counts(v)
        for pid in range(st.k):
            if st.sizes[pid] >= self.max_size:
                continue
            score = counts[pid] - self.alpha * self.gamma * st.sizes[
                pid
            ] ** (self.gamma - 1.0)
            key = (score, -st.sizes[pid], -pid)
            if best_key is None or key > best_key:
                best_pid, best_key = pid, key
        if best_pid < 0:  # all at the ν·n/k cap: spill to least loaded
            best_pid = st.least_loaded()
        return best_pid

    def add_edge(self, e: StreamEdge) -> None:
        st = self.state
        st.observe_edge(e.u, e.v)
        for w in (e.u, e.v):
            if not st.is_assigned(w):
                st.assign(w, self._choose(st, w))
