"""Hash partitioner — the paper's naive baseline (Sec. 5.1).

Vertices are assigned by a deterministic multiplicative hash of their id,
as in the default partitioner of distributed graph databases (the paper
cites Titan). It is perfectly balanced in expectation and completely
structure- and workload-agnostic, which is why every other system is
reported relative to it in Figs. 7-8.
"""
from __future__ import annotations

from repro.partitioners.base import StreamEdge, StreamingPartitioner

_KNUTH = 0x9E3779B1  # 2^32 / golden ratio; stable across processes


def hash_vertex(v: int, k: int, *, seed: int = 0) -> int:
    """Deterministic partition of vertex ``v`` into ``k`` parts."""
    x = (v + seed + 1) * _KNUTH % (1 << 32)
    x ^= x >> 16
    return x % k


class HashPartitioner(StreamingPartitioner):
    """Assign each endpoint the moment it is first seen."""

    name = "hash"

    def __init__(self, k: int, n_vertices: int, *, seed: int = 0):
        super().__init__(k, n_vertices, slack=10.0)  # hash ignores capacity
        self.seed = seed

    def add_edge(self, e: StreamEdge) -> None:
        # Hash never scores by neighbours, so it keeps no adjacency.
        st = self.state
        for w in (e.u, e.v):
            if not st.is_assigned(w):
                st.assign(w, hash_vertex(w, st.k, seed=self.seed))
