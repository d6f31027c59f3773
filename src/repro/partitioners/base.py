"""Shared streaming-partitioner machinery.

All four systems evaluated in the paper (Hash, LDG, Fennel, Loom) consume
the same input — an ordered stream of labelled undirected edges — and
produce the same output: a vertex-centric k-way assignment (Sec. 1.3).
:class:`PartitionState` tracks vertex placements, per-partition sizes and
the incrementally-revealed adjacency (streaming heuristics score a vertex
by its already-assigned neighbours). Once a vertex is assigned it is never
moved and never replicated (strict one-pass streaming model, Sec. 1.2).
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graphs.model import LabeledGraph


@dataclass(frozen=True)
class StreamEdge:
    """One element of a labelled edge stream."""

    eid: int
    u: int
    v: int
    lu: str
    lv: str


def stream_of(graph: LabeledGraph, order: list[tuple[int, int]]) -> Iterator[StreamEdge]:
    """Materialise an edge ordering of ``graph`` as a labelled stream."""
    for i, (u, v) in enumerate(order):
        yield StreamEdge(i, u, v, graph.label_of(u), graph.label_of(v))


class PartitionState:
    """Vertex assignments + partition occupancies + revealed adjacency."""

    def __init__(self, k: int, n_vertices: int, *, slack: float = 1.1):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.n = n_vertices
        # Hard capacity: the maximum-imbalance cap b·n/k (paper Sec. 4,
        # emulating Fennel's ν·n/k). A partition at this size may not
        # receive further vertices while any alternative exists.
        self.capacity = max(1, math.ceil(slack * n_vertices / k))
        # Soft capacity: LDG's C = n/k. Residual-capacity weights are
        # computed against this, so the penalty reaches zero exactly at
        # the balanced size — with the slacked C the weight never hits
        # zero and BFS neighbour-following snowballs one partition to the
        # hard cap, which is not LDG's published behaviour (1-3% imbalance).
        self.soft_capacity = max(1, math.ceil(n_vertices / k))
        self.sizes = [0] * k
        self.assignment: dict[int, int] = {}
        self.adj: dict[int, set[int]] = {}

    def observe_edge(self, u: int, v: int) -> None:
        """Reveal an edge to the adjacency index (before any assignment)."""
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)

    def assign(self, v: int, pid: int) -> None:
        if v in self.assignment:
            if self.assignment[v] != pid:
                raise ValueError(f"vertex {v} already assigned (no reassignment)")
            return
        self.assignment[v] = pid
        self.sizes[pid] += 1

    def is_assigned(self, v: int) -> bool:
        return v in self.assignment

    def neighbour_counts(self, v: int) -> list[int]:
        """|N(v) ∩ S_i| for every partition i, over the revealed adjacency."""
        counts = [0] * self.k
        for w in self.adj.get(v, ()):
            pid = self.assignment.get(w, -1)
            if pid >= 0:
                counts[pid] += 1
        return counts

    def least_loaded(self) -> int:
        return min(range(self.k), key=lambda i: (self.sizes[i], i))

    def imbalance(self) -> float:
        """max partition size over the balanced ideal n/k."""
        if self.n == 0:
            return 1.0
        return max(self.sizes) / (self.n / self.k)


class StreamingPartitioner(ABC):
    """One-pass partitioner: edges in, vertex->partition map out."""

    name: str = "base"

    def __init__(self, k: int, n_vertices: int, *, slack: float = 1.1):
        self.state = PartitionState(k, n_vertices, slack=slack)

    @abstractmethod
    def add_edge(self, e: StreamEdge) -> None:
        """Consume one stream element, updating assignments."""

    def finalize(self) -> None:
        """Flush any buffered state (no-op for memoryless partitioners)."""

    def partition(self, stream: Iterable[StreamEdge]) -> dict[int, int]:
        """Run the full stream and return the vertex assignment."""
        for e in stream:
            self.add_edge(e)
        self.finalize()
        return dict(self.state.assignment)


def assignment_df(spark: SparkSession, assignment: dict[int, int]) -> DataFrame:
    """Spark DataFrame (vid: long, part: long) from an assignment map."""
    pdf = pd.DataFrame(
        {"vid": list(assignment.keys()), "part": list(assignment.values())}
    )
    return spark.createDataFrame(pdf)
