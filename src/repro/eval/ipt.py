"""Inter-partition-traversal (ipt) accounting over a partitioned graph.

This is the paper's partition-quality measure (Sec. 1.3, 5): execute the
query workload ``Q`` over the partitioned graph and count traversals of
edges whose endpoints live in different partitions, weighted by query
frequency. Like the paper we execute over *logical* partitions — the
partition id is a column, and the counting is a Spark SQL aggregation over
the embedding join produced by :mod:`repro.eval.matcher`.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import SparkSession

from repro.eval.matcher import DEDGES, VERTICES, ipt_sql
from repro.graphs.model import LabeledGraph
from repro.workloads.queries import Workload


def partition_tables(
    graph: LabeledGraph, assignment: dict[int, int]
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Pandas (vertices, dedges) tables for a partitioned graph.

    ``vertices`` is (vid, label, part) — vertices the partitioner never saw
    (isolated; they join no embedding) get part = -1. ``dedges`` holds both
    orientations of every undirected edge, denormalised with each
    endpoint's label and partition (see :mod:`repro.eval.matcher`).
    """
    vids = sorted(graph.labels)
    vertices = pd.DataFrame(
        {
            "vid": vids,
            "label": [graph.label_of(v) for v in vids],
            "part": [assignment.get(v, -1) for v in vids],
        }
    )
    ce = graph.edges
    src = [u for u, _ in ce] + [v for _, v in ce]
    dst = [v for _, v in ce] + [u for u, _ in ce]
    dedges = pd.DataFrame(
        {
            "src": src,
            "dst": dst,
            "src_label": [graph.label_of(v) for v in src],
            "dst_label": [graph.label_of(v) for v in dst],
            "src_part": [assignment.get(v, -1) for v in src],
            "dst_part": [assignment.get(v, -1) for v in dst],
        }
    )
    return vertices, dedges


def register_views(
    spark: SparkSession, vertices: pd.DataFrame, dedges: pd.DataFrame
) -> None:
    """Register the two tables as the temp views the compiled SQL expects."""
    spark.createDataFrame(vertices).createOrReplaceTempView(VERTICES)
    spark.createDataFrame(dedges).createOrReplaceTempView(DEDGES)


@dataclass(frozen=True)
class QueryIpt:
    """Per-query result: embeddings found and ipt charged."""

    n_matches: int
    n_ipt: int
    frequency: float

    @property
    def weighted_ipt(self) -> float:
        return self.frequency * self.n_ipt


@dataclass(frozen=True)
class WorkloadIpt:
    """Workload-level result: the quality of one partitioning."""

    per_query: tuple[QueryIpt, ...]

    @property
    def total(self) -> float:
        """Frequency-weighted ipt — the paper's quality score."""
        return sum(q.weighted_ipt for q in self.per_query)

    @property
    def total_matches(self) -> int:
        return sum(q.n_matches for q in self.per_query)


def workload_ipt(
    spark: SparkSession,
    graph: LabeledGraph,
    assignment: dict[int, int],
    workload: Workload,
) -> WorkloadIpt:
    """Execute ``workload`` over the partitioned ``graph`` and count ipt."""
    vertices, dedges = partition_tables(graph, assignment)
    register_views(spark, vertices, dedges)
    results = []
    for pattern, freq in workload:
        row = spark.sql(ipt_sql(pattern)).collect()[0]
        results.append(QueryIpt(int(row["n_matches"]), int(row["n_ipt"]), freq))
    return WorkloadIpt(tuple(results))
