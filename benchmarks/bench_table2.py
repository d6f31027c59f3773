"""Benchmark for Table 2 — time to partition 10k edges.

One benchmark per (dataset, system) cell, streaming a full BFS-ordered
stream through a fresh partitioner (steady-state, same methodology as
``jobs/table2_throughput.py``); the reproduced metric is the round time
normalised per 10k edges. Shape to verify against the paper: Hash
fastest, LDG ≈ Fennel, Loom slower by a small factor (paper: avg 2-3x
Fennel, range 1.5-7.1x).
"""
import pytest

from repro.eval.harness import build_partitioner
from repro.graphs.generators import generate
from repro.graphs.streams import ordered_stream
from repro.partitioners.base import stream_of
from repro.workloads.queries import workload

SCALE = 3_000
DATASETS = ["dblp", "provgen", "musicbrainz", "lubm", "lubm4000"]
SYSTEMS = ["hash", "ldg", "fennel", "loom"]

_cache = {}


def dataset(name):
    if name not in _cache:
        g = generate(name, scale=SCALE)
        order = ordered_stream(g, "bfs", seed=0)
        _cache[name] = (g, list(stream_of(g, order)), workload(name))
    return _cache[name]


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("name", DATASETS)
def test_partition_stream(benchmark, name, system):
    g, stream, wl = dataset(name)
    benchmark.extra_info["n_edges"] = len(stream)
    benchmark.extra_info["ms_per_10k_factor"] = 10_000 / len(stream)

    def one_round():
        return build_partitioner(system, 8, g, wl, window=10_000).partition(stream)

    assignment = benchmark.pedantic(one_round, rounds=3, iterations=1)
    assert len(assignment) > 0
