"""Pinned assignments of Loom, LDG and Fennel on the Fig. 7 grid.

Every (dataset, order) cell at scale 500, k = 8 and the harness's default
Loom window, streamed with order seed 0. Each entry is the first 16 hex
digits of the SHA-256 of the sorted "vertex partition" lines of the
assignment. A refactor that is meant to keep the output must keep these;
a change that moves assignments on purpose updates them and says why.
"""
import hashlib
from functools import lru_cache

import pytest

from repro.eval.harness import build_partitioner
from repro.graphs.generators import generate
from repro.graphs.streams import ordered_stream
from repro.partitioners.base import stream_of
from repro.workloads.queries import workload

DIGESTS = {
    ("dblp", "bfs", "ldg"): "9fe9f8141d3435c6",
    ("dblp", "bfs", "fennel"): "8502c9e1b2773fcb",
    ("dblp", "bfs", "loom"): "fbbafb858dd7e1d2",
    ("dblp", "random", "ldg"): "1524f39b5743ae5f",
    ("dblp", "random", "fennel"): "1524f39b5743ae5f",
    ("dblp", "random", "loom"): "a2a1d1fc0f8d9cf7",
    ("dblp", "dfs", "ldg"): "2deab0cd967f5383",
    ("dblp", "dfs", "fennel"): "e1660066e6879d53",
    ("dblp", "dfs", "loom"): "7c678b5ff8cbdf07",
    ("provgen", "bfs", "ldg"): "99ad43a1974385a6",
    ("provgen", "bfs", "fennel"): "7cddbf3eb0355ac3",
    ("provgen", "bfs", "loom"): "6c003d3461d31133",
    ("provgen", "random", "ldg"): "3542f9def425b579",
    ("provgen", "random", "fennel"): "d4a482fd06aa68ef",
    ("provgen", "random", "loom"): "b9b46bc0e4b14eea",
    ("provgen", "dfs", "ldg"): "a57ab935946e9910",
    ("provgen", "dfs", "fennel"): "24d8d3102ea27b9b",
    ("provgen", "dfs", "loom"): "52ff272df344c257",
    ("musicbrainz", "bfs", "ldg"): "10745007d7b7156d",
    ("musicbrainz", "bfs", "fennel"): "1a36f4b225c80200",
    ("musicbrainz", "bfs", "loom"): "795f06ceaa71e4ec",
    ("musicbrainz", "random", "ldg"): "29c4a26f2b04fa60",
    ("musicbrainz", "random", "fennel"): "6305d3793f3b08f7",
    ("musicbrainz", "random", "loom"): "e2a0bed8292e6517",
    ("musicbrainz", "dfs", "ldg"): "4b86ee429ddfe6fe",
    ("musicbrainz", "dfs", "fennel"): "1280fb0699cd98e0",
    ("musicbrainz", "dfs", "loom"): "0314d2e022c1ab93",
    ("lubm", "bfs", "ldg"): "ad97ed7a020c645d",
    ("lubm", "bfs", "fennel"): "c55e69cff58a994b",
    ("lubm", "bfs", "loom"): "f481e10f9c7ce2a4",
    ("lubm", "random", "ldg"): "66de4ad576c00637",
    ("lubm", "random", "fennel"): "149dd708007571c7",
    ("lubm", "random", "loom"): "d40edbf9f660546d",
    ("lubm", "dfs", "ldg"): "2f560fe2dd1470bb",
    ("lubm", "dfs", "fennel"): "40797526a1895d82",
    ("lubm", "dfs", "loom"): "c72c88f132810c8f",
}


@lru_cache(maxsize=None)
def graph(dataset: str):
    return generate(dataset, scale=500)


def digest(assignment: dict[int, int]) -> str:
    lines = "".join(f"{v} {p}\n" for v, p in sorted(assignment.items()))
    return hashlib.sha256(lines.encode()).hexdigest()[:16]


@pytest.mark.parametrize("dataset,order,system", sorted(DIGESTS))
def test_assignment_digest(dataset, order, system):
    g = graph(dataset)
    p = build_partitioner(system, 8, g, workload(dataset))
    assignment = p.partition(stream_of(g, ordered_stream(g, order, seed=0)))
    assert digest(assignment) == DIGESTS[(dataset, order, system)]
