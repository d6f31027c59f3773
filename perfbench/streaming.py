"""Closed-loop streaming of the four systems, plus the output checks.

One client thread calls ``add_edge`` for the next edge only after the
previous call has returned, which is how the paper drives a one-pass
partitioner from disk. Every round runs on fresh partitioners built by
``build_partitioner``; building them is outside the timed region.
"""
from __future__ import annotations

import gc
import hashlib
import math
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field

import duckdb
import numpy as np

from repro.eval.harness import SYSTEMS, build_partitioner
from repro.eval.ipt import partition_tables
from repro.eval.matcher import ipt_sql
from repro.graphs import generators, streams
from repro.partitioners.base import StreamEdge, StreamingPartitioner, stream_of
from repro.workloads.queries import Workload, workload

import speed

SCALE = 20_000
K = 8
WINDOW = 10_000
CHUNK = 256  # edges fed between checks of the stretch deadline
# The generators' own default seeds: sub-stream 0 of seed 0 is exactly
# the graph the jobs in jobs/ stream.
GENERATOR_SEED = {"dblp": 11, "lubm4000": 19}


@dataclass
class SubStream:
    """One generated graph in one stream order, ready to stream."""

    index: int
    graph: object
    stream: list[StreamEdge]
    workload: Workload
    window: int
    prebuilt: dict[str, StreamingPartitioner]
    setup_s: float  # at reference speed
    _vertices: set[int] | None = None

    @property
    def vertices(self) -> set[int]:
        """Every vertex that appears in the stream."""
        if self._vertices is None:
            self._vertices = {x for e in self.stream for x in (e.u, e.v)}
        return self._vertices

    def partitioner(self, system: str) -> StreamingPartitioner:
        """The partitioner built during set-up on first use, then fresh ones."""
        p = self.prebuilt.pop(system, None)
        if p is None:
            p = build_partitioner(system, K, self.graph, self.workload, window=self.window)
        return p


def sub_seeds(seed: int, n: int) -> list[int]:
    """The ``n`` sub-stream seeds of workload seed ``seed``."""
    return [seed * n + j for j in range(n)]


def set_up(dataset: str, order: str, q: int, window: int) -> SubStream:
    """Generate, order and materialise one stream and build its partitioners.

    The workload seed ``q`` reaches ``generate(seed=)`` and
    ``ordered_stream(seed=)`` and nothing else.
    """
    bracket = speed.Bracket()
    t0 = time.perf_counter()
    graph = generators.generate(dataset, scale=SCALE, seed=GENERATOR_SEED[dataset] + q)
    edge_order = streams.ordered_stream(graph, order, seed=q)
    stream = list(stream_of(graph, edge_order))
    wl = workload(dataset)
    prebuilt = {s: build_partitioner(s, K, graph, wl, window=window) for s in SYSTEMS}
    setup_s = (time.perf_counter() - t0) / bracket.close()
    return SubStream(q, graph, stream, wl, window, prebuilt, setup_s)


def digest(assignment: dict[int, int]) -> str:
    """SHA-256 of the sorted "vertex partition" lines of an assignment."""
    lines = "".join(f"{v} {p}\n" for v, p in sorted(assignment.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def check_assignment(assignment: dict[int, int], sizes: list[int] | None, sub: SubStream) -> int:
    """Edges whose placement is wrong: an endpoint unassigned or out of
    range. Every edge counts when a vertex outside the stream was placed or
    the partition sizes do not add up (a vertex counted twice)."""
    if set(assignment) - sub.vertices or (sizes is not None and sum(sizes) != len(assignment)):
        return len(sub.stream)
    bad = {v for v in sub.vertices if not 0 <= assignment.get(v, -1) < K}
    if not bad:
        return 0
    return sum(1 for e in sub.stream if e.u in bad or e.v in bad)


@dataclass
class StreamResults:
    """What the closed loop measured and checked."""

    seconds: dict[str, list[float]] = field(default_factory=lambda: {s: [] for s in SYSTEMS})
    edges: dict[str, list[int]] = field(default_factory=lambda: {s: [] for s in SYSTEMS})
    # Loom's per-call latencies at reference speed: per sub-stream, one
    # array per pass, indexed by edge.
    loom_latency_ns: dict[int, list[np.ndarray]] = field(default_factory=dict)
    slowness: list[float] = field(default_factory=list)
    # First-pass assignments of the two systems loom_ipt_pct_hash compares.
    first: dict[tuple[str, int], dict[int, int]] = field(default_factory=dict)
    first_digest: dict[tuple[str, int], str] = field(default_factory=dict)
    rounds: int = 0
    max_over_capacity: int | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def ms_per_10k(self, system: str) -> float:
        """Table 2's metric: median over passes of ms per 10k edges."""
        return statistics.median(
            s / n * 10_000 * 1000 for s, n in zip(self.seconds[system], self.edges[system])
        )

    def cell_s(self) -> float:
        """Seconds to stream the four systems once: the sum of each
        system's median pass."""
        return sum(statistics.median(self.seconds[s]) for s in SYSTEMS)


def run_rounds(subs: list[SubStream], seconds: float, cheap: tuple[str, ...], res: StreamResults,
               passes: int = 1) -> None:
    """Rounds over the sub-streams in turn until ``seconds`` have passed
    and every sub-stream has had ``passes`` rounds."""
    t_end = time.perf_counter() + seconds
    r = 0
    while r < passes * len(subs) or time.perf_counter() < t_end:
        one_round(subs[r % len(subs)], cheap, res)
        r += 1
    res.rounds += r


def one_round(sub: SubStream, cheap: tuple[str, ...], res: StreamResults) -> None:
    """Stream ``sub`` through a fresh Loom and, between stretches of its
    pass, whole passes of fresh Hash, LDG and Fennel partitioners in the
    order of ``cheap``; check each output after its pass.

    Hash, LDG and Fennel passes take a fraction of Loom's, so their passes
    are spread across Loom's: each system's passes then sample the same
    stretch of time, and a slow stretch of the machine does not fall on one
    system alone. Each partitioner gets every edge in order from one client
    that waits for each call to return.
    """
    stream = sub.stream
    n = len(stream)
    loom = sub.partitioner("loom")
    cuts = [n * i // (len(cheap) + 1) for i in range(len(cheap) + 2)]
    loom_ns = 0.0
    loom_ok = True
    stretches: list[np.ndarray] = []
    gc.collect()
    bracket = speed.Bracket()
    for i in range(len(cheap) + 1):
        if loom_ok:
            try:
                loom_ns += feed(loom, stream, cuts[i], cuts[i + 1], bracket, stretches)
                if i == len(cheap):
                    loom_ns += finalize(loom, bracket)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                loom_ok = False
        if i < len(cheap):
            system = cheap[i]
            p = sub.partitioner(system)
            # Freeze what exists (Loom's half-built state included) so the
            # collector charges this pass for its own objects only.
            gc.freeze()
            try:
                ns = feed(p, stream, 0, n, bracket) + finalize(p, bracket)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                record_failure(system, sub, res)
            else:
                record_pass(system, p, ns / 1e9, sub, res)
            finally:
                gc.unfreeze()
    res.slowness += bracket.factors
    calls = sum(len(a) for a in stretches)
    if loom_ok and calls != n:
        res.problems.append(f"loom got {calls} add_edge calls for {n} edges on sub-stream {sub.index}")
    elif loom_ok:
        res.loom_latency_ns.setdefault(sub.index, []).append(np.concatenate(stretches))
    if loom_ok:
        record_pass("loom", loom, loom_ns / 1e9, sub, res)
    else:
        record_failure("loom", sub, res)


def feed(p: StreamingPartitioner, stream: list[StreamEdge], lo: int, hi: int,
         bracket: speed.Bracket, latencies: list | None = None) -> float:
    """Call ``p.add_edge`` on edges ``lo`` to ``hi``; nanoseconds at
    reference speed. The time is taken in stretches of about
    ``speed.STRETCH_NS``, each scaled by its own bracket. With
    ``latencies``, every call is timed too and each stretch's latencies are
    appended at reference speed."""
    clock = time.perf_counter_ns
    add = p.add_edge
    total = 0.0
    while lo < hi:
        lat = array("q")
        record = lat.append
        t0 = clock()
        deadline = t0 + speed.STRETCH_NS
        while lo < hi and clock() < deadline:
            chunk = stream[lo:min(hi, lo + CHUNK)]
            lo += len(chunk)
            if latencies is None:
                for e in chunk:
                    add(e)
            else:
                for e in chunk:
                    t = clock()
                    add(e)
                    record(clock() - t)
        raw = clock() - t0
        f = bracket.close()
        total += raw / f
        if latencies is not None:
            latencies.append(np.frombuffer(lat, dtype=np.int64) / f)
    return total


def finalize(p: StreamingPartitioner, bracket: speed.Bracket) -> float:
    """``p.finalize()``; nanoseconds at reference speed."""
    t0 = time.perf_counter_ns()
    p.finalize()
    return (time.perf_counter_ns() - t0) / bracket.close()


def record_failure(system: str, sub: SubStream, res: StreamResults) -> None:
    res.attempted += len(sub.stream)
    res.failed += len(sub.stream)
    res.problems.append(f"{system} raised on sub-stream {sub.index}")


def record_pass(system: str, p: StreamingPartitioner, seconds: float, sub: SubStream, res: StreamResults) -> None:
    """Record a pass's time and digest; count its misplaced edges as failed."""
    n = len(sub.stream)
    res.attempted += n
    res.seconds[system].append(seconds)
    res.edges[system].append(n)
    st = p.state
    if system != "hash":  # Hash ignores capacity by design
        over = max(st.sizes) - st.capacity
        res.max_over_capacity = over if res.max_over_capacity is None else max(res.max_over_capacity, over)
    wrong = check_assignment(st.assignment, st.sizes, sub)
    if wrong:
        res.problems.append(f"{system}: {wrong} edges misplaced on sub-stream {sub.index}")
    key = (system, sub.index)
    d = digest(st.assignment)
    if key not in res.first_digest:
        res.first_digest[key] = d
        if system in ("hash", "loom"):
            res.first[key] = dict(st.assignment)
    elif d != res.first_digest[key]:
        wrong = n
        res.problems.append(f"{system}: assignment changed between passes on sub-stream {sub.index}")
    res.failed += wrong


def per_edge_latency_ns(res: StreamResults, passes: int) -> np.ndarray:
    """Loom's latency per streamed edge, the least over the first
    ``passes`` passes of its sub-stream. Passes are deterministic, so a
    call does the same work in each; taking the faster keeps a burst of
    the host that hits one pass out of the figure."""
    return np.concatenate([np.minimum.reduce(a[:passes]) for a in res.loom_latency_ns.values()])


def latency_us(lat_ns: np.ndarray, q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``lat_ns``, in µs."""
    s = np.sort(lat_ns)
    return float(s[max(0, math.ceil(q / 100 * len(s)) - 1)]) / 1000


def workload_ipt_duckdb(graph, assignment: dict[int, int], wl: Workload) -> list[tuple[int, int]]:
    """(n_matches, n_ipt) per query, from DuckDB on ``partition_tables``."""
    _, dedges = partition_tables(graph, assignment)
    return ipt_duckdb(dedges, [ipt_sql(pattern) for pattern, _ in wl])


def ipt_duckdb(dedges, sqls: list[str]) -> list[tuple[int, int]]:
    con = duckdb.connect()
    try:
        con.register("dedges", dedges)
        return [tuple(int(x) for x in con.execute(sql).fetchone()) for sql in sqls]
    finally:
        con.close()


def loom_ipt_pct_hash(subs: list[SubStream], res: StreamResults) -> float:
    """Loom's workload ipt as a % of Hash's, pooled over the sub-streams."""
    total = {"hash": 0.0, "loom": 0.0}
    for sub in subs:
        for system in total:
            per_query = workload_ipt_duckdb(sub.graph, res.first[(system, sub.index)], sub.workload)
            total[system] += sum(f * n_ipt for (_, f), (_, n_ipt) in zip(sub.workload, per_query))
    return 100.0 * total["loom"] / total["hash"]
