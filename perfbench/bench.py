"""One benchmark run: set-up, the measured phase, the checks, the metrics."""
from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import cell
import speed
import streaming
from layers import Layers
from streaming import SYSTEMS, StreamResults
from tracing import Tracer

BENCH = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    dataset: str
    order: str
    # Graphs generated per run. Set-up is reported as the median over
    # them and the rounds cycle through them, so a run's figures rest on
    # more than one generated graph.
    sub_streams: int
    # Whether the run times one Fig. 7 cell before the closed loop.
    cell: bool
    # Loom passes per graph at least; each edge's latency is its least
    # over them (see streaming.per_edge_latency_ns).
    latency_passes: int
    # Hash, LDG and Fennel passes spread across each Loom pass. On DBLP,
    # where Hash's pass is shortest, Hash gets two.
    cheap: tuple[str, ...]


# Set-ups per run at least; setup_s is their median.
MIN_SETUPS = 3
DBLP_CHEAP = ("hash", "ldg", "hash", "fennel")
WORKLOADS = {
    "stream-dblp-bfs": Workload("dblp", "bfs", 2, False, 2, DBLP_CHEAP),
    "stream-lubm4000-random": Workload("lubm4000", "random", 1, False, 1, ("hash", "ldg", "fennel") * 2),
    "eval-fig7-dblp": Workload("dblp", "bfs", 2, True, 2, DBLP_CHEAP),
}


@dataclass
class Outcome:
    """What a run's measured phase produced: its operations, the checks
    that failed, one digest per (sub-stream, system), and its metrics."""

    attempted: int
    failed: int
    problems: list[str]
    digests: dict[str, dict[str, str]]
    metrics: dict[str, tuple[float, str]]
    report: dict


def run(name: str, seed: int, seconds: float, trace: bool, out: Path):
    """Returns (result line, report) for one run of workload ``name``."""
    wl = WORKLOADS[name]
    layers = Layers(Tracer()) if trace else None
    spark = None

    def stop_spark() -> None:
        nonlocal spark
        if spark is not None:
            cell.stop_spark(spark)
            spark = None

    try:
        spark_s = warmup_s = 0.0  # wall seconds
        spark_setup_s = 0.0  # the same two steps at reference speed
        if wl.cell:
            bracket = speed.Bracket()
            t0 = time.perf_counter()
            spark = cell.start_spark(out)
            spark_s = time.perf_counter() - t0
            spark_setup_s += spark_s / bracket.close()
            t0 = time.perf_counter()
            cell.warm_up(spark)
            warmup_s = time.perf_counter() - t0
            spark_setup_s += warmup_s / bracket.close()
        if layers:
            layers.install_setup()
        subs = [streaming.set_up(wl.dataset, wl.order, q, streaming.WINDOW) for q in streaming.sub_seeds(seed, wl.sub_streams)]
        setups = [s.setup_s for s in subs]
        while len(setups) < MIN_SETUPS:  # set the last graph up again
            setups.append(streaming.set_up(wl.dataset, wl.order, subs[-1].index, streaming.WINDOW).setup_s)
        if layers:
            layers.t.uninstall()
        setup_s = spark_setup_s + statistics.median(setups)
        if wl.cell:
            outcome = eval_run(wl, subs, spark, stop_spark, seconds, layers, setup_s)
        else:
            outcome = stream_run(wl, subs, seconds, layers, setup_s)
    finally:
        stop_spark()
    metrics = outcome.metrics
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sub_stream_seeds": [s.index for s in subs],
        "setup_s_each": setups,
        "edges_per_sub_stream": [len(s.stream) for s in subs],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_share": outcome.failed / outcome.attempted,
        "problems": outcome.problems,
        "digests": outcome.digests,
        "digests_vs_reference": compare_reference(wl, outcome.digests),
        **outcome.report,
    }
    if layers:
        metrics.update(layers.setup_metrics(len(setups)))
        if wl.cell:
            metrics["spark.session_start_s"] = (spark_s, "s")
            metrics["spark.warmup_s"] = (warmup_s, "s")
        metrics["trace.spans"] = (len(layers.t.name_col), "count")
        path = out / f"trace-{name}-seed{seed}.npz"
        layers.t.write(path)
        report["spans_file"] = str(path.relative_to(BENCH.parent))
        report["absent_per_layer"] = fill_absent(metrics)
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def stream_run(wl: Workload, subs, seconds: float, layers: Layers | None, setup_s: float) -> Outcome:
    """The closed loop; traced, it first streams one untraced round so the
    tracing overhead can be measured."""
    res = StreamResults()
    plain = StreamResults()
    if layers:
        streaming.one_round(subs[0], wl.cheap, plain)
        layers.install_stream()
    # Latencies come from plain runs only.
    streaming.run_rounds(subs, seconds, wl.cheap, res, 1 if layers else wl.latency_passes)
    digests = {
        str(s.index): {system: res.first_digest[(system, s.index)] for system in SYSTEMS
                       if (system, s.index) in res.first_digest}
        for s in subs
    }
    if layers:
        layers.t.uninstall()
        metrics = layers.stream_metrics(res.rounds)
        overhead = res.ms_per_10k("loom") / plain.ms_per_10k("loom") - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        if res.max_over_capacity is not None:
            metrics["partitioners.max_over_capacity"] = (res.max_over_capacity, "count")
    else:
        metrics = closed_loop_metrics(res, setup_s, wl.latency_passes)
        metrics["cell_wall_s"] = (res.cell_s(), "s")
        metrics["loom_ipt_pct_hash"] = (streaming.loom_ipt_pct_hash(subs, res), "%")
    return Outcome(
        res.attempted + plain.attempted,
        res.failed + plain.failed,
        plain.problems + res.problems,
        digests,
        metrics,
        loop_report(res, wl.latency_passes),
    )


def eval_run(wl: Workload, subs, spark, stop_spark, seconds: float, layers: Layers | None,
             setup_s: float) -> Outcome:
    """One Fig. 7 cell on the first graph, then, with Spark's JVM stopped
    so it takes no CPU from the loop, the closed loop over all of them;
    traced, an untraced cell and a traced one instead."""
    sub = subs[0]
    res = StreamResults()
    if layers:
        plain_s, _, plain_rec = cell.run_cell(spark, sub)
        layers.install_stream()
        layers.install_eval()
        cell_s, rows, rec = layers.t.wrap(cell.run_cell, "eval.cell")(spark, sub)
        layers.t.uninstall()
    else:
        t0 = time.perf_counter()
        cell_s, rows, rec = cell.run_cell(spark, sub)
        stop_spark()
        # The cell and the loop together measure for ``seconds``.
        streaming.run_rounds(subs, seconds - (time.perf_counter() - t0), wl.cheap, res, wl.latency_passes)
    attempted, failed, digests, problems = cell.check_cell(rec, sub)
    problems += res.problems
    for system, d in digests.items():
        again = res.first_digest.get((system, sub.index))
        if again is not None and again != d:
            problems.append(f"{system}: closed-loop assignment differs from the cell's")
    if layers:
        more, more_failed, _, more_problems = cell.check_cell(plain_rec, sub)
        attempted += more
        failed += more_failed
        problems += more_problems
        metrics = layers.stream_metrics(1)
        metrics.update(layers.eval_metrics())
        metrics["trace.overhead_pct"] = (100.0 * (cell_s / plain_s - 1.0), "%")
        over = [max(p.state.sizes) - p.state.capacity for p in layers.partitioners if p.name != "hash"]
        if over:
            metrics["partitioners.max_over_capacity"] = (max(over), "count")
        report = {}
    else:
        metrics = closed_loop_metrics(res, setup_s, wl.latency_passes)
        metrics["cell_wall_s"] = (cell_s, "s")
        metrics["loom_ipt_pct_hash"] = (streaming.loom_ipt_pct_hash(subs, res), "%")
        report = loop_report(res, wl.latency_passes)
        report["cell_loom_pct_of_hash"] = next(r.pct_of_hash for r in rows if r.system == "loom")
    return Outcome(attempted, failed, problems, {str(sub.index): digests}, metrics, report)


def closed_loop_metrics(res: StreamResults, setup_s: float, passes: int) -> dict[str, tuple[float, str]]:
    lat = streaming.per_edge_latency_ns(res, passes)
    return {
        "setup_s": (setup_s, "s"),
        **{f"{s}_ms_per_10k": (res.ms_per_10k(s), "ms") for s in SYSTEMS},
        "loom_add_edge_p50_us": (streaming.latency_us(lat, 50), "us"),
        "loom_add_edge_p999_us": (streaming.latency_us(lat, 99.9), "us"),
    }


def loop_report(res: StreamResults, passes: int) -> dict:
    return {
        "rounds": res.rounds,
        "passes": {s: len(res.seconds[s]) for s in SYSTEMS},
        "loom_add_edge_samples": len(streaming.per_edge_latency_ns(res, passes)),
        "loom_add_edge_passes_per_edge": passes,
        "slowness_median": statistics.median(res.slowness) if res.slowness else None,
        "partitioners.max_over_capacity": res.max_over_capacity,
    }


def compare_reference(wl: Workload, digests: dict) -> str:
    """Whether the assignments are byte-identical to the recorded ones."""
    ref = json.loads((BENCH / "reference.json").read_text()).get(f"{wl.dataset}/{wl.order}", {})
    known = [q for q in digests if q in ref]
    if not known:
        return "no reference for these seeds"
    same = all(ref[q][s] == d for q in known for s, d in digests[q].items())
    return "identical" if same else "different"


def fill_absent(metrics: dict) -> list[str]:
    """Adds every declared per-layer metric this run could not measure, as
    0 in its declared unit (a layer the workload does not run spends no
    time and makes no calls), and returns their names."""
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    missing = sorted(m["name"] for m in declared if m["name"] not in metrics)
    for m in declared:
        if m["name"] in missing:
            metrics[m["name"]] = (0, m["unit"])
    return missing
