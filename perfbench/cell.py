"""The eval workload: one Fig. 7 cell on a warm Spark session.

The cell is ``run_experiment(spark, "dblp", "bfs", 8, ...)``. It is given a
session that records, without changing it, what the cell sent to Spark:
the pandas tables behind each ``createDataFrame`` and the row each
``sql(...).collect()`` returned; it also times the cell between those
calls. After the cell, DuckDB runs the same SQL
text on the same tables, so every (system, query) ipt evaluation of the
cell is checked.
"""
from __future__ import annotations

import os
import subprocess
import time
from pathlib import Path

from pyspark.sql import SparkSession

from repro.eval.harness import SYSTEMS, run_experiment
from repro.eval.ipt import workload_ipt
from repro.graphs.generators import generate
from repro.workloads.queries import workload

import speed
import streaming

DEFAULT_DRIVER_MEM = "2g"


def spark_master() -> str:
    """Local Spark with no more task threads than the machine has CPUs."""
    return f"local[{os.cpu_count() or 1}]"


def start_spark(out_dir: Path) -> SparkSession:
    """Start the session with every scratch directory inside ``out_dir``."""
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # Every JVM spark-submit starts: temp files here, no /tmp/hsperfdata.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {spark_master()} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', DEFAULT_DRIVER_MEM)} "
        f"--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )
    # The same session settings as conftest.py and jobs/common.py.
    return (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(out_dir / "spark-warehouse"))
        .getOrCreate()
    )


def stop_spark(spark: SparkSession) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is None:
        return
    if proc.stdin is not None:
        proc.stdin.close()  # the JVM exits when this pipe closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def warm_up(spark: SparkSession) -> None:
    """One small ipt query first, so the timed cell finds Spark's
    DataFrame and SQL code paths warm."""
    graph = generate("dblp", scale=300)
    wl = workload("dblp")[:1]
    workload_ipt(spark, graph, {v: v % streaming.K for v in graph.labels}, wl)


class _RecordedFrame:
    def __init__(self, df, sql: str, session: "RecordingSession"):
        self._df, self._sql, self._session = df, sql, session

    def collect(self):
        rows = self._df.collect()
        self._session.lap()
        self._session.log.append(("sql", self._sql, rows))
        return rows

    def __getattr__(self, name):
        return getattr(self._df, name)


class RecordingSession:
    """A SparkSession stand-in that logs the cell's tables and results,
    and times the cell at reference speed: each stretch between two Spark
    calls returning is scaled by its own bracket (see ``speed``); the
    brackets themselves are not timed."""

    def __init__(self, spark: SparkSession):
        self._spark = spark
        self.log: list[tuple] = []
        self.cell_ns = 0.0
        self._bracket = speed.Bracket()
        self._t0 = time.perf_counter_ns()

    def lap(self) -> None:
        """End the current stretch of the cell."""
        raw = time.perf_counter_ns() - self._t0
        self.cell_ns += raw / self._bracket.close()
        self._t0 = time.perf_counter_ns()

    def createDataFrame(self, data, *args, **kwargs):
        self.log.append(("table", data))
        df = self._spark.createDataFrame(data, *args, **kwargs)
        self.lap()
        return df

    def sql(self, text: str, *args, **kwargs):
        return _RecordedFrame(self._spark.sql(text, *args, **kwargs), text, self)

    def __getattr__(self, name):
        return getattr(self._spark, name)

    def evaluations(self) -> list[tuple[object, object, str, tuple[int, int]]]:
        """(vertices, dedges, sql, (n_matches, n_ipt)) for each query the
        cell ran, with the two tables registered before it."""
        tables: list = []
        out = []
        for entry in self.log:
            if entry[0] == "table":
                tables.append(entry[1])
            else:
                _, sql, rows = entry
                row = rows[0]
                out.append((tables[-2], tables[-1], sql, (int(row["n_matches"]), int(row["n_ipt"]))))
        return out


def run_cell(spark: SparkSession, sub: streaming.SubStream) -> tuple[float, list, RecordingSession]:
    """Time one Fig. 7 cell on ``sub``'s graph; (seconds at reference
    speed, rows, recording)."""
    rec = RecordingSession(spark)
    rows = run_experiment(
        rec, "dblp", "bfs", streaming.K, graph=sub.graph, seed=sub.index, window=sub.window
    )
    rec.lap()
    return rec.cell_ns / 1e9, rows, rec


def check_cell(rec: RecordingSession, sub: streaming.SubStream) -> tuple[int, int, dict[str, str], list[str]]:
    """Check every (system, query) evaluation of the cell against DuckDB
    and the system's assignment against the stream.

    Returns (attempted, failed, digest per system, problems). The cell
    evaluates the systems in ``SYSTEMS`` order, one table pair each.
    """
    evals = rec.evaluations()
    n_queries = len(sub.workload)
    problems: list[str] = []
    digests: dict[str, str] = {}
    failed = 0
    if len(evals) != len(SYSTEMS) * n_queries:
        problems.append(f"cell ran {len(evals)} ipt queries, expected {len(SYSTEMS) * n_queries}")
        return len(SYSTEMS) * n_queries, len(SYSTEMS) * n_queries, digests, problems
    for i, system in enumerate(SYSTEMS):
        group = evals[i * n_queries:(i + 1) * n_queries]
        vertices, dedges = group[0][0], group[0][1]
        assignment = {int(v): int(p) for v, p in zip(vertices["vid"], vertices["part"]) if p >= 0}
        digests[system] = streaming.digest(assignment)
        placed_ok = streaming.check_assignment(assignment, None, sub) == 0
        if not placed_ok:
            problems.append(f"cell {system}: assignment misses stream vertices")
        expected = streaming.ipt_duckdb(dedges, [sql for _, _, sql, _ in group])
        for (_, _, sql, got), want in zip(group, expected):
            if got != want or not placed_ok:
                failed += 1
                if got != want:
                    problems.append(f"cell {system}: Spark {got} != DuckDB {want} for {sql[:60]}...")
    return len(evals), failed, digests, problems
