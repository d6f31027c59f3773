"""Benchmark of the Loom reproduction: ingest cost, tail latency and one
Fig. 7 cell, with a traced run for per-layer numbers.

    python3 perfbench/run.py --workload stream-dblp-bfs --seed 0 --seconds 10 --trace 0

Run from the repository root. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). The line before it is a JSON report with the environment,
the checks, sample counts and assignment digests. See perfbench/NOTES.md.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and make sure the
    program imported is the one in it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def command_output(args: list[str], marker: str = "") -> str:
    """First output line of ``args`` containing ``marker``, or "unknown"."""
    try:
        done = subprocess.run(args, capture_output=True, text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = [x for x in (done.stdout + done.stderr).splitlines() if marker in x]
    return lines[0].strip() if done.returncode == 0 and lines else "unknown"


def environment() -> dict:
    import cell

    return {
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pyspark": version("pyspark"),
        "duckdb": version("duckdb"),
        "jdk": command_output(["java", "-version"], "version"),
        "spark_master": cell.spark_master(),
        "spark_threads": os.cpu_count(),
        "SPARK_DRIVER_MEM": os.environ.get("SPARK_DRIVER_MEM", cell.DEFAULT_DRIVER_MEM),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    import_program()
    import bench

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Spark and DuckDB scratch files stay inside the checkout.
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")

    result, report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    report["environment"] = environment()
    report["peak_rss_mb"] = peak_rss_mb()
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": report["peak_rss_mb"], "unit": "MB"}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
