"""Record the assignment digests that benchmark runs compare against.

    python3 perfbench/reference.py

Streams every sub-stream of workload seeds 0-9 once per system and
writes the SHA-256 of each sorted assignment to perfbench/reference.json,
keyed by "dataset/order" and sub-stream seed. The eval workload streams
DBLP in BFS order with the same window, so its digests are among those of
stream-dblp-bfs.
"""
from __future__ import annotations

import json

import run

SEEDS = 10


def main() -> None:
    run.import_program()
    import bench
    import streaming

    ref: dict[str, dict[str, dict[str, str]]] = {}
    for wl in bench.WORKLOADS.values():
        if wl.cell:
            continue
        key = f"{wl.dataset}/{wl.order}"
        for seed in range(SEEDS):
            for q in streaming.sub_seeds(seed, wl.sub_streams):
                sub = streaming.set_up(wl.dataset, wl.order, q, streaming.WINDOW)
                res = streaming.StreamResults()
                streaming.one_round(sub, wl.cheap, res)
                if res.problems:
                    raise SystemExit(f"{key} sub-stream {q}: {res.problems}")
                ref.setdefault(key, {})[str(q)] = {s: res.first_digest[(s, q)] for s in streaming.SYSTEMS}
                print(key, q, flush=True)
    (run.BENCH / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
