"""Which program callables the traced run wraps, and the per-layer
metrics computed from their spans.

Layers are the program's modules: ``repro.graphs``, ``repro.core.tpstry``,
``repro.core.motifs``, ``repro.core.loom``, ``repro.partitioners`` and
``repro.eval``. Span names are ``<layer>.<callable>``.
"""
from __future__ import annotations

import numpy as np

from repro.eval.harness import SYSTEMS

from tracing import Tracer

SETUP_SPANS = [
    ("repro.graphs.generators", "generate", "graphs.generate"),
    ("repro.graphs.streams", "ordered_stream", "graphs.order"),
    ("repro.core.tpstry", "TPSTry.from_workload", "tpstry.from_workload"),
    ("repro.core.tpstry", "TPSTry.motifs", "tpstry.motifs"),
]

STREAM_SPANS = [
    ("repro.partitioners.hash_part", "HashPartitioner.add_edge", "hash.add_edge"),
    ("repro.partitioners.ldg", "LDGPartitioner.add_edge", "ldg.add_edge"),
    ("repro.partitioners.fennel", "FennelPartitioner.add_edge", "fennel.add_edge"),
    ("repro.core.loom", "LoomPartitioner.add_edge", "loom.add_edge"),
    ("repro.core.loom", "LoomPartitioner.finalize", "loom.finalize"),
    ("repro.core.loom", "LoomPartitioner._evict", "loom.evict"),
    ("repro.core.loom", "LoomPartitioner._equal_opportunism", "loom.eo"),
    # Loom's own binding of ldg_choose: its LDG fallback.
    ("repro.core.loom", "ldg_choose", "loom.ldg_fallback"),
    ("repro.core.motifs", "WindowMatcher.offer", "motifs.offer"),
    ("repro.core.motifs", "WindowMatcher._extend_with", "motifs.extend"),
    ("repro.core.motifs", "WindowMatcher._join_pairs", "motifs.join"),
    ("repro.core.motifs", "WindowMatcher.matches_containing", "motifs.matches_containing"),
    ("repro.core.motifs", "WindowMatcher.remove_edges", "motifs.remove_edges"),
    # Every caller's ldg_choose: the LDG system and, through the fallback
    # above, Loom.
    ("repro.partitioners.ldg", "ldg_choose", "partitioners.ldg_choose"),
    ("repro.partitioners.base", "PartitionState.neighbours_in", "partitioners.neighbours_in"),
    ("repro.partitioners.base", "PartitionState.observe_edge", "partitioners.observe_edge"),
]

EVAL_SPANS = [
    ("repro.eval.harness", "build_partitioner", "eval.build_partitioner"),
    ("repro.eval.harness", "run_system", "eval.run_system"),
    ("repro.eval.harness", "workload_ipt", "eval.workload_ipt"),
    ("repro.eval.ipt", "partition_tables", "eval.partition_tables"),
    ("repro.eval.ipt", "register_views", "eval.register_views"),
]

LOOM_OWNERS = {"loom.add_edge", "loom.finalize"}


class Layers:
    """Installs the wrappers and keeps the counters their hooks record."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.offers = 0
        self.gate_passed = 0
        self.peak_window = 0
        self.peak_match_list = 0
        self.clusters = 0
        self.cluster_matches = 0
        self.motif_nodes: int | None = None
        self.embeddings: int | None = None
        self.partitioners: list = []
        self._system_of: dict[int, str] = {}

    # ----------------------------------------------------------- hooks
    def _offered(self, args, entered) -> None:
        m = args[0]
        self.offers += 1
        self.gate_passed += bool(entered)
        self.peak_window = max(self.peak_window, len(m.window))
        self.peak_match_list = max(self.peak_match_list, len(m.match_list))

    def _cluster(self, args, matches) -> None:
        self.clusters += 1
        self.cluster_matches += len(matches)

    def _motifs(self, args, index) -> None:
        self.motif_nodes = len(index)

    def _ran(self, args, run) -> None:
        self._system_of[id(run.assignment)] = run.system

    def _evaluated(self, args, result) -> None:
        self.embeddings = result.total_matches

    # ----------------------------------------------------- install sets
    def install_setup(self) -> None:
        for module, path, name in SETUP_SPANS:
            hooks = {"on_result": self._motifs} if name == "tpstry.motifs" else {}
            self.t.install(module, path, name, **hooks)

    def install_stream(self) -> None:
        hooks = {
            "motifs.offer": {"on_result": self._offered},
            "motifs.matches_containing": {"on_result": self._cluster},
        }
        for module, path, name in STREAM_SPANS:
            h = dict(hooks.get(name, {}))
            if name.endswith(".add_edge"):
                h["trace_of"] = lambda args: args[1].eid
            h["owner"] = name.endswith((".add_edge", ".finalize"))
            self.t.install(module, path, name, **h)

    def install_eval(self) -> None:
        hooks = {
            "eval.build_partitioner": {"on_result": lambda a, p: self.partitioners.append(p)},
            "eval.run_system": {
                "trace_of": lambda a: self.t.trace_id(a[0]),
                "on_result": self._ran,
            },
            "eval.workload_ipt": {
                "trace_of": lambda a: self.t.trace_id(self._system_of.get(id(a[2]), "?")),
                "on_result": self._evaluated,
            },
        }
        for module, path, name in EVAL_SPANS:
            self.t.install(module, path, name, **hooks.get(name, {}))

    # --------------------------------------------------------- metrics
    def setup_metrics(self, n_setups: int) -> dict[str, tuple[float, str]]:
        """Set-up layers, in seconds per set-up."""
        out: dict[str, tuple[float, str]] = {}
        gen, order = self.t.stat("graphs.generate"), self.t.stat("graphs.order")
        if gen:
            out["graphs.generate_s"] = (gen[1] / n_setups, "s")
        if order:
            out["graphs.order_s"] = (order[1] / n_setups, "s")
        build, motifs = self.t.stat("tpstry.from_workload"), self.t.stat("tpstry.motifs")
        if build and motifs and build[0]:
            out["tpstry.build_s"] = ((build[1] + motifs[1]) / build[0], "s")
        if self.motif_nodes is not None:
            out["tpstry.motif_nodes"] = (self.motif_nodes, "count")
        return out

    def stream_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Streaming layers: seconds and calls per round (one pass of each
        of the four systems), plus ratios and peaks."""
        out: dict[str, tuple[float, str]] = {}
        st = self.t.stat

        def put(name: str, span: str, field: int, unit: str) -> None:
            s = st(span)
            if s is not None:
                out[name] = (s[field] / rounds, unit)

        if st("motifs.offer") is not None:
            put("motifs.offer_calls", "motifs.offer", 0, "count")
            if self.offers:
                out["motifs.gate_pass_ratio"] = (self.gate_passed / self.offers, "ratio")
            put("motifs.gate_self_s", "motifs.offer", 2, "s")
            out["motifs.peak_window_edges"] = (self.peak_window, "count")
            out["motifs.peak_match_list_vertices"] = (self.peak_match_list, "count")
        put("motifs.extend_s", "motifs.extend", 1, "s")
        put("motifs.join_s", "motifs.join", 1, "s")
        put("motifs.matches_containing_s", "motifs.matches_containing", 1, "s")
        put("motifs.remove_edges_s", "motifs.remove_edges", 1, "s")
        put("motifs.evictions", "loom.evict", 0, "count")
        if self.clusters:
            out["motifs.cluster_matches_mean"] = (self.cluster_matches / self.clusters, "count")
        put("loom.eo_calls", "loom.eo", 0, "count")
        put("loom.eo_self_s", "loom.eo", 2, "s")
        put("loom.ldg_fallback_calls", "loom.ldg_fallback", 0, "count")
        put("loom.ldg_fallback_s", "loom.ldg_fallback", 1, "s")
        put("loom.add_edge_self_s", "loom.add_edge", 2, "s")
        put("loom.finalize_s", "loom.finalize", 1, "s")
        put("partitioners.ldg_choose_s", "partitioners.ldg_choose", 1, "s")
        put("partitioners.ldg_choose_calls", "partitioners.ldg_choose", 0, "count")
        put("partitioners.neighbours_in_s", "partitioners.neighbours_in", 1, "s")
        put("partitioners.neighbours_in_calls", "partitioners.neighbours_in", 0, "count")
        put("partitioners.observe_edge_s", "partitioners.observe_edge", 1, "s")
        # Where Loom's time goes: self time under Loom's calls, by layer.
        by_layer = self.t.self_by_layer(LOOM_OWNERS)
        loom_total = sum(by_layer.values())
        if loom_total > 0 and not LOOM_OWNERS & self.t.missing:
            out["loom.total_s"] = (loom_total / rounds, "s")
            for layer in ("motifs", "loom", "partitioners"):
                out[f"loom.share_{layer}"] = (by_layer.get(layer, 0.0) / loom_total, "ratio")
        return out

    def eval_metrics(self) -> dict[str, tuple[float, str]]:
        """Evaluation layers over one traced Fig. 7 cell (span ``eval.cell``)."""
        out: dict[str, tuple[float, str]] = {}
        ipt_total = 0.0
        for system in SYSTEMS:
            label = self.t.trace_names.index(system) if system in self.t.trace_names else None
            for span, key in (("eval.run_system", "run_system_s"), ("eval.workload_ipt", "workload_ipt_s")):
                if span in self.t.missing or label is None:
                    continue
                secs = self._span_seconds_for_trace(span, label)
                out[f"eval.{key}.{system}"] = (secs, "s")
                if span == "eval.workload_ipt":
                    ipt_total += secs
        tables, views = self.t.stat("eval.partition_tables"), self.t.stat("eval.register_views")
        if tables:
            out["eval.partition_tables_s"] = (tables[1], "s")
        if views:
            out["eval.register_views_s"] = (views[1], "s")
        if tables and views and "eval.workload_ipt" not in self.t.missing:
            sql = ipt_total - tables[1] - views[1]
            out["eval.spark_sql_s"] = (sql, "s")
            out["eval.spark_sql_share_of_cell"] = (sql / self.t.stat("eval.cell")[1], "ratio")
        if self.embeddings is not None:
            out["eval.embeddings"] = (self.embeddings, "count")
        return out

    def _span_seconds_for_trace(self, span: str, trace: int) -> float:
        """Total seconds of ``span`` calls made under trace id ``trace``."""
        t = self.t
        col = lambda c, dt: np.frombuffer(c, dtype=dt)  # noqa: E731
        mask = (col(t.name_col, np.int32) == t.names.index(span)) & (col(t.trace_col, np.int64) == trace)
        return float((col(t.end_col, np.int64)[mask] - col(t.start_col, np.int64)[mask]).sum()) / 1e9
