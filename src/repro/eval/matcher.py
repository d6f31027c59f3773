"""Sub-graph pattern matching as Spark SQL (paper Sec. 1.3 semantics).

A pattern query returns every sub-graph of ``G`` isomorphic to the pattern
(bijective vertex map, edge preservation, label equality). We compile a
pattern to a single SQL n-way self-join over a **denormalised edge table**

    dedges(src, dst, src_label, dst_label, src_part, dst_part)

holding both orientations of every undirected edge with each endpoint's
label and partition. One ``dedges`` alias is emitted per pattern edge; a
shared pattern vertex is expressed by equating the corresponding vid
columns, labels by literal predicates, and isomorphism by ``<>``
constraints between pattern vertices of equal label (different labels can
never collide, so those predicates are omitted).

Joining edge aliases directly — instead of one ``vertices`` alias per
pattern vertex — keeps every join keyed on vids; the vertex-alias
formulation degenerates to a near cross-product of the vertex table on
same-label patterns in both DuckDB and Catalyst.

The same SQL text runs unchanged on DuckDB, which is how
``repro.oracle.assert_equivalent`` validates the Catalyst plans in tests.
Embeddings are counted per bijection (automorphic images count
separately); this is uniform across partitioners so relative ipt is
unaffected.
"""
from __future__ import annotations

from repro.graphs.model import LabeledGraph

DEDGES = "dedges"  # (src, dst, src_label, dst_label, src_part, dst_part)
VERTICES = "vertices"  # (vid, label, part) — stats/balance queries only


def _plan(pattern: LabeledGraph) -> tuple[list[str], list[str], dict[int, tuple[str, str]]]:
    """FROM aliases, WHERE predicates, and a representative (vid, part)
    column pair for every pattern vertex."""
    edges = pattern.edges
    if not edges:
        raise ValueError("pattern must have at least one edge")
    froms = [f"{DEDGES} e{j}" for j in range(len(edges))]
    wheres: list[str] = []
    rep: dict[int, tuple[str, str]] = {}  # pattern vertex -> (vid col, part col)
    for j, (a, b) in enumerate(edges):
        for v, side in ((a, "src"), (b, "dst")):
            col = (f"e{j}.{side}", f"e{j}.{side}_part")
            if v in rep:
                wheres.append(f"{rep[v][0]} = {col[0]}")
            else:
                rep[v] = col
                wheres.append(f"e{j}.{side}_label = '{pattern.label_of(v)}'")
    vids = sorted(pattern.labels)
    for i, u in enumerate(vids):
        for w in vids[i + 1 :]:
            if pattern.label_of(u) == pattern.label_of(w):
                wheres.append(f"{rep[u][0]} <> {rep[w][0]}")
    return froms, wheres, rep


def embeddings_sql(pattern: LabeledGraph) -> str:
    """SELECT one row per embedding: matched vertex ids m0..m{n-1} in
    pattern-vertex order."""
    froms, wheres, rep = _plan(pattern)
    cols = ", ".join(
        f"{rep[v][0]} AS m{i}" for i, v in enumerate(sorted(pattern.labels))
    )
    return f"SELECT {cols} FROM {', '.join(froms)} WHERE {' AND '.join(wheres)}"


def ipt_sql(pattern: LabeledGraph) -> str:
    """SELECT the embedding count and the total inter-partition traversals:
    per embedding, one ipt for every pattern edge whose matched endpoints
    live in different partitions (Sec. 1.3's quality measure)."""
    froms, wheres, _ = _plan(pattern)
    cut = " + ".join(
        f"(CASE WHEN e{j}.src_part <> e{j}.dst_part THEN 1 ELSE 0 END)"
        for j in range(pattern.n_edges)
    )
    return (
        f"SELECT COUNT(*) AS n_matches, "
        f"COALESCE(SUM({cut}), 0) AS n_ipt "
        f"FROM {', '.join(froms)} WHERE {' AND '.join(wheres)}"
    )
