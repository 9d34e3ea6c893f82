"""Canonicalization + graph materialize — the wide (shuffle) stages.

Reference semantics re-expressed as two-phase distributed aggregation:
* entity grouping by ``entity_key = sanitize(label).lower()`` with type-set
  union (/root/reference/graph_extractor/src/graph_utils.py:13-88 G1),
* cross-document provenance union (graph_utils.py:144-251 G3) as list columns
  instead of ``"label|d1|d2"`` string packing,
* exact triple dedup on ``(src_key, lower(pred), dst_key)``
  (graph_utils.py:61-64 G2),
* deterministic dense ids by rank in ``entity_key`` order — a deliberate
  strengthening of the reference's insertion-order ids
  (sqlite_support.py:468-474 has no ORDER BY; SURVEY §1.3).

Physical design (why it looks the way it does):
* **Combined single pass**: node mentions and edges shuffle TOGETHER (a
  ``kind`` column), so nodes+edges need one consumption of the record stream
  and one groupby — no mid-pipeline materialize of the full record table.
* **Combiner first**: each batch is reduced to DISTINCT partial rows
  (vectorized pandas ``drop_duplicates``) before the exchange, so a hot key
  ("log" called from every file, "utils.py" at 10^12-file scale) ships one row
  per upstream batch, not one per mention.
* **One sort, merged per block**: the exchange (``pipelines/kg.py``
  ``_canonicalize``) sorts the partials by ``[k1, kind, k2, k3]`` with
  ``k2``/``k3`` blanked on node rows, so each merge identity lands whole in
  one block, and ``merge_bucket`` merges a block in one call. Its output is
  sorted within the block, so the blocks in order are the final node and
  edge order and the sinks need no sort. (A ``groupby().map_groups()`` is
  this same sort plus a per-group split; a hash bucket in front of it would
  only throw the order away.)
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from text_to_graph_ray.util import pa_from_pandas

from text_to_graph_ray.keys import entity_key

SEP = "\x1f"


def _stable_bucket(series: pd.Series, buckets: int) -> pd.Series:
    # deterministic across processes (fixed hash key, no PYTHONHASHSEED issues)
    return (pd.util.hash_pandas_object(series, index=False) % buckets).astype("int64")


def combined_partials(batch: pa.Table, buckets: int) -> pa.Table:
    """Resolved records -> distinct partial rows for BOTH kinds, already in
    the merged-row schema so one kernel (``merge_bucket``) serves every
    merge:

      kind='n': k1=entity_key, k2=label,        k3=type,    repos_packed=repo
      kind='e': k1=src_key,    k2=lower(pred),  k3=dst_key, repos_packed=repo

    One vectorized drop_duplicates per kind; ``bucket`` = stable hash of
    the merge identity (``pandas.util.hash_pandas_object``, process-stable),
    for callers that group the partials themselves — the canonicalization
    exchange drops it and sorts instead. A repo containing ``|`` (the
    provenance separator) raises instead of silently splitting into several
    provenance entries."""
    df = batch.select(["kind", "a", "b", "c", "a_key", "c_key", "repo"]).to_pandas()
    bad = df["repo"].str.contains("|", regex=False, na=False)
    if bad.any():
        raise ValueError(f"repo value {df['repo'][bad].iloc[0]!r} contains '|', the provenance separator")

    n = df[df["kind"] == "node"]
    nodes = pd.DataFrame(
        {"kind": "n", "k1": n["a_key"], "k2": n["a"], "k3": n["b"], "repos_packed": n["repo"]}
    ).drop_duplicates()
    nodes["bucket"] = _stable_bucket(nodes["k1"], buckets)

    e = df[df["kind"] == "edge"]
    edges = pd.DataFrame(
        {"kind": "e", "k1": e["a_key"], "k2": e["b"].str.lower(), "k3": e["c_key"], "repos_packed": e["repo"]}
    ).drop_duplicates()
    edges["bucket"] = _stable_bucket(edges["k1"] + SEP + edges["k2"] + SEP + edges["k3"], buckets)

    d = df[df["kind"] == "def"]
    defs = pd.DataFrame({"kind": "d", "k1": d["a_key"], "k2": d["b"], "k3": "", "repos_packed": ""}).drop_duplicates()
    defs["bucket"] = _stable_bucket(defs["k1"], buckets)

    out = pd.concat([nodes, edges, defs], ignore_index=True)
    return pa_from_pandas(out)


def merge_bucket(group: pd.DataFrame) -> pa.Table:
    """Merge a frame of merged-schema rows that holds each of its merge
    identities whole (one block of the canonicalization exchange:
    ``combined_partials`` output, rows re-keyed by linking, or merged graphs
    unioned across increments): entity rows -> (entity_key, label,
    types_packed, repos_packed); edge rows -> (src, pred, dst,
    repos_packed); def rows dedup. Types and repos are ``|``-packed sets, unioned per key, so merging
    an already-merged row returns it unchanged. Nodes come out sorted by
    ``k1``, edges by ``(k1, k2, k3)``. Python dict work is proportional to
    the frame's DISTINCT rows (already combiner-reduced)."""
    rows_kind, rows_k1, rows_k2, rows_k3, rows_pack = [], [], [], [], []

    n = group[group["kind"] == "n"]
    ents: dict[str, tuple[set, set, set]] = {}
    for k1, k2, k3, rp in zip(n["k1"], n["k2"], n["k3"], n["repos_packed"]):
        ent = ents.get(k1)
        if ent is None:
            ent = ents[k1] = (set(), set(), set())
        ent[0].add(k2)
        ent[1].update(k3.split("|") if k3 else [])
        ent[2].update(rp.split("|"))
    for k in sorted(ents):
        labels, types, repos = ents[k]
        own = [l for l in labels if entity_key(l) == k]
        rows_kind.append("n")
        rows_k1.append(k)
        rows_k2.append(min(own) if own else min(labels))
        rows_k3.append("|".join(sorted(t for t in types if t)))
        rows_pack.append("|".join(sorted(repos)))

    e = group[group["kind"] == "e"]
    eds: dict[tuple, set] = {}
    for k1, k2, k3, rp in zip(e["k1"], e["k2"], e["k3"], e["repos_packed"]):
        eds.setdefault((k1, k2, k3), set()).update(rp.split("|"))
    for (k1, k2, k3) in sorted(eds):
        rows_kind.append("e")
        rows_k1.append(k1)
        rows_k2.append(k2)
        rows_k3.append(k3)
        rows_pack.append("|".join(sorted(eds[(k1, k2, k3)])))

    d = group[group["kind"] == "d"]
    for k1, k2 in sorted(set(zip(d["k1"], d["k2"]))):
        rows_kind.append("d")
        rows_k1.append(k1)
        rows_k2.append(k2)
        rows_k3.append("")
        rows_pack.append("")

    # return Arrow, not pandas: object-dtype pandas blocks force a slow
    # string conversion in every downstream stage (and in materialize)
    return pa.table(
        {
            "kind": pa.array(rows_kind, type=pa.string()),
            "k1": pa.array(rows_k1, type=pa.string()),
            "k2": pa.array(rows_k2, type=pa.string()),
            "k3": pa.array(rows_k3, type=pa.string()),
            "repos_packed": pa.array(rows_pack, type=pa.string()),
        }
    )


def split_nodes(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    t = batch.filter(pc.equal(batch.column("kind"), "n"))
    return pa.table(
        {
            "entity_key": t.column("k1"),
            "label": t.column("k2"),
            "types_packed": t.column("k3"),
            "repos_packed": t.column("repos_packed"),
        }
    )


def split_edges(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    t = batch.filter(pc.equal(batch.column("kind"), "e"))
    return pa.table(
        {
            "src_key": t.column("k1"),
            "pred": t.column("k2"),
            "dst_key": t.column("k3"),
            "repos_packed": t.column("repos_packed"),
        }
    )


def add_dense_index(ds, col: str = "entity_id"):
    """Deterministic 0..N-1 ids over an already-ordered Dataset.

    The Dataset API has no zip-with-index, so this drops to raw Ray for the one
    thing it can't express: per-block offsets. The dataset is materialized
    (in block order when its context preserves order), its per-block row
    counts read from Ray's block metadata (``util.block_rows``: no task, no
    data moved), a prefix sum computed on the driver, and each block gets a
    range column — no data leaves the object store.
    """
    import ray
    import ray.data as rd

    from text_to_graph_ray.util import block_rows

    @ray.remote
    def with_index(t: pa.Table, offset: int) -> pa.Table:
        import numpy as np

        idx = pa.array(np.arange(offset, offset + t.num_rows, dtype="int64"))
        return t.add_column(0, col, idx)

    out_refs = []
    total = 0
    for ref, n in block_rows(ds.materialize()):
        out_refs.append(with_index.remote(ref, total))
        total += n
    return rd.from_arrow_refs(out_refs)
