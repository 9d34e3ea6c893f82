"""The flagship KG-construction pipeline (SURVEY §3.4 lifecycle):

    read_parquet(repo_files)                     block-split, column-pruned
      -> map_batches(add_sha256)                 stateless tasks (fused chain)
      -> map_batches(chunk_files)                code-aware chunking
      -> map_batches(extract_records)            per-lang rules (+ def-site rows)
      -> map_batches(_plain_keys)                vectorized entity keys
      -> map_batches(combined_partials)          combiner: distinct rows/batch
      -> link_merged                             alias linking of the partials
                                                 (stateless MergedLinker pass,
                                                 broadcast pruned defs table)
      -> sort(k1, kind, g2, g3)                  THE exchange, in sink order
         -> map_batches(merge_bucket)            one merge per block
      -> write_parquet(merged/)                  checkpoint of the same result
      -> split + dense ids (prefix sum)          no sort: blocks are in order
      -> write_parquet(nodes/, edges/)

Two entry shapes:
* ``graph_tables`` — lazy end-to-end for queries/tests (only the combiner
  partials and the vocabulary-sized merged graph are materialized);
* ``run`` — the checkpointed job: extraction lands in per-partition parquet +
  manifests; interrupted runs resume via manifest anti-join without
  recomputing completed partitions.

Nothing here calls ray.init(); callers own the session.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow as pa

from text_to_graph_ray.util import block_rows, parquet_row_count, read_parquet_clean
import pyarrow.compute as pc

from text_to_graph_ray.config import DEFAULT_CONFIG, PipelineConfig
from text_to_graph_ray.stages.canonicalize import (
    add_dense_index,
    combined_partials,
    merge_bucket,
    split_edges,
    split_nodes,
)
from text_to_graph_ray.stages.chunker import chunk_files
from text_to_graph_ray.stages.extract import extract_records
from text_to_graph_ray.stages.hashing import add_sha256

from text_to_graph_ray.state.checkpoint import CheckpointStore, part_ids, require_file_keys


def _input_blocks(input_path: str) -> int:
    """Read-task count: ~4 MB of parquet per block (extraction is the
    bottleneck at ~1.6 MB/s/core, so a block is a few seconds of work —
    small enough to load-balance, big enough to amortize task overhead).
    Ray's default sizing targets much larger blocks and would serialize small
    corpora onto one task; capped so huge inputs don't explode the task
    count."""
    total = 0
    if os.path.isdir(input_path):
        for root, _, names in os.walk(input_path):
            total += sum(os.path.getsize(os.path.join(root, n)) for n in names if n.endswith(".parquet"))
    elif os.path.exists(input_path):
        total = os.path.getsize(input_path)
    return max(16, min(1024, total // (4 << 20) or 16))


def extract_chain(ds, cfg: PipelineConfig = DEFAULT_CONFIG):
    """sha -> chunk -> extract over a (repo, path, lang, content) dataset —
    the ONE extraction chain, shared by ``records_dataset`` (lazy queries) and
    ``run`` (checkpointed job) so config knobs like ``two_pass`` can never
    silently diverge between the two entry points. Its first stage rejects
    a null ``repo`` or ``path`` with a ``ValueError`` naming the column."""

    def checked_sha256(b: pa.Table) -> pa.Table:
        require_file_keys(b.column("repo"), b.column("path"))
        return add_sha256(b)

    ds = ds.map_batches(checked_sha256, batch_format="pyarrow", batch_size=cfg.batch_size)
    ds = ds.map_batches(lambda b: chunk_files(b, cfg), batch_format="pyarrow", batch_size=cfg.batch_size)
    if cfg.two_pass:
        # L1 mentions -> L2 triples gated on the mention set (reference "high
        # resolution" path, graph_generator.py:378-382). Fused in one call so
        # a chunk's records never split across the filter's batch boundary.
        from text_to_graph_ray.stages.extract import mention_consistency_filter

        ds = ds.map_batches(
            lambda b: mention_consistency_filter(extract_records(b)), batch_format="pyarrow", batch_size=cfg.batch_size
        )
    else:
        ds = ds.map_batches(extract_records, batch_format="pyarrow", batch_size=cfg.batch_size)
    return ds


def records_dataset(input_path: str, cfg: PipelineConfig = DEFAULT_CONFIG):
    """read -> sha -> chunk -> extract. Column-pruned at the read."""
    ds = read_parquet_clean(
        input_path, columns=["repo", "path", "lang", "content"], override_num_blocks=_input_blocks(input_path)
    )
    return extract_chain(ds, cfg)


def _with_part(batch: pa.Table, num_partitions: int) -> pa.Table:
    return batch.append_column("part_id", part_ids(batch.column("repo"), batch.column("path"), num_partitions))


_DEFS_SCHEMA = pa.schema([("k1", pa.string()), ("k2", pa.string())])


def last_dot_segment(arr: pa.Array) -> pa.Array:
    """Vectorized ``key.rsplit('.', 1)[-1]`` (Arrow kernels only): reverse,
    split at the FIRST dot, take the head, reverse back."""
    rev = pc.utf8_reverse(arr)
    return pc.utf8_reverse(pc.list_element(pc.split_pattern(rev, ".", max_splits=1), 0))


def _dotted_keys_of(b: pa.Table) -> pa.Array:
    """Distinct dotted entity keys of one block of merged-schema rows (k1 of
    every row + k3 of edge rows) — the only keys the alias rule can ever
    rewrite."""
    ks = [pc.unique(b.column("k1").combine_chunks())]
    k3 = b.filter(pc.equal(b.column("kind"), "e")).column("k3").combine_chunks()
    ks.append(pc.unique(k3))
    allk = pc.unique(pa.concat_arrays([k.cast(pa.string()) for k in ks]))
    return allk.filter(pc.match_substring(allk, "."))


def dotted_query_names(merged):
    """Per-block-distinct LAST SEGMENTS of the dotted keys of merged-schema
    rows, combiner partials included (lazy Dataset; its row count
    upper-bounds the true distinct count).

    These are the only names ``resolve_alias`` can ever probe the defs index
    with — so the broadcast defs table can be pruned to exactly these names
    before it ever leaves the workers. On code-shaped corpora this collapses
    the broadcast from |all defined names| (~1 row per function in the corpus)
    to |distinct dotted call targets| — orders of magnitude smaller."""
    return merged.map_batches(
        lambda b: pa.table({"name": pc.unique(last_dot_segment(_dotted_keys_of(b)))}),
        batch_format="pyarrow",
    )


def defs_table_from_merged(merged, names: pa.Array | None = None):
    """The (name, module) def-site pairs of merged-schema rows (combiner
    partials included) as ONE deduped Arrow table.

    This is the BROADCAST representation: at 800k defs, collecting a Python
    dict cost 4.4 s on the driver + 2.3 s to ``ray.put`` (pickle) + ~2 s to
    deserialize per consumer — all width-insensitive wall that capped
    scaling efficiency. Arrow buffers collect via ``to_arrow_refs`` (no
    driver-side row loop), ``ray.put`` zero-copy, and map zero-copy into
    every worker process of the relink pass, whose cached ``MergedLinker``
    builds the lookup dict once per process.

    ``names`` (small, from :func:`dotted_query_names`) pushes a semi-join
    prune INTO the workers: only def rows whose name can actually be probed
    are collected at all."""
    import ray

    def defs_of(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b.column("kind"), "d")).select(["k1", "k2"])
        if names is not None:
            t = t.filter(pc.is_in(t.column("k1"), value_set=names))
        return t.group_by(["k1", "k2"]).aggregate([])

    d = merged.map_batches(defs_of, batch_format="pyarrow")
    tbls = [t for t in ray.get(d.to_arrow_refs()) if t.num_rows]
    if not tbls:
        return _DEFS_SCHEMA.empty_table()
    t = pa.concat_tables([t.select(["k1", "k2"]).cast(_DEFS_SCHEMA) for t in tbls])
    return t.group_by(["k1", "k2"]).aggregate([])  # cross-block dedup, C speed


def _plain_keys(batch: pa.Table) -> pa.Table:
    """No-linking key computation (link_aliases=False path) — vectorized."""
    from text_to_graph_ray.stages.linker import entity_key_array

    return batch.append_column("a_key", entity_key_array(batch.column("a"))).append_column(
        "c_key", entity_key_array(batch.column("c"))
    )


# record-level stages (keys / partials) use whole-block batches: per-call
# pandas overhead is ~3-5 ms, so slicing tens of millions of records into
# small batches burns more time in fixed overhead than in work, and a fixed
# batch size larger than the block forces cross-block bundling that breaks
# operator fusion
_RECORD_BATCH_SIZE = None


def keyed_records(records_ds, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Attach normalized entity keys (vectorized) + optional stop-entity
    filter. Alias linking happens LATER, on the combiner partials
    (relink_merged) — resolving per distinct key of a block instead of per
    mention."""
    return _filter_stop(
        records_ds.map_batches(_plain_keys, batch_format="pyarrow", batch_size=_RECORD_BATCH_SIZE), cfg
    )


def _drop_def_rows(merged):
    return merged.map_batches(
        lambda b: b.filter(pc.invert(pc.equal(b.column("kind"), "d"))), batch_format="pyarrow"
    )  # def-site rows are only needed to build the linking index


# linking scale guard: the name-pruned defs table is broadcast into the one
# stateless relink pass while it has at most this many def-site rows, else
# the shuffle-join fallback keeps it distributed. Not a config field: both
# plans write the same graph, so it has no place in the checkpoint identity.
DEFS_BROADCAST_MAX = 2_000_000


def link_merged(merged, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Entity linking over merged-schema rows (combiner partials included):
    rewrites keys and drops the def rows, but does not merge — the exchange
    after it does. That equals merge -> link -> merge because the alias rule
    is a pure function of one key, and each partial node label is its key's
    own label (tests/test_relink.py). The defs index is the small side of a
    join — and it is pruned to the names the alias rule can actually probe
    (distinct last segments of dotted keys) BEFORE it is sized: broadcast
    while the pruned table fits (<= ``DEFS_BROADCAST_MAX`` rows) into the
    one stateless ``relink_merged`` pass, else fall back to the shuffle-join
    path where the def-site table stays distributed. With nothing the alias
    rule could rewrite, linking is skipped. Both paths produce hash-identical
    graphs (asserted in tests/test_round2.py by patching the threshold to
    0)."""
    import ray

    from text_to_graph_ray.keys import close_reexports

    # ONE pass over merged produces the per-block-distinct name blocks; their
    # row counts (block metadata, no data moves) gate the collect
    qblocks = block_rows(dotted_query_names(merged).materialize())
    closed = close_reexports(dict(cfg.reexports)) if cfg.reexports else {}

    n_upper = sum(n for _, n in qblocks)
    if n_upper == 0 and not closed:
        # nothing the alias rule could rewrite: skip the linker pass entirely
        return _drop_def_rows(merged)
    if n_upper <= DEFS_BROADCAST_MAX:
        name_arrays = [
            t.column("name").combine_chunks().cast(pa.string()) for t in ray.get([r for r, n in qblocks if n])
        ]
        if closed:
            # the def-rule hop also fires on CLOSED RE-EXPORT TARGETS that are
            # still dotted — their names must survive the defs pruning
            extra = sorted({t.rsplit(".", 1)[1] for t in closed.values() if "." in t})
            if extra:
                name_arrays.append(pa.array(extra, type=pa.string()))
        names = pc.unique(pa.concat_arrays(name_arrays)) if name_arrays else pa.array([], type=pa.string())
        pruned = defs_table_from_merged(merged, names=names)
        if pruned.num_rows == 0 and not closed:
            # no dotted key has any candidate definition: identity relink
            return _drop_def_rows(merged)
        if pruned.num_rows <= DEFS_BROADCAST_MAX:
            return relink_merged(merged, pruned, reexports=closed)
    return relink_merged_distributed(merged, cfg, reexports=closed)


_LINKER_CACHE: dict = {}


def relink_merged(merged, defs_idx: pa.Table, reexports: dict | None = None):
    """Alias linking of merged-schema rows with a broadcast (name, module)
    defs table: ONE lazy, stateless ``map_batches`` pass that drops the def
    rows and rewrites ``k1``/``k3`` with ``MergedLinker`` from a per-process
    cache keyed by the defs-table ref (fetched zero-copy and indexed once
    per worker process, not once per batch)."""
    import ray

    from text_to_graph_ray.stages.linker import MergedLinker

    defs_ref = ray.put(defs_idx)
    ref_id = defs_ref.hex()

    def link(b: pa.Table) -> pa.Table:
        cached = _LINKER_CACHE.get("merged")
        if cached is None or cached[0] != ref_id:
            cached = _LINKER_CACHE["merged"] = (ref_id, MergedLinker(defs_idx=ray.get(defs_ref), reexports=reexports))
        return cached[1](b).drop_columns(["changed"])

    return _drop_def_rows(merged).map_batches(link, batch_format="pyarrow")


def relink_merged_distributed(merged, cfg: PipelineConfig = DEFAULT_CONFIG, reexports: dict | None = None):
    """Shuffle-join linking fallback: for defs vocabularies too large to
    broadcast, the def-site table NEVER leaves the object store.

    (1) def-site rows (name, module) and dotted vocabulary keys
        (name, prefix, full key) meet in one ``groupby(name)`` exchange where
        the alias rule (keys.resolve_alias: unique defining module whose path
        ends with the dotted prefix at a dot boundary) emits rewrite rows
        (old_key -> new_key);
    (2) the rewrite table hash-joins back onto the graph rows (k1 for all
        rows, k3 for edges) — Ray Data native shuffle joins — and the
        re-keyed rows go on, unmerged, to the canonicalization exchange.

    ``reexports`` (the CLOSED user alias map, vocabulary-small by contract)
    composes here too: re-export source keys are excluded from the exchange
    (the declared mapping wins) and their rewrites — including the def-rule
    hop on still-dotted targets, resolved against a name-pruned def-site
    collect bounded by the map size — are unioned into the rewrite table.

    Output is hash-identical to the broadcast path once merged."""
    import pandas as pd

    merged_nd = _drop_def_rows(merged)
    reexports = reexports or {}
    rx_sources = pa.array(sorted(reexports), type=pa.string()) if reexports else None

    defs = merged.map_batches(
        lambda b: (
            lambda t: pa.table(
                {
                    "name": t.column("k1"),
                    "module": t.column("k2"),
                    "qkey": pa.array([""] * t.num_rows, type=pa.string()),
                    "src": pa.array(["d"] * t.num_rows, type=pa.string()),
                }
            )
        )(b.filter(pc.equal(b.column("kind"), "d"))),
        batch_format="pyarrow",
    )

    def dotted_rows(b: pa.Table) -> pa.Table:
        # vectorized: distinct dotted keys -> (last segment, prefix) pairs
        keys = _dotted_keys_of(b)
        if rx_sources is not None:
            # re-export sources resolve via the declared map (below), not the def rule
            keys = keys.filter(pc.invert(pc.is_in(keys, value_set=rx_sources)))
        keys = keys.take(pc.array_sort_indices(keys))
        names = last_dot_segment(keys)
        rev_tail = pc.list_element(pc.split_pattern(pc.utf8_reverse(keys), ".", max_splits=1), 1)
        prefixes = pc.utf8_reverse(rev_tail)
        return pa.table(
            {
                "name": names.cast(pa.string()),
                "module": prefixes.cast(pa.string()),
                "qkey": keys.cast(pa.string()),
                "src": pa.array(["q"] * len(keys), type=pa.string()),
            }
        )

    queries = merged_nd.map_batches(dotted_rows, batch_format="pyarrow")

    def resolve_group(g: pd.DataFrame) -> pa.Table:
        mods = set(g.loc[g["src"] == "d", "module"])
        out_old, out_new = [], []
        if mods:
            q = g[g["src"] == "q"][["module", "qkey", "name"]].drop_duplicates()
            for prefix, key, name in zip(q["module"], q["qkey"], q["name"]):
                matches = {m for m in mods if m == prefix or m.endswith("." + prefix)}
                if len(matches) == 1:
                    out_old.append(key)
                    out_new.append(name)
        # fixed Arrow schema so all-empty groups can't destabilize downstream blocks
        return pa.table({"old_key": pa.array(out_old, type=pa.string()), "new_key": pa.array(out_new, type=pa.string())})

    from text_to_graph_ray.util import compact_nonempty

    rewrites = compact_nonempty(
        defs.union(queries).groupby("name").map_groups(resolve_group, batch_format="pandas").materialize()
    )

    if reexports:
        # rewrites for the re-export sources: closed hop + def-rule hop on
        # still-dotted targets, against a def collect pruned to the handful
        # of target names (bounded by the declared map, not the corpus)
        import ray.data as rd

        from text_to_graph_ray.keys import resolve_alias

        wanted = sorted({t.rsplit(".", 1)[1] for t in reexports.values() if "." in t})
        small_idx: dict[str, set] = {}
        if wanted:
            wset = pa.array(wanted, type=pa.string())
            drows = merged.map_batches(
                lambda b: (lambda t: t.filter(pc.is_in(t.column("k1"), value_set=wset)).select(["k1", "k2"]))(
                    b.filter(pc.equal(b.column("kind"), "d"))
                ),
                batch_format="pyarrow",
            ).take_all()
            for r in drows:
                small_idx.setdefault(r["k1"], set()).add(r["k2"])
        rx_old, rx_new = [], []
        for src in sorted(reexports):
            tgt = reexports[src]
            hop = resolve_alias(tgt, small_idx) if "." in tgt else None
            final = hop if hop is not None else tgt
            if final != src:
                rx_old.append(src)
                rx_new.append(final)
        if rx_old:
            rx_tbl = rd.from_arrow(
                pa.table(
                    {
                        "old_key": pa.array(rx_old, type=pa.string()),
                        "new_key": pa.array(rx_new, type=pa.string()),
                    }
                )
            )
            # compact again: an all-empty exchange result would otherwise
            # contribute schema-less blocks and break the downstream joins
            rewrites = compact_nonempty(rewrites.union(rx_tbl).materialize())

    if rewrites.count() == 0:
        return merged_nd

    rw1 = rewrites.map_batches(
        lambda b: pa.table({"k1": b.column("old_key"), "__new_k1": b.column("new_key")}), batch_format="pyarrow"
    )
    rw3 = rewrites.map_batches(
        lambda b: pa.table({"k3": b.column("old_key"), "__new_k3": b.column("new_key")}), batch_format="pyarrow"
    )
    from text_to_graph_ray.functions.dedup import join_partitions_for

    n_parts = join_partitions_for(cfg.num_partitions)
    hint = 32 << 20
    j = merged_nd.join(rw1, join_type="left_outer", num_partitions=n_parts, on=("k1",), partition_size_hint=hint)
    j = j.join(rw3, join_type="left_outer", num_partitions=n_parts, on=("k3",), partition_size_hint=hint)

    def apply_rewrites(b: pa.Table) -> pa.Table:
        k1 = pc.if_else(pc.is_valid(b.column("__new_k1")), b.column("__new_k1"), b.column("k1"))
        is_edge = pc.equal(b.column("kind"), "e")
        k3_new_ok = pc.and_(is_edge, pc.is_valid(b.column("__new_k3")))
        k3 = pc.if_else(k3_new_ok, b.column("__new_k3"), b.column("k3"))
        out = b.set_column(b.schema.get_field_index("k1"), "k1", k1)
        out = out.set_column(out.schema.get_field_index("k3"), "k3", k3)
        return out.drop_columns(["__new_k1", "__new_k3"])

    return j.map_batches(apply_rewrites, batch_format="pyarrow")


def _filter_stop(ds, cfg: PipelineConfig):
    if not cfg.stop_entities:
        return ds
    stop = pa.array(list(cfg.stop_entities), type=pa.string())

    def f(b: pa.Table) -> pa.Table:
        keep = pc.invert(pc.or_(pc.is_in(b.column("a_key"), value_set=stop), pc.is_in(b.column("c_key"), value_set=stop)))
        return b.filter(keep)

    return ds.map_batches(f, batch_format="pyarrow")


_MERGED_COLS = ["kind", "k1", "k2", "k3", "repos_packed"]
_EMPTY_MERGED = pa.schema([(c, pa.string()) for c in _MERGED_COLS]).empty_table()


def _with_sort_keys(b: pa.Table) -> pa.Table:
    """Merged-schema columns (``bucket`` goes) plus ``g2``/``g3``: ``""`` on
    node rows, ``k2``/``k3`` on edge and def rows, so ``[k1, kind, g2, g3]``
    is one merge identity and a hot ``k1`` spreads its edges over blocks."""
    is_n = pc.equal(b.column("kind"), "n")
    blank = pa.scalar("", pa.string())
    out = b.select(_MERGED_COLS)
    return out.append_column("g2", pc.if_else(is_n, blank, b.column("k2"))).append_column(
        "g3", pc.if_else(is_n, blank, b.column("k3"))
    )


def _merge_block(b: pa.Table) -> pa.Table:
    # an empty post-sort block can arrive without columns
    return merge_bucket(b.select(_MERGED_COLS).to_pandas()) if b.num_columns else _EMPTY_MERGED


def _canonicalize(rows):
    """THE canonicalization exchange: sort merged-schema rows by ``[k1,
    kind, g2, g3]``, then ``merge_bucket`` once per block. A sort keeps
    equal keys in one block, so each merge identity merges whole, and
    ``merge_bucket`` sorts nodes by ``k1`` and edges by ``(k1, k2, k3)``
    within the block: read in block order, the output is the final node and
    edge order, and the sinks need no sort. ``preserve_order`` on the
    Dataset context this lineage shares (never the global ``DataContext``)
    keeps that order in the materialized result and every dataset derived
    from it. Merging is idempotent, so merged rows may pass through again."""
    ds = (
        rows.map_batches(_with_sort_keys, batch_format="pyarrow")
        .sort(["k1", "kind", "g2", "g3"])
        .map_batches(_merge_block, batch_format="pyarrow", batch_size=None)
    )
    ds.context.execution_options.preserve_order = True
    return ds.materialize()


def merged_graph(resolved, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Keyed records -> the materialized merged graph in sink order:
    combiner partials (nodes, edges and def sites in one stream), linked
    when ``cfg.link_aliases``, then the ONE exchange (``_canonicalize``)."""
    parts = resolved.map_batches(
        lambda b: combined_partials(b, cfg.num_partitions),
        batch_format="pyarrow",
        batch_size=_RECORD_BATCH_SIZE,
    )
    if cfg.link_aliases:
        parts = link_merged(parts.materialize(), cfg)
    return _canonicalize(parts)


def nodes_from_merged(merged, with_ids: bool = True):
    """Node rows of ``_canonicalize`` output, in its order, with dense ids."""
    nodes = merged.map_batches(split_nodes, batch_format="pyarrow")
    if with_ids:
        nodes = add_dense_index(nodes, col="entity_id")
    return nodes


def edges_from_merged(merged):
    """Edge rows of ``_canonicalize`` output, in its order."""
    return merged.map_batches(split_edges, batch_format="pyarrow")


def graph_tables(input_path: str, cfg: PipelineConfig = DEFAULT_CONFIG, which: str = "both"):
    """End-to-end: returns (nodes_ds, edges_ds); either may be None per
    ``which``. The record stream is consumed once, into the combiner
    partials; only they (when linking) and the vocabulary-sized merged graph
    are materialized. For disk-backed reuse/resume at scale, use ``run``
    instead."""
    merged = merged_graph(keyed_records(records_dataset(input_path, cfg), cfg), cfg)
    nodes = nodes_from_merged(merged) if which in ("both", "nodes") else None
    edges = edges_from_merged(merged) if which in ("both", "edges") else None
    return nodes, edges


def scored_fallback_links(
    edges_ds,
    nodes_ds,
    threshold: float = 0.35,
    dim: int = 1024,
    concurrency: int = 4,
    vocab_broadcast_max: int = 200_000,
    shard_rows: int = 8192,
    mention_chunk_rows: int = 1_000_000,
):
    """Near-miss entity-link candidates via deterministic char-trigram cosine
    (reference analogue: the LLM re-query for unresolved mentions,
    /root/reference/graph_extractor/src/graph_generator.py:378-382).

    * vocabulary = plain (undotted) canonical entity keys;
    * mentions = DISTINCT module-qualified dotted endpoint keys that alias
      linking left unresolved ('.' in key, no '/': files keep their extension
      dot but are paths);
    * result = per mention, the best-scoring vocabulary word with raw cosine
      >= ``threshold`` (ties -> lexicographically smallest word), score
      rounded to 6 dp, sorted by mention.

    Two plans, guard sized like every other small-side collect in this repo
    (the DEFS_BROADCAST_MAX discipline):

    **Broadcast** (distinct vocabulary <= ``vocab_broadcast_max``): vocab
    collected once, ``ray.put``, each ScoredLinkStage actor builds the dense
    ``|vocab| x dim`` float64 matrix in ``__init__`` and scores mention
    batches with one matmul. The matrix is 8·dim bytes/word (8 KB at
    dim=1024), so the default guard caps it at ~1.6 GB per actor.

    **Distributed** (above the guard): the vocabulary STAYS a Dataset. The
    mention side — the small side here: distinct unresolved dotted keys — is
    turned into a trigram matrix once and broadcast zero-copy; vocabulary
    shards of ``shard_rows`` words are scored independently by stateless
    tasks (``score_vocab_shard``), each emitting at most one
    sub-threshold-pruned best row per mention, and a distributed
    ``topk_per_group(k=1)`` merge takes the global max (tie -> smallest
    word). Exact: the global best is the max of shard bests. Mentions beyond
    ``mention_chunk_rows`` are processed in chunks (bounding the broadcast
    matrix at ~8·dim·chunk bytes) and unioned — chunks partition mentions, so
    no cross-chunk merge is needed. Exchange bound: <= one candidate row per
    (mention, shard) that clears the threshold; for a pathological vocabulary
    where that explodes, an LSH-bucketed candidate pass (signed random
    projections over the trigram vectors) would be the escalation; none is
    implemented.

    Both plans are value-identical (threshold-0 equivalence test in
    tests/test_round4.py, mirroring test_distributed_linking_matches_broadcast)."""
    import ray

    from ray.data.aggregate import Count

    from text_to_graph_ray.stages.linker import ScoredLinkStage

    def plain_keys(b: pa.Table) -> pa.Table:
        keys = {k for k in b.column("entity_key").to_pylist() if "." not in k}
        return pa.table({"k": pa.array(sorted(keys), type=pa.string())})

    from text_to_graph_ray.functions.agg import distinct_rows
    from text_to_graph_ray.util import compact_nonempty

    vocab_schema = pa.schema([("k", pa.string())])
    vocab_ds = compact_nonempty(
        distinct_rows(
            nodes_ds.map_batches(plain_keys, batch_format="pyarrow"), ["k"], out_schema=vocab_schema
        ).materialize()
    )
    n_vocab = vocab_ds.count()

    def dotted_mentions(b: pa.Table) -> pa.Table:
        seen = set()
        for col in ("src_key", "dst_key"):
            for k in b.column(col).to_pylist():
                if "." in k and "/" not in k:
                    seen.add(k)
        return pa.table({"mention": pa.array(sorted(seen), type=pa.string())})

    mentions = (
        edges_ds.map_batches(dotted_mentions, batch_format="pyarrow")
        .groupby("mention")
        .aggregate(Count(alias_name="__n"))
        .map_batches(lambda b: b.select(["mention"]), batch_format="pyarrow")
    )

    if n_vocab <= vocab_broadcast_max or n_vocab == 0:
        vocab = sorted(vocab_ds.unique("k"))
        vocab_ref = ray.put(vocab)
        scored = mentions.map_batches(
            ScoredLinkStage,
            batch_format="pyarrow",
            concurrency=(1, concurrency),
            fn_constructor_kwargs={"vocab_ref": vocab_ref, "threshold": threshold, "dim": dim},
        )
        return _sorted_or_empty_scored(scored)

    return _scored_links_distributed(vocab_ds, mentions, threshold, dim, shard_rows, mention_chunk_rows)


def _sorted_or_empty_scored(scored):
    """Sort by mention, keeping the (mention, matched, score) schema when the
    result is empty (an all-empty-blocks dataset is schema-less in Ray — the
    fused map chain passes empty input blocks through UDF-less)."""
    import ray.data as rd

    from text_to_graph_ray.stages.linker import SCORE_SHARD_SCHEMA
    from text_to_graph_ray.util import compact_nonempty

    mat = compact_nonempty(scored.materialize())
    if mat.count() == 0:
        return rd.from_arrow(SCORE_SHARD_SCHEMA.empty_table())
    return mat.sort("mention")


def _scored_links_distributed(vocab_ds, mentions_ds, threshold, dim, shard_rows, mention_chunk_rows):
    """The above-the-guard plan: mention trigram matrix broadcast zero-copy,
    vocabulary sharded across stateless tasks, distributed top-1 merge."""
    import ray
    import ray.data as rd

    from text_to_graph_ray.functions.agg import topk_per_group
    from text_to_graph_ray.stages.linker import SCORE_SHARD_SCHEMA, score_vocab_shard, trigram_matrix

    # mention chunks: sorted for determinism; each chunk's trigram matrix is
    # built once on the driver (the same per-word cost the broadcast plan
    # pays per actor) and ray.put so every task on a node reads the one
    # plasma copy. The mention strings are the small side by construction
    # (distinct unresolved dotted keys); only their dense matrix needed the
    # chunk bound.
    words: list[str] = []
    for mb in mentions_ds.sort("mention").iter_batches(batch_format="pyarrow"):
        words.extend(mb.column("mention").to_pylist())

    chunk_dses = []
    for s0 in range(0, len(words), mention_chunk_rows):
        chunk = words[s0 : s0 + mention_chunk_rows]
        q_ref = ray.put(trigram_matrix(chunk, dim))
        m_ref = ray.put(chunk)
        chunk_dses.append(
            vocab_ds.map_batches(
                score_vocab_shard,
                batch_format="pyarrow",
                batch_size=shard_rows,
                fn_kwargs={"q_ref": q_ref, "mentions_ref": m_ref, "threshold": threshold, "dim": dim},
            )
        )

    if not chunk_dses:
        return rd.from_arrow(SCORE_SHARD_SCHEMA.empty_table())
    cands = chunk_dses[0]
    for extra in chunk_dses[1:]:
        cands = cands.union(extra)
    best = topk_per_group(
        cands, ["mention"], order_col="score", k=1, descending=True, tiebreak="matched", out_schema=SCORE_SHARD_SCHEMA
    )

    def finish(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return SCORE_SHARD_SCHEMA.empty_table()
        score = pa.array([round(s, 6) for s in b.column("score").to_pylist()], type=pa.float64())
        return b.select(["mention", "matched"]).append_column("score", score)

    return _sorted_or_empty_scored(best.map_batches(finish, batch_format="pyarrow"))


def degree_topk(edges_ds, k: int = 20):
    """Graph analytics over the edges table: total degree (in+out) per
    entity, top-k with deterministic (degree desc, key asc) ranking.
    Combiner-first: per-batch local degree counts, one vocabulary-sized
    groupby-sum, sort+limit."""
    import pandas as pd

    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        keys = b.column("src_key").to_pylist() + b.column("dst_key").to_pylist()
        s = pd.Series(keys).value_counts()
        return pa.table(
            {
                "entity_key": pa.array(s.index.tolist(), type=pa.string()),
                "n": pa.array(s.to_numpy(dtype="int64"), type=pa.int64()),
            }
        )

    agg = edges_ds.map_batches(partial, batch_format="pyarrow").groupby("entity_key").aggregate(
        Sum("n", alias_name="degree")
    )

    def fix(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "entity_key": b.column("entity_key"),
                "degree": pc.cast(b.column("degree"), pa.int64()),
            }
        )

    return agg.map_batches(fix, batch_format="pyarrow").sort(["degree", "entity_key"], descending=[True, False]).limit(k)


def component_sizes_topk(edges_ds, k: int = 20):
    """Weakly-connected components of the entity graph (shared
    functions.graph.connected_components operator over string keys) ->
    top-k component sizes with deterministic (size desc, representative asc)
    ranking."""
    from ray.data.aggregate import Count

    from text_to_graph_ray.functions.graph import connected_components

    pairs = edges_ds.map_batches(
        lambda b: pa.table({"a": b.column("src_key"), "b": b.column("dst_key")}), batch_format="pyarrow"
    )
    comp = connected_components(pairs)
    agg = comp.groupby("component").aggregate(Count(alias_name="size"))

    def fix(b: pa.Table) -> pa.Table:
        return pa.table({"component": b.column("component"), "size": pc.cast(b.column("size"), pa.int64())})

    return agg.map_batches(fix, batch_format="pyarrow").sort(["size", "component"], descending=[True, False]).limit(k)


# ---------------------------------------------------------------------------
# checkpointed job (resume semantics)
# ---------------------------------------------------------------------------


def _unpack_lists(batch: pa.Table) -> pa.Table:
    """packed strings -> real list<string> columns for the final sink."""
    out = batch
    for packed, name in (("types_packed", "types"), ("repos_packed", "repos")):
        if packed in batch.column_names:
            vals = [s.split("|") if s else [] for s in batch.column(packed).to_pylist()]
            out = out.drop_columns([packed]).append_column(name, pa.array(vals, type=pa.list_(pa.string())))
    return out


def _part_dirs(rec_dir: str) -> set[int]:
    """Partition ids that have a ``part_id=p`` directory in the records stage."""
    return {int(n[len("part_id=") :]) for n in os.listdir(rec_dir) if n.startswith("part_id=")}


def _sink_files(out_dir: str) -> list[str] | None:
    """The file names under ``nodes/`` and ``edges/`` (None when either is
    missing). Every write names its files after a fresh dataset id, so the
    list identifies the write that produced the sink on disk."""
    try:
        return [f"{d}/{n}" for d in ("nodes", "edges") for n in sorted(os.listdir(f"{out_dir}/{d}"))]
    except FileNotFoundError:
        return None


def run(
    input_path: str,
    out_dir: str,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    resume: bool = True,
    gc_keep_configs: int | None = 3,
) -> dict:
    """Checkpointed pipeline. Layout:

        <out_dir>/checkpoints/<config_hash>/records/        per-partition extraction
        <out_dir>/checkpoints/<config_hash>/_manifest/...   completion markers
        <out_dir>/nodes/, <out_dir>/edges/                  final graph tables

    On open, checkpoint trees for all but the ``gc_keep_configs``
    most-recently-used config hashes are dropped (None disables), and a
    completed run compacts its per-partition manifest rows into one snapshot
    — both keep a long-lived checkpoint root bounded on a 100-TB run that
    iterates on config.

    The input is read once. The checkpoint is the only record of which
    partitions exist: ``done`` is the set of records manifests written for
    this input fingerprint (none when ``resume=False``), every
    ``records/part_id=p/`` directory outside it is removed before the read,
    the read drops the rows of done partitions, and the partitions it
    computed are the directories its write created. Every input file yields
    at least one record (its containment edges), so ``done`` and the computed
    set together are all of the input's partitions; the ``graph`` manifest
    stores their number as ``parts`` and the sink's file names as ``sink``.
    A rerun whose fingerprint matches and whose valid records manifests
    number ``parts`` is complete: if ``nodes/`` and ``edges/`` still hold the
    files this config wrote, it returns the manifest's counters without
    starting a Ray job; otherwise (another config hash wrote the shared sink
    since, or the sink is gone) it rewrites the sink from the ``merged``
    checkpoint without reading the input. An input with no rows raises a
    ``ValueError`` naming the path.

    Every count comes from parquet footers of what this call wrote, never
    from a Ray job: a computed partition's lineage ``rows`` is the footer sum
    of its ``records/part_id=k/`` directory, the ``merged`` manifest's
    ``rows`` that of ``merged/``, and the ``nodes``/``edges`` counters those
    of ``nodes/``/``edges/``. A null ``repo`` or ``path`` raises a
    ``ValueError`` naming the column.

    Returns counters {parts_total, parts_skipped, parts_computed, nodes, edges}.
    """
    from text_to_graph_ray.state.checkpoint import gc_config_roots, input_fingerprint

    t0 = time.monotonic()
    store = CheckpointStore(f"{out_dir}/checkpoints", cfg.config_hash())
    if gc_keep_configs is not None:
        gc_config_roots(f"{out_dir}/checkpoints", keep_last=gc_keep_configs, current=cfg.config_hash())
    fp = input_fingerprint(input_path)
    existing = store.counters("records")
    if not resume or any(m is None or m.get("input_fingerprint") != fp for m in existing.values()):
        # no resume, or the input changed since (part of) the checkpoint was
        # written: stale data files could alias partitions that no longer
        # exist — wipe the stage rather than trust any of it
        store.clear_stage("records")
        existing = {}
    done = set(existing)

    gm = store.manifest("graph", 0)
    complete = bool(gm) and gm.get("input_fingerprint") == fp and gm.get("parts") == len(done)
    sink = _sink_files(out_dir)
    computed: set[int] = set()
    rec_dir = store.stage_dir("records")
    if complete and sink is not None and gm.get("sink") == sink:
        n_nodes, n_edges = gm["nodes"], gm["edges"]
    else:
        if not complete:
            # a killed run can leave data files for partitions whose manifest
            # was never written — clear them so recompute is an idempotent
            # overwrite (the reference's delete-then-insert,
            # sqlite_support.py:492-531)
            for p in _part_dirs(rec_dir) - done:
                shutil.rmtree(f"{rec_dir}/part_id={p}")
            done_ids = pa.array(sorted(done), type=pa.int64())

            def undone(b: pa.Table) -> pa.Table:
                ids = part_ids(b.column("repo"), b.column("path"), cfg.num_partitions)
                return b.filter(pc.invert(pc.is_in(ids, value_set=done_ids)))

            ds = read_parquet_clean(input_path, columns=["repo", "path", "lang", "content"])
            ds = extract_chain(ds.map_batches(undone, batch_format="pyarrow"), cfg)  # two_pass etc. honored
            ds = ds.map_batches(lambda b: _with_part(b, cfg.num_partitions), batch_format="pyarrow")
            ds.write_parquet(rec_dir, partition_cols=["part_id"])
            # every input file yields a record, so the write created a dir
            # for exactly the partitions that were not done
            computed = _part_dirs(rec_dir) - done
            if not done | computed:
                raise ValueError(f"input {input_path!r} has no rows: there is no graph to build")

            # lineage + counters per freshly-computed partition, from the
            # footers of the files just written
            wall_ms = int((time.monotonic() - t0) * 1000)
            for p in sorted(computed):
                rows = parquet_row_count(f"{rec_dir}/part_id={p}")
                store.mark_done("records", p, rows=rows, input_fingerprint=fp, wall_ms=wall_ms)

        for d in (f"{out_dir}/nodes", f"{out_dir}/edges"):
            shutil.rmtree(d, ignore_errors=True)
        # second checkpoint level: the (vocabulary-sized) merged+linked graph.
        # A run that died between canonicalization and the final sink resumes
        # here without re-reading the records. The merge is idempotent, so
        # the checkpoint passes through the same exchange as a fresh build
        # and both sinks have one plan: the in-memory exchange result.
        merged_dir = store.stage_dir("merged")
        mm = store.manifest("merged", 0)
        if not computed and mm and mm.get("input_fingerprint") == fp and any(os.scandir(merged_dir)):
            merged = _canonicalize(read_parquet_clean(merged_dir))
        else:
            store.clear_stage("merged")
            merged = merged_graph(keyed_records(read_parquet_clean(rec_dir), cfg), cfg)
            merged.write_parquet(store.stage_dir("merged"))
            store.mark_done("merged", 0, rows=parquet_row_count(merged_dir), input_fingerprint=fp)
        nodes = nodes_from_merged(merged).map_batches(_unpack_lists, batch_format="pyarrow")
        nodes.write_parquet(f"{out_dir}/nodes")
        edges = edges_from_merged(merged).map_batches(_unpack_lists, batch_format="pyarrow")
        edges.write_parquet(f"{out_dir}/edges")

        n_nodes = parquet_row_count(f"{out_dir}/nodes")
        n_edges = parquet_row_count(f"{out_dir}/edges")
        wall_ms = int((time.monotonic() - t0) * 1000)
        store.mark_done(
            "graph",
            0,
            nodes=n_nodes,
            edges=n_edges,
            parts=len(done | computed),
            sink=_sink_files(out_dir),
            input_fingerprint=fp,
            wall_ms=wall_ms,
        )
        # run completed: fold per-partition manifest rows into one snapshot so
        # the manifest dir stays O(1) files across arbitrarily many run/resume
        # cycles (resume reads the snapshot + any newer individual rows)
        store.compact()
    return {
        "parts_total": len(done | computed),
        "parts_skipped": len(done),
        "parts_computed": len(computed),
        "nodes": n_nodes,
        "edges": n_edges,
    }


def merge_increment(merged_parts: list, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Incremental KG maintenance: union ALREADY-MERGED (packed) graph
    increments — e.g. yesterday's persisted merged graph plus today's
    new-files increment — link the union when ``cfg.link_aliases``, and
    re-merge it in the ONE exchange (``_canonicalize``).

    Correctness: every merge rule is ASSOCIATIVE over set union — types /
    repos / edge provenance are pure unions, the canonical label is
    min-own-else-min (min distributes over union, and the own-filter
    commutes with it: the per-increment winner is own iff any own label
    exists in that increment) — so merge(A) ⊕ merge(B) == merge(A ∪ B) for
    ANY partition of the corpus into increments. The driver query
    kg_nodes_incremental hash-checks this against the full-rebuild oracle.

    Linking runs on the union: defs discovered in one increment must
    rewrite mentions extracted in another, so per-increment builds pass
    ``link_aliases=False`` (which also keeps each node label its key's own,
    as linking before the merge needs) and the union links once here."""
    out = merged_parts[0]
    for p in merged_parts[1:]:
        out = out.union(p)
    if cfg.link_aliases:
        out = link_merged(out, cfg)
    return _canonicalize(out)
