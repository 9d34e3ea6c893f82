"""Deterministic sampling and selection operators for training-data pipelines.

``mod_sample`` is a pure per-batch filter (no exchange at all);
``stratified_sample`` exchanges only group keys and survives skew by
truncating per group. Both are exactly reproducible in SQL, so the driver
hash-checks them against DuckDB. ``budget_select`` is the last step of the
full curation pipeline, checked there against its naive mirror.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def mod_sample(ds, rate_pct: int, id_col: str = "doc_id", knuth: int = 2654435761):
    """Deterministic ~rate_pct% sample: keep rows where
    (id * knuth) mod 100 < rate_pct (Knuth multiplicative hash — spreads
    sequential ids; pure column arithmetic, reproducible anywhere including
    SQL). No shuffle, no RNG state."""

    def f(b: pa.Table) -> pa.Table:
        import numpy as np

        # product stays < 2^63 for any realistic id, so numpy and SQL compute
        # the identical exact value — no wraparound semantics to match
        ids = np.asarray(b.column(id_col).to_pylist(), dtype=np.uint64)
        keep = (ids * np.uint64(knuth)) % np.uint64(100) < np.uint64(rate_pct)
        return b.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow").sort(id_col)


def stratified_sample(ds, key_col: str, n_per_key: int, id_col: str = "doc_id"):
    """First n rows (by id) per key value — deterministic per-stratum cap
    (per-language / per-source quotas in corpus building). One groupby
    exchange; a hyper-skewed stratum still only emits n rows."""

    def take_first(g: pd.DataFrame) -> pa.Table:
        from text_to_graph_ray.util import pa_from_pandas

        return pa_from_pandas(g.sort_values(id_col).head(n_per_key))

    return ds.groupby(key_col).map_groups(take_first, batch_format="pandas").sort([key_col, id_col])


def budget_select(ds, budget_tokens: int | None = None, budget_denom: int = 3,
                  id_col: str = "doc_id", text_col: str = "text"):
    """Token-budget corpus selection — the final curation step that fills a
    fixed training budget with the best documents: rank every doc by the
    shared quality contract (``text.quality_row``, desc, id tiebreak) and
    keep docs while the RUNNING token total stays within the budget (strict
    window-prefix semantics — once the cumulative sum passes the budget,
    everything after it is excluded, exactly SQL's
    ``sum() OVER (ORDER BY quality DESC, id) <= budget``; NOT first-fit
    knapsack).

    Scale shape: quality + token counts inside the scan; ONE global sort by
    (quality, id); the running total is a block-offset prefix-sum —
    per-block sums to the driver (#blocks numbers), bases broadcast back,
    per-block vectorized cumsum + filter. Nothing corpus-sized reaches the
    driver. ``budget_tokens=None`` derives the budget from the data
    (total_tokens // budget_denom) so the selection stays in the
    distribution's middle at every scale.

    Returns (doc_id, quality, n_tokens, cum_tokens) for the selected docs,
    sorted by (quality desc, doc_id)."""
    import ray
    import ray.data as rd

    from text_to_graph_ray.functions.text import quality_row

    score_schema = pa.schema([(id_col, pa.int64()), ("quality", pa.float64()), ("n_tokens", pa.int64())])

    def score(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return score_schema.empty_table()
        qs, ns = [], []
        for t in b.column(text_col).to_pylist():
            t = t or ""
            toks = t.split()
            qs.append(quality_row(t, toks)[3])
            ns.append(len(toks))
        return pa.table({id_col: b.column(id_col), "quality": pa.array(qs, type=pa.float64()),
                         "n_tokens": pa.array(ns, type=pa.int64())}, schema=score_schema)

    ranked = (
        ds.map_batches(score, batch_format="pyarrow")
        .sort(["quality", id_col], descending=[True, False])
        .materialize()
    )
    refs = ranked.to_arrow_refs()

    @ray.remote
    def block_sum(t: pa.Table) -> int:
        import pyarrow.compute as pc

        if t.num_rows == 0 or "n_tokens" not in t.schema.names:
            return 0
        return int(pc.sum(t.column("n_tokens")).as_py() or 0)

    sums = ray.get([block_sum.remote(r) for r in refs])
    bases, total = [], 0
    for s in sums:
        bases.append(total)
        total += s
    budget = budget_tokens if budget_tokens is not None else total // budget_denom

    out_schema = pa.schema(list(score_schema) + [pa.field("cum_tokens", pa.int64())])

    @ray.remote
    def keep_within(t: pa.Table, base: int) -> pa.Table:
        if t.num_rows == 0 or "n_tokens" not in t.schema.names:
            return out_schema.empty_table()
        n = np.asarray(t.column("n_tokens"), dtype=np.int64)
        cum = base + np.cumsum(n)
        t = t.append_column("cum_tokens", pa.array(cum, type=pa.int64()))
        return t.filter(pa.array(cum <= budget))

    out_refs = [keep_within.remote(r, b) for r, b in zip(refs, bases) if b <= budget]
    return rd.from_arrow_refs(out_refs)
