"""Round-3 additions: graph invariance of the hand-computed fixture under the
high-resolution preset, the NgramScorer near-miss fallback wired end-to-end,
and the schema-metadata hygiene helpers."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _sorted(df: pd.DataFrame, cols) -> pd.DataFrame:
    return df[cols].sort_values(cols).reset_index(drop=True)


NODE_COLS = ["entity_key", "label", "types_packed", "repos_packed"]
EDGE_COLS = ["src_key", "pred", "dst_key", "repos_packed"]


def test_kg_fixture_hand_computed_hires(ray_session):
    """The HAND-COMPUTED fixture must reproduce under high_resolution()
    (300-token chunks, padding, two-pass) — graph invariance proven on the
    independent oracle, not just the synth one."""
    import pyarrow.parquet as pq

    from text_to_graph_ray.config import PipelineConfig
    from text_to_graph_ray.fixtures import ensure_fixture
    from text_to_graph_ray.pipelines import kg

    d = ensure_fixture()
    nodes, edges = kg.graph_tables(f"{d}/repo_files.parquet", PipelineConfig.high_resolution())
    exp_n = pq.read_table(f"{d}/expected_nodes.parquet").to_pandas()
    exp_e = pq.read_table(f"{d}/expected_triples.parquet").to_pandas()
    assert _sorted(nodes.to_pandas(), NODE_COLS).equals(_sorted(exp_n, NODE_COLS))
    assert _sorted(edges.to_pandas(), EDGE_COLS).equals(_sorted(exp_e, EDGE_COLS))


def test_scored_link_stage_unit():
    """ScoredLinkStage: exact vocab hit scores ~1, junk scores below the
    threshold and is dropped; output schema is fixed."""
    from text_to_graph_ray.stages.linker import ScoredLinkStage

    stage = ScoredLinkStage(vocab=["handle_request", "parse_config", "write_output"], threshold=0.35)
    batch = pa.table({"mention": pa.array(["pkg.handle_request", "zzqqxx", "parse_config"], type=pa.string())})
    out = stage(batch)
    assert out.schema.names == ["mention", "matched", "score"]
    got = {m: (t, s) for m, t, s in zip(*[out.column(c).to_pylist() for c in out.schema.names])}
    assert got["parse_config"][0] == "parse_config" and got["parse_config"][1] == 1.0
    assert got["pkg.handle_request"][0] == "handle_request"
    assert "zzqqxx" not in got  # below threshold -> dropped


def test_scored_fallback_links_distributed_vs_naive(ray_session):
    """Distributed scored_fallback_links == the naive single-threaded trigram
    oracle on a small synthetic graph (batch splits must not change scores)."""
    import numpy as np
    import ray.data as rd

    from text_to_graph_ray.expected import _naive_trigram_vec
    from text_to_graph_ray.pipelines.kg import scored_fallback_links

    vocab = [f"func_{i}" for i in range(40)] + ["alpha_beta", "gamma_delta"]
    mentions = ["pkg0.func_3", "pkg1.alpha_beta", "mod.gamma_delta", "x.unrelated_zz"]
    edges = pa.table(
        {
            "src_key": pa.array(mentions, type=pa.string()),
            "dst_key": pa.array(["func_0"] * len(mentions), type=pa.string()),
        }
    )
    nodes = pa.table({"entity_key": pa.array(vocab, type=pa.string())})
    got = (
        scored_fallback_links(rd.from_arrow(edges).repartition(3), rd.from_arrow(nodes).repartition(2))
        .to_pandas()
        .sort_values("mention")
        .reset_index(drop=True)
    )

    sv = sorted(vocab)
    mat = np.stack([_naive_trigram_vec(w, 1024) for w in sv])
    exp_rows = []
    for m in sorted({k for k in mentions if "." in k and "/" not in k}):
        q = _naive_trigram_vec(m, 1024)
        sims = q @ mat.T
        i = int(sims.argmax())
        if sims[i] >= 0.35:
            exp_rows.append((m, sv[i], round(float(sims[i]), 6)))
    want = pd.DataFrame(exp_rows, columns=["mention", "matched", "score"])
    pd.testing.assert_frame_equal(got, want)


def test_read_parquet_clean_strips_metadata(ray_session, tmp_path):
    """Blocks read through read_parquet_clean carry NO schema metadata (the
    b'pandas' dict makes schemas unhashable in Ray's reduce)."""
    import pyarrow.parquet as pq

    from text_to_graph_ray.util import read_parquet_clean

    df = pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    p = str(tmp_path / "t.parquet")
    df.to_parquet(p)  # pandas writer embeds b'pandas' metadata
    assert pq.read_schema(p).metadata  # precondition

    ds = read_parquet_clean(p)
    for batch in ds.iter_batches(batch_format="pyarrow"):
        assert not batch.schema.metadata
    sub = read_parquet_clean(p, columns=["a"])
    assert sub.schema().names == ["a"]
    assert sub.to_pandas()["a"].tolist() == [1, 2, 3]


def test_pa_from_pandas_no_metadata():
    from text_to_graph_ray.util import pa_from_pandas

    t = pa_from_pandas(pd.DataFrame({"x": [1.5], "y": ["s"]}))
    assert t.schema.metadata is None
    assert hash(t.schema)  # hashable again


# ---- functions/agg.py: high-cardinality bucketed aggregation ----------------


def test_bucketed_aggregate_matches_pandas(ray_session):
    """bucketed_aggregate == a single-process pandas groupby, including a
    NON-decomposable op (median) — exact because every fine key lands wholly
    in one bucket."""
    import numpy as np
    import ray.data as rd

    from text_to_graph_ray.functions.agg import bucketed_aggregate

    rng = np.random.default_rng(11)
    n = 5000
    df = pd.DataFrame({"k": rng.integers(0, 800, n), "v": rng.normal(size=n)})
    out_schema = pa.schema([("k", pa.int64()), ("total", pa.float64()), ("med", pa.float64()), ("cnt", pa.int64())])
    got = (
        bucketed_aggregate(
            rd.from_pandas(df).repartition(7),
            "k",
            {"total": ("v", "sum"), "med": ("v", "median"), "cnt": ("v", "size")},
            out_schema=out_schema,
            num_buckets=16,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        df.groupby("k", as_index=False)
        .agg(total=("v", "sum"), med=("v", "median"), cnt=("v", "size"))
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert list(got["k"]) == list(want["k"])
    assert np.allclose(got["total"], want["total"])  # summation-order fp tolerance
    assert np.allclose(got["med"], want["med"])
    assert (got["cnt"].to_numpy() == want["cnt"].to_numpy()).all()


def test_bucketed_aggregate_string_multikey(ray_session):
    """Multi-column (string, int) key: deterministic SipHash bucketing must
    keep every fine key in one bucket regardless of block splits."""
    import numpy as np
    import ray.data as rd

    from text_to_graph_ray.functions.agg import bucketed_aggregate

    rng = np.random.default_rng(5)
    n = 2000
    df = pd.DataFrame(
        {
            "s": [f"key_{i}" for i in rng.integers(0, 150, n)],
            "g": rng.integers(0, 3, n),
            "v": rng.uniform(0, 10, n),
        }
    )
    out_schema = pa.schema([("s", pa.string()), ("g", pa.int64()), ("total", pa.float64())])
    got = (
        bucketed_aggregate(
            rd.from_pandas(df).repartition(5),
            ["s", "g"],
            {"total": ("v", "sum")},
            out_schema=out_schema,
            num_buckets=8,
        )
        .to_pandas()
        .sort_values(["s", "g"])
        .reset_index(drop=True)
    )
    want = df.groupby(["s", "g"], as_index=False).agg(total=("v", "sum")).sort_values(["s", "g"]).reset_index(drop=True)
    assert list(got["s"]) == list(want["s"]) and list(got["g"]) == list(want["g"])
    assert np.allclose(got["total"], want["total"])


def test_bucketed_aggregate_empty_input(ray_session):
    """Zero-row input with in_schema pinned -> zero-row out_schema table (no
    schema-less blocks, no crash)."""
    import ray.data as rd

    from text_to_graph_ray.functions.agg import bucketed_aggregate

    in_schema = pa.schema([("k", pa.int64()), ("v", pa.float64())])
    out_schema = pa.schema([("k", pa.int64()), ("total", pa.float64())])
    got = bucketed_aggregate(
        rd.from_arrow(in_schema.empty_table()),
        "k",
        {"total": ("v", "sum")},
        out_schema=out_schema,
        in_schema=in_schema,
    )
    # NOTE: Dataset.to_pandas() drops columns for ANY zero-row dataset, so the
    # schema pin is asserted on the Dataset itself
    assert got.count() == 0 and got.schema().names == ["k", "total"]


def test_bucket_exchange_vectorized_per_bucket(ray_session):
    """bucket_exchange co-locates each fine key wholly in one per_bucket call
    (bucket column present, every copy of a key in the same DataFrame), sizes
    the exchange to the data (no empty shuffle ranges even when distinct
    bucket ids < num_buckets // 2), and pins out_schema on empty input."""
    import numpy as np
    import ray.data as rd

    from text_to_graph_ray.functions.agg import BUCKET_COL, bucket_exchange, with_bucket

    rng = np.random.default_rng(9)
    n = 1000
    df = pd.DataFrame({"k": rng.integers(0, 3, n), "v": rng.uniform(0, 1, n)})  # 3 keys << 64 buckets
    in_schema = pa.schema([("k", pa.int64()), ("v", pa.float64())])
    out_schema = pa.schema([("k", pa.int64()), ("vmax", pa.float64())])

    def per_bucket(b: pd.DataFrame) -> pa.Table:
        if len(b) == 0:
            return out_schema.empty_table()
        g = b.drop(columns=[BUCKET_COL]).groupby("k", as_index=False).agg(vmax=("v", "max"))
        return pa.table({"k": pa.array(g["k"], type=pa.int64()), "vmax": pa.array(g["vmax"], type=pa.float64())})

    src = rd.from_pandas(df).repartition(4)
    got = (
        bucket_exchange(with_bucket(src, "k", 64, in_schema=in_schema), per_bucket, out_schema, 64)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = df.groupby("k", as_index=False).agg(vmax=("v", "max")).sort_values("k").reset_index(drop=True)
    assert list(got["k"]) == list(want["k"])
    assert np.allclose(got["vmax"], want["vmax"])

    empty = rd.from_arrow(in_schema.empty_table())
    out = bucket_exchange(with_bucket(empty, "k", 64, in_schema=in_schema), per_bucket, out_schema, 64)
    assert out.count() == 0 and out.schema().names == ["k", "vmax"]


# ---- defs-broadcast pruning (link_merged early-return gates) -----------------


def _write_corpus(tmp_path, rows):
    import pyarrow.parquet as pq

    p = str(tmp_path / "files.parquet")
    pq.write_table(
        pa.table(
            {
                "repo": [r[0] for r in rows],
                "path": [r[1] for r in rows],
                "commit": ["c0"] * len(rows),
                "lang": ["python"] * len(rows),
                "content": [r[2] for r in rows],
            }
        ),
        p,
    )
    return p


def test_link_pruning_matches_distributed_no_dotted(ray_session, tmp_path, monkeypatch):
    """A corpus with NO dotted mention keys takes the skip-linker early
    return; the graph must equal the (unpruned) shuffle-join fallback's."""
    from text_to_graph_ray.config import PipelineConfig
    from text_to_graph_ray.pipelines import kg

    p = _write_corpus(tmp_path, [("o/r", "src/a.py", "def f():\n    g()\n"), ("o/r", "src/b.py", "def g():\n    pass\n")])
    n1, e1 = kg.graph_tables(p, PipelineConfig(num_partitions=4))
    monkeypatch.setattr(kg, "DEFS_BROADCAST_MAX", 0)
    n2, e2 = kg.graph_tables(p, PipelineConfig(num_partitions=4))
    assert _sorted(n1.to_pandas(), NODE_COLS).equals(_sorted(n2.to_pandas(), NODE_COLS))
    assert _sorted(e1.to_pandas(), EDGE_COLS).equals(_sorted(e2.to_pandas(), EDGE_COLS))


def test_link_pruning_matches_distributed_no_candidate_defs(ray_session, tmp_path, monkeypatch):
    """Dotted keys exist but NO defined name matches them: the pruned defs
    table is empty, link takes the identity early return, and the graph must
    equal the shuffle-join fallback's (which sees the full defs table)."""
    from text_to_graph_ray.config import PipelineConfig
    from text_to_graph_ray.pipelines import kg

    p = _write_corpus(
        tmp_path,
        [("o/r", "src/a.py", "def f():\n    os.path.join()\n"), ("o/r", "src/b.py", "def g():\n    f()\n")],
    )
    n1, e1 = kg.graph_tables(p, PipelineConfig(num_partitions=4))
    monkeypatch.setattr(kg, "DEFS_BROADCAST_MAX", 0)
    n2, e2 = kg.graph_tables(p, PipelineConfig(num_partitions=4))
    assert _sorted(n1.to_pandas(), NODE_COLS).equals(_sorted(n2.to_pandas(), NODE_COLS))
    assert _sorted(e1.to_pandas(), EDGE_COLS).equals(_sorted(e2.to_pandas(), EDGE_COLS))


def test_pruned_defs_table_keeps_only_probed_names(ray_session, tmp_path):
    """defs_table_from_merged(names=...) is a semi-join: only def rows whose
    name is a probed dotted last-segment survive — and linking with the
    pruned table equals linking with the full one. Built without linking,
    so the merged graph keeps its def rows."""
    from text_to_graph_ray.config import PipelineConfig
    from text_to_graph_ray.pipelines import kg

    cfg = PipelineConfig(num_partitions=4, link_aliases=False)
    # util.helper is a dotted call whose last segment matches a def in module
    # suffix 'util'; standalone() is defined but never dotted-called
    p = _write_corpus(
        tmp_path,
        [
            ("o/r", "src/util.py", "def helper():\n    pass\n\ndef standalone():\n    pass\n"),
            ("o/r", "src/main.py", "def main():\n    util.helper()\n"),
        ],
    )
    merged = kg.merged_graph(kg.keyed_records(kg.records_dataset(p, cfg), cfg), cfg)
    full = kg.defs_table_from_merged(merged)
    names_ds = kg.dotted_query_names(merged)
    import pyarrow.compute as pc
    import ray

    names = pc.unique(
        pa.concat_arrays(
            [t.column("name").combine_chunks().cast(pa.string()) for t in ray.get(names_ds.to_arrow_refs()) if t.num_rows]
        )
    )
    pruned = kg.defs_table_from_merged(merged, names=names)
    assert pruned.num_rows < full.num_rows
    assert set(pruned.column("k1").to_pylist()) <= set(names.to_pylist())
    assert "helper" in set(pruned.column("k1").to_pylist())

    got_p = kg.relink_merged(merged, pruned).to_pandas()
    got_f = kg.relink_merged(merged, full).to_pandas()
    cols = ["kind", "k1", "k2", "k3"]
    assert _sorted(got_p, cols).equals(_sorted(got_f, cols))
    # the alias actually rewrote: no 'util.helper' key survives
    assert "util.helper" not in set(got_p["k1"])


# ---- functions/agg.topk_per_group and functions/quantiles ------------------


def test_topk_per_group_matches_pandas(ray_session):
    """Distributed top-k per group == single-frame pandas reference, incl.
    a hot key, duplicate order values (tiebreak), and block splits."""
    import numpy as np
    import ray.data as rd

    from text_to_graph_ray.functions.agg import topk_per_group

    rng = np.random.default_rng(5)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(500, dtype="int64"),
            "source": rng.choice(["a", "b", "c", "hot"], p=[0.1, 0.1, 0.1, 0.7], size=500),
            "score": rng.integers(0, 50, 500).astype("int64"),  # many ties
        }
    )
    schema = pa.schema([("doc_id", pa.int64()), ("source", pa.string()), ("score", pa.int64())])
    got = (
        topk_per_group(
            rd.from_pandas(df).repartition(7),
            "source",
            "score",
            k=5,
            descending=True,
            tiebreak="doc_id",
            out_schema=schema,
            num_buckets=8,
        )
        .to_pandas()
        .sort_values(["source", "score", "doc_id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    want = (
        df.sort_values(["source", "score", "doc_id"], ascending=[True, False, True], kind="mergesort")
        .groupby("source", sort=False)
        .head(5)
        .sort_values(["source", "score", "doc_id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )[["doc_id", "source", "score"]]
    assert got[["doc_id", "source", "score"]].equals(want)


def test_topk_per_group_small_groups_and_ascending(ray_session):
    """Groups smaller than k pass through whole; descending=False takes the
    bottom-k."""
    import ray.data as rd

    from text_to_graph_ray.functions.agg import topk_per_group

    df = pd.DataFrame({"doc_id": [1, 2, 3], "source": ["x", "x", "y"], "score": [9, 1, 5]})
    df = df.astype({"doc_id": "int64", "score": "int64"})
    schema = pa.schema([("doc_id", pa.int64()), ("source", pa.string()), ("score", pa.int64())])
    got = topk_per_group(
        rd.from_pandas(df), "source", "score", k=2, descending=False, tiebreak="doc_id", out_schema=schema
    ).to_pandas()
    assert len(got) == 3  # both groups are <= k
    got_x = got[got["source"] == "x"].sort_values("score")
    assert list(got_x["score"]) == [1, 9]


def test_exact_quantiles_matches_duckdb(ray_session):
    """exact_quantiles == DuckDB quantile_disc / quantile_cont bit-exactly on
    random doubles across many blocks."""
    import duckdb
    import numpy as np
    import ray.data as rd

    from text_to_graph_ray.functions.quantiles import exact_quantiles

    rng = np.random.default_rng(11)
    vals = rng.uniform(0, 1e6, 10_007)  # odd count, un-round values
    df = pd.DataFrame({"x": vals})
    qs = [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0]
    got = exact_quantiles(rd.from_pandas(df).repartition(13), "x", qs).to_pandas()

    con = duckdb.connect()
    con.register("t", df)
    for i, q in enumerate(qs):
        disc, cont = con.execute(
            f"SELECT quantile_disc(x, {q}), quantile_cont(x, {q}) FROM t"
        ).fetchone()
        assert got.iloc[i]["disc"] == disc, (q, got.iloc[i]["disc"], disc)
        assert got.iloc[i]["cont"] == cont, (q, got.iloc[i]["cont"], cont)


def test_exact_quantiles_empty(ray_session):
    import ray.data as rd

    from text_to_graph_ray.functions.quantiles import exact_quantiles

    ds = rd.from_pandas(pd.DataFrame({"x": pd.Series([], dtype="float64")}))
    got = exact_quantiles(ds, "x", [0.5]).to_pandas()
    assert len(got) == 1 and pd.isna(got.iloc[0]["disc"])


def test_distinct_rows_matches_pandas(ray_session):
    import numpy as np
    import ray.data as rd

    from text_to_graph_ray.functions.agg import distinct_rows

    rng = np.random.default_rng(21)
    df = pd.DataFrame(
        {"a": rng.integers(0, 6, 500).astype("int64"), "b": rng.choice(["x", "y", "z"], 500)}
    )
    out_schema = pa.schema([("a", pa.int64()), ("b", pa.string())])
    got = (
        distinct_rows(rd.from_pandas(df).repartition(7), ["a", "b"], out_schema)
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    want = df.drop_duplicates().sort_values(["a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def _naive_contamination(df, eval_sources, n):
    """From-scratch pandas/set reimplementation of ngram_contamination."""
    def grams(text):
        toks = (text or "").split(" ")
        return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}

    ev = set()
    for _, r in df[df["source"].isin(eval_sources)].iterrows():
        ev |= grams(r["text"])
    rows = []
    for _, r in df[~df["source"].isin(eval_sources)].iterrows():
        shared = grams(r["text"]) & ev
        if shared:
            rows.append((int(r["doc_id"]), len(shared)))
    out = pd.DataFrame(rows, columns=["doc_id", "n_shared"]).astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _contam_corpus():
    import numpy as np

    rng = np.random.default_rng(41)
    vocab = [f"w{i}" for i in range(30)]
    docs = []
    for i in range(60):
        docs.append((i, " ".join(rng.choice(vocab, rng.integers(3, 40)))))
    # plant exact 8-gram overlaps: doc 100 (train) copies a window of doc 0 (eval)
    eval_text = " ".join(rng.choice(vocab, 50))
    docs.append((100, eval_text))  # goes to eval source below
    docs.append((101, "x y " + " ".join(eval_text.split(" ")[10:25]) + " z"))
    df = pd.DataFrame(docs, columns=["doc_id", "text"])
    df["source"] = ["ev" if (i % 10 == 0 or d == 100) else "tr" for i, d in enumerate(df["doc_id"])]
    return df


def test_ngram_contamination_matches_naive(ray_session):
    import ray.data as rd

    from text_to_graph_ray.functions.decontam import ngram_contamination

    df = _contam_corpus()
    got = (
        ngram_contamination(rd.from_pandas(df).repartition(5), eval_sources=("ev",), n=8)
        .to_pandas()
        .reset_index(drop=True)
    )
    want = _naive_contamination(df, ("ev",), 8)
    assert len(want) >= 1  # the planted overlap is detected by the naive side
    pd.testing.assert_frame_equal(got, want)


def test_ngram_contamination_join_fallback_identical(ray_session):
    """eval_broadcast_max=0 forces the distributed hash-join path; result must
    be identical to the broadcast plan (threshold-0 equivalence convention)."""
    import ray.data as rd

    from text_to_graph_ray.functions.decontam import ngram_contamination

    df = _contam_corpus()
    ds = rd.from_pandas(df).repartition(5)
    a = ngram_contamination(ds, eval_sources=("ev",), n=8).to_pandas().reset_index(drop=True)
    b = (
        ngram_contamination(ds, eval_sources=("ev",), n=8, eval_broadcast_max=0)
        .to_pandas()
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def _naive_pagerank(e, iters=3, d=0.85, dp=9):
    """From-scratch dict/loop power iteration with the documented semantics
    (uniform init, per-iteration rounding, no dangling redistribution)."""
    nodes = sorted(set(e["src"]) | set(e["dst"]))
    N = len(nodes)
    deg = e.groupby("src").size().to_dict()
    r = {n: round(1.0 / N, dp) for n in nodes}
    for _ in range(iters):
        s = {n: 0.0 for n in nodes}
        for src, dst in zip(e["src"], e["dst"]):
            s[dst] += r[src] / deg[src]
        r = {n: round((1 - d) / N + d * s[n], dp) for n in nodes}
    return pd.DataFrame({"node": nodes, "rank": [r[n] for n in nodes]}).astype({"node": "int64"})


def test_pagerank_matches_naive_both_plans(ray_session):
    import numpy as np
    import ray.data as rd

    from text_to_graph_ray.functions.graph import pagerank

    rng = np.random.default_rng(7)
    e = pd.DataFrame({"src": rng.integers(0, 40, 300), "dst": rng.integers(0, 40, 300)}).drop_duplicates()
    ds = rd.from_pandas(e.astype("int64")).repartition(5)
    want = _naive_pagerank(e)

    got = pagerank(ds).to_pandas().reset_index(drop=True)  # tiny-graph driver plan
    pd.testing.assert_frame_equal(got, want)

    # collect_max=0 forces the distributed broadcast plan; must be identical
    got_b = pagerank(ds, collect_max=0).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got_b, want)

    # + broadcast_max=0 forces the distributed join plan; must be identical
    got_j = pagerank(ds, collect_max=0, broadcast_max=0).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got_j, want)


def test_pagerank_sink_and_empty(ray_session):
    import ray.data as rd

    from text_to_graph_ray.functions.graph import pagerank

    # sink node 3 (no out-edges): rank leaks, teleport term still applies
    e = pd.DataFrame({"src": [1, 2, 1], "dst": [3, 3, 2]}).astype("int64")
    got = pagerank(rd.from_pandas(e), iterations=4).to_pandas().reset_index(drop=True)
    want = _naive_pagerank(e, iters=4)
    pd.testing.assert_frame_equal(got, want)
    assert got["rank"].idxmax() == 2  # node 3 (two in-edges) ranks highest

    empty = rd.from_arrow(pa.table({"src": pa.array([], type=pa.int64()), "dst": pa.array([], type=pa.int64())}))
    assert pagerank(empty).count() == 0


def test_set_op_rows_matches_pandas(ray_session):
    import numpy as np
    import ray.data as rd

    from text_to_graph_ray.functions.agg import set_op_rows

    rng = np.random.default_rng(51)
    a = pd.DataFrame({"x": rng.integers(0, 30, 400).astype("int64"), "y": rng.choice(["p", "q"], 400)})
    b = pd.DataFrame({"x": rng.integers(15, 45, 400).astype("int64"), "y": rng.choice(["p", "q"], 400)})
    dsa, dsb = rd.from_pandas(a).repartition(4), rd.from_pandas(b).repartition(3)
    schema = pa.schema([("x", pa.int64()), ("y", pa.string())])

    def want(op):
        da = a.drop_duplicates()
        kb = set(map(tuple, b[["x", "y"]].itertuples(index=False)))
        m = da.apply(lambda r: (r["x"], r["y"]) in kb, axis=1)
        d = da[m] if op == "intersect" else da[~m]
        return d.sort_values(["x", "y"]).reset_index(drop=True)

    for op in ("intersect", "except"):
        got = (
            set_op_rows(dsa, dsb, ["x", "y"], schema, op=op)
            .to_pandas()
            .sort_values(["x", "y"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want(op), check_dtype=False)

    # single-column path
    s1 = pa.schema([("x", pa.int64())])
    got1 = (
        set_op_rows(dsa.select_columns(["x"]), dsb.select_columns(["x"]), ["x"], s1, op="intersect")
        .to_pandas()
        .sort_values("x")
        .reset_index(drop=True)
    )
    want1 = pd.DataFrame({"x": sorted(set(a["x"]) & set(b["x"]))}).astype("int64")
    pd.testing.assert_frame_equal(got1, want1)


def test_set_op_rows_empty_sides(ray_session):
    import ray.data as rd

    from text_to_graph_ray.functions.agg import set_op_rows

    schema = pa.schema([("x", pa.int64())])
    a = rd.from_arrow(pa.table({"x": pa.array([1, 2, 2, 3], type=pa.int64())}))
    empty = rd.from_arrow(schema.empty_table())
    assert set_op_rows(a, empty, ["x"], schema, op="intersect").count() == 0
    got = set_op_rows(a, empty, ["x"], schema, op="except").to_pandas().sort_values("x").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, pd.DataFrame({"x": [1, 2, 3]}).astype("int64"))


def test_latest_per_key_matches_pandas(ray_session):
    import numpy as np
    import ray.data as rd

    from text_to_graph_ray.functions.agg import latest_per_key

    rng = np.random.default_rng(61)
    n = 2000
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 60, n).astype("int64"),
            # duplicate ts values force the id tiebreaker
            "ts": rng.integers(0, 50, n).astype("int64"),
            "id": np.arange(n, dtype="int64"),
            "v": rng.normal(size=n),
        }
    )
    schema = pa.schema([("k", pa.int64()), ("ts", pa.int64()), ("id", pa.int64()), ("v", pa.float64())])
    got = (
        latest_per_key(rd.from_pandas(df).repartition(7), "k", ["ts", "id"], schema, descending=True)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        df.sort_values(["ts", "id"], ascending=False, kind="mergesort")
        .drop_duplicates("k", keep="first")
        .sort_values("k")
        .reset_index(drop=True)[["k", "ts", "id", "v"]]
    )
    pd.testing.assert_frame_equal(got, want)

    # ascending = keep-oldest
    got_min = (
        latest_per_key(rd.from_pandas(df).repartition(7), "k", ["ts", "id"], schema, descending=False)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want_min = (
        df.sort_values(["ts", "id"], kind="mergesort")
        .drop_duplicates("k", keep="first")
        .sort_values("k")
        .reset_index(drop=True)[["k", "ts", "id", "v"]]
    )
    pd.testing.assert_frame_equal(got_min, want_min)


def test_metadata_row_count_no_execution(ray_session, tmp_path):
    """signature_join='auto' sizing must come from parquet footers even when
    read stages are appended (ds.count() would execute a full scan)."""
    import pyarrow.parquet as pq

    from text_to_graph_ray.functions.dedup import _metadata_row_count
    from text_to_graph_ray.util import read_parquet_clean

    for i in range(3):
        pq.write_table(
            pa.table({"doc_id": pa.array(range(i * 10, i * 10 + 10), type=pa.int64()), "text": ["t"] * 10}),
            str(tmp_path / f"s{i}.parquet"),
        )
    ds = read_parquet_clean(str(tmp_path), columns=["doc_id", "text"])
    assert _metadata_row_count(ds) == 30


def test_worker_crash_mid_pagerank_recovers(ray_session, tmp_path):
    """A worker dying mid-task (os._exit, a real process crash) inside the
    pagerank edge-normalization stage is retried by Ray and the distributed
    plan still produces the exact ranks of a clean run — the new iterative
    operators inherit the same at-least-once safety the extraction path has.
    Safe to retry because every stage is deterministic and side-effect-free."""
    import os

    import numpy as np
    import ray.data as rd

    from text_to_graph_ray.functions.graph import pagerank

    rng = np.random.default_rng(9)
    e = pd.DataFrame({"src": rng.integers(0, 30, 200), "dst": rng.integers(0, 30, 200)}).drop_duplicates()
    ds = rd.from_pandas(e.astype("int64")).repartition(4)

    clean = pagerank(ds, collect_max=0).to_pandas().reset_index(drop=True)

    flag = str(tmp_path / "crashed_once")

    def flaky(b):
        if not os.path.exists(flag):
            try:
                with open(flag, "x") as f:
                    f.write("x")
                os._exit(1)
            except FileExistsError:
                pass
        return b

    crashed = pagerank(
        ds.map_batches(flaky, batch_format="pyarrow"), collect_max=0
    ).to_pandas().reset_index(drop=True)
    assert os.path.exists(flag), "fault was never injected"
    pd.testing.assert_frame_equal(crashed, clean)
