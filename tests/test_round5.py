"""Round-5 tests: batch text kernels, lookup join, the half-up cents rounding
contract, checkpoint compaction, incremental merge, and the KG operators."""

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _adversarial_texts():
    """Texts chosen to stress every divergence between Arrow kernels and the
    Python contracts: edge whitespace, control-char separators (\\x1c-\\x1f
    ARE str.split whitespace), non-ASCII (forces the fallback), CJK (zh
    path), repeated spaces for split(' ') empty tokens, ties in the lang
    profile hit counts, and empty/null-ish rows."""
    return [
        "",
        " ",
        "   ",
        "x",
        "the and of to in is that it with for",  # all-stopword English
        "der die das und ist nicht",  # German
        "le la les et est",  # French
        "el la los y es",  # Spanish
        "la est un une le y",  # cross-language tie material
        "  leading and trailing  ",
        "tab\tsep\nnewline\x0bvt\x0cff\rcr",
        "\x1cfile\x1dgroup\x1erecord\x1funit",  # control separators
        "word " * 120,  # >200 tokens after repetition
        "a b " * 150,  # 300 tokens: the [:200] lang cap binds
        "café naïve résumé the and of",  # non-ASCII fallback
        "一二三 some ascii after cjk",  # zh detection
        "double  space  split",  # split(' ') empty tokens
        "ALL CAPS THE AND OF",
        "punct.!?,;: only",
        "the the the the the",  # max-repetition bigrams
        "1 2 3 4 5 6 7 8 9 10",
        "x" * 500,  # one huge token
        "mixed ümläut the and text",
        "Αβγ greek the and of to in",
    ]


class TestBatchKernelEquivalence:
    def test_quality_and_lang_match_per_row(self):
        from text_to_graph_ray.functions.text import detect_lang, quality_row, text_signals_batch

        texts = _adversarial_texts()
        sig = text_signals_batch(pa.array(texts, type=pa.string()), want=("quality", "lang"))
        for i, t in enumerate(texts):
            toks = t.split()
            ml, sr, al, q = quality_row(t, toks)
            assert sig["mean_tok_len"][i] == ml, (i, t)
            assert sig["stop_ratio"][i] == sr, (i, t)
            assert sig["alpha_ratio"][i] == al, (i, t)
            assert sig["quality"][i] == q, (i, t)
            assert sig["lang"][i] == detect_lang(t, toks), (i, t)

    def test_quality_nulls_and_random_fuzz(self):
        from text_to_graph_ray.functions.text import detect_lang, quality_row, text_signals_batch

        rng = np.random.default_rng(55)
        alphabet = list("abcdefg THEandofto\t\n.!?\x1cé一 0123")
        texts = ["".join(rng.choice(alphabet, size=rng.integers(0, 80))) for _ in range(300)]
        arr = pa.array([None if i % 37 == 0 else t for i, t in enumerate(texts)], type=pa.string())
        sig = text_signals_batch(arr, want=("quality", "lang"))
        for i in range(len(texts)):
            t = "" if i % 37 == 0 else texts[i]
            toks = t.split()
            assert sig["quality"][i] == quality_row(t, toks)[3], (i, repr(t))
            assert sig["lang"][i] == detect_lang(t, toks), (i, repr(t))

    def test_bigram_batch_matches_per_row(self):
        from text_to_graph_ray.functions.text import bigram_rep_batch, bigram_repetition

        texts = _adversarial_texts() + ["a a a a", "a b a b a b", "  ", "one"]
        valid, n_big, dup, top = bigram_rep_batch(pa.array(texts, type=pa.string()))
        for i, t in enumerate(texts):
            total, df, tf = bigram_repetition(t)
            if total is None:
                assert not valid[i], (i, repr(t))
            else:
                assert valid[i] and n_big[i] == total, (i, repr(t))
                assert dup[i] == df and top[i] == tf, (i, repr(t))

    def test_gates_match_old_per_row_logic(self, ray_session):
        from text_to_graph_ray.functions.text import bigram_repetition, detect_lang, quality_row
        from text_to_graph_ray.pipelines.curation import pretraining_gate, quality_lang_gate

        texts = _adversarial_texts()
        batch = pa.table({
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        })

        def old_keep(t, with_rep):
            toks = t.split()
            if quality_row(t, toks)[3] < 0.45 or detect_lang(t, toks) not in ("en",):
                return False
            if not with_rep:
                return True
            _, df, _ = bigram_repetition(t)
            return not (df is not None and df > 0.06)

        got_q = quality_lang_gate(batch, 0.45)
        assert got_q.column("doc_id").to_pylist() == [
            i for i, t in enumerate(texts) if old_keep(t, with_rep=False)
        ]
        got_p = pretraining_gate(batch, 0.45, ("en",), 0.06)
        assert got_p.column("doc_id").to_pylist() == [
            i for i, t in enumerate(texts) if old_keep(t, with_rep=True)
        ]


class TestLookupJoin:
    def _sides(self, ray_session):
        import ray as _ray

        left = pa.table({
            "k": pa.array([1, 2, 3, 4, 2, 9], type=pa.int64()),
            "v": pa.array([10, 20, 30, 40, 21, 90], type=pa.int64()),
        })
        right = pa.table({
            "rk": pa.array([2, 3, 5], type=pa.int64()),
            "name": pa.array(["two", "three", "five"], type=pa.string()),
            "w": pa.array([200, 300, 500], type=pa.int64()),
        })
        return (_ray.data.from_arrow(left).repartition(3),
                _ray.data.from_arrow(right).repartition(2))

    def _expect(self):
        m = {2: ("two", 200), 3: ("three", 300)}
        rows = [(1, 10), (2, 20), (3, 30), (4, 40), (2, 21), (9, 90)]
        return sorted((k, v, *(m.get(k, (None, None)))) for k, v in rows)

    def test_broadcast_left_outer_semantics(self, ray_session):
        from text_to_graph_ray.functions.joins import lookup_join

        left, right = self._sides(ray_session)
        got = lookup_join(left, right, key="k", right_key="rk").to_pandas()
        rows = sorted(
            (int(r.k), int(r.v), None if r.name is None or r.name != r.name else r.name,
             None if r.w != r.w else int(r.w))
            for r in got.itertuples()
        )
        assert rows == self._expect()

    def test_fallback_plan_identical(self, ray_session):
        from text_to_graph_ray.functions.joins import lookup_join

        left, right = self._sides(ray_session)
        got = lookup_join(left, right, key="k", right_key="rk", broadcast_max=0).to_pandas()
        rows = sorted(
            (int(r.k), int(r.v), None if r.name is None or r.name != r.name else r.name,
             None if r.w != r.w else int(r.w))
            for r in got.itertuples()
        )
        assert rows == self._expect()

    def test_duplicate_right_keys_rejected_both_plans(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.functions.joins import lookup_join

        left = _ray.data.from_arrow(pa.table({"k": pa.array([1], type=pa.int64())}))
        dup = _ray.data.from_arrow(pa.table({
            "k": pa.array([7, 7], type=pa.int64()),
            "x": pa.array([1, 2], type=pa.int64()),
        }))
        with pytest.raises(Exception, match="not unique"):
            lookup_join(left, dup, key="k").materialize()
        with pytest.raises(Exception, match="not unique"):
            lookup_join(left, dup, key="k", broadcast_max=0).materialize()

    def test_column_clash_rejected(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.functions.joins import lookup_join

        left = _ray.data.from_arrow(pa.table({"k": pa.array([1], type=pa.int64()),
                                              "x": pa.array([1], type=pa.int64())}))
        right = _ray.data.from_arrow(pa.table({"k": pa.array([1], type=pa.int64()),
                                               "x": pa.array([2], type=pa.int64())}))
        with pytest.raises(ValueError, match="already exist"):
            lookup_join(left, right, key="k")


class TestMinhashCrossPairs:
    def _corpora(self):
        base = [
            "alpha beta gamma delta epsilon zeta eta theta " * 4,
            "one two three four five six seven eight nine ten " * 3,
            "the quick brown fox jumps over the lazy dog again " * 3,
        ]
        ev_texts = base + ["totally unrelated eval document about astrophysics"]
        tr_texts = (
            [t.replace("gamma", "gamma2", 1) for t in base[:1]]  # near-dup of ev 0
            + [base[1]]                                           # exact dup of ev 1
            + ["training doc with no counterpart whatsoever in eval"] * 3
        )
        ev = pa.table({"doc_id": pa.array(range(len(ev_texts)), type=pa.int64()),
                       "text": pa.array(ev_texts, type=pa.string())})
        tr = pa.table({"doc_id": pa.array(range(100, 100 + len(tr_texts)), type=pa.int64()),
                       "text": pa.array(tr_texts, type=pa.string())})
        return ev, tr, ev_texts, tr_texts

    def test_matches_naive_and_no_within_side_pairs(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.expected import naive_cross_minhash_pairs
        from text_to_graph_ray.functions.dedup import minhash_cross_pairs

        ev, tr, ev_texts, tr_texts = self._corpora()
        got = minhash_cross_pairs(
            _ray.data.from_arrow(ev).repartition(2),
            _ray.data.from_arrow(tr).repartition(3),
            threshold=0.5,
        ).to_pandas()
        na, nb, ne = naive_cross_minhash_pairs(
            list(range(len(ev_texts))), ev_texts,
            list(range(100, 100 + len(tr_texts))), tr_texts,
        )
        naive = [(a, b, e) for (a, b), e in zip(zip(na, nb), ne) if e >= 0.5]
        assert [(int(r.a), int(r.b), float(r.est_jaccard)) for r in got.itertuples()] == naive
        assert len(naive) >= 2  # the planted near-dup and exact dup both fire
        # every pair is cross-side: a in eval id space, b in train id space
        assert all(r.a < 100 <= r.b for r in got.itertuples())

    def test_id_range_guard(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.functions.dedup import minhash_cross_pairs

        bad = _ray.data.from_arrow(pa.table({
            "doc_id": pa.array([-1], type=pa.int64()),
            "text": pa.array(["x"], type=pa.string()),
        }))
        ok = _ray.data.from_arrow(pa.table({
            "doc_id": pa.array([1], type=pa.int64()),
            "text": pa.array(["x"], type=pa.string()),
        }))
        with pytest.raises(Exception, match="ids must be in"):
            minhash_cross_pairs(bad, ok).materialize()


class TestHalfUpCents:
    def test_floor_plus_half_matches_duckdb_round(self):
        """floor(x*100 + 0.5) must agree with DuckDB's round() (half away
        from zero for positives) on values where np.round (half-even)
        disagrees — e.g. 0.125*100 = 12.5."""
        import duckdb

        vals = [0.125, 0.135, 0.005, 0.015, 1.005, 2.675, 0.1, 0.33]
        engine = np.floor(np.asarray(vals) * 100.0 + 0.5).astype(np.int64)
        sql = duckdb.sql(
            "SELECT CAST(floor(v * 100 + 0.5) AS BIGINT) c FROM (SELECT unnest(?::DOUBLE[]) v)",
            params=[vals],
        ).fetchall()
        assert engine.tolist() == [r[0] for r in sql]
        # and np.round genuinely differs on the half-even cases, proving the
        # old formula was only saved by the 2-decimal synth contract
        assert np.round(0.125 * 100).astype(np.int64) != engine[0]


class TestIncrementalMinhash:
    def test_incremental_equals_full_rebuild_slice(self, ray_session):
        """pairs(new) ∪ cross(old, new) must hash-equal the full corpus
        recompute restricted to pairs involving a new doc — planted dups in
        all three configurations: old-old (must NOT appear), old-new and
        new-new (must appear)."""
        import ray as _ray

        from text_to_graph_ray.functions.dedup import (
            minhash_cross_pairs, minhash_near_dup_pairs,
        )

        base = [
            "alpha beta gamma delta epsilon zeta " * 5,
            "one two three four five six seven " * 5,
            "lorem ipsum dolor sit amet consectetur " * 5,
        ]
        texts = (
            [base[0], base[0] + " tailword"]       # old-old near-dup (ids 0,1)
            + [base[1], "filler doc about nothing relevant"]   # 2, 3
            + [base[1] + " coda", base[2], base[2]]  # new: 4 (dups old 2), 5/6 (new-new dup)
        )
        t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                      "text": pa.array(texts, type=pa.string())})
        full = minhash_near_dup_pairs(
            _ray.data.from_arrow(t).repartition(3), threshold=0.5).to_pandas()
        cutoff = 4
        old_t, new_t = t.slice(0, cutoff), t.slice(cutoff)
        inc = (
            minhash_near_dup_pairs(_ray.data.from_arrow(new_t).repartition(2), threshold=0.5)
            .union(minhash_cross_pairs(_ray.data.from_arrow(old_t).repartition(2),
                                       _ray.data.from_arrow(new_t).repartition(2), threshold=0.5))
            .sort(["a", "b"])
            .to_pandas()
        )
        want = full[full["b"] >= cutoff].reset_index(drop=True)
        assert inc.values.tolist() == want.values.tolist()
        pairs = {(int(r.a), int(r.b)) for r in inc.itertuples()}
        assert (2, 4) in pairs and (5, 6) in pairs   # old-new and new-new found
        assert (0, 1) not in pairs                   # old-old never re-enumerated
        assert (0, 1) in {(int(r.a), int(r.b)) for r in full.itertuples()}


class TestCheckpointCompactionAndGC:
    """VERDICT r4 #8: manifest compaction + config-hash retention keep a
    long-lived checkpoint root bounded."""

    def test_overlay_individual_row_wins_until_next_compaction(self, tmp_path):
        from text_to_graph_ray.state.checkpoint import CheckpointStore

        st = CheckpointStore(str(tmp_path), "cfgA")
        st.mark_done("s", 1, rows=10)
        st.mark_done("s", 2, rows=20)
        assert st.compact_stage("s") == 2
        mdir = os.path.join(st.base, "_manifest", "s")
        assert sorted(os.listdir(mdir)) == ["compacted.json"]
        assert st.done_parts("s") == {1, 2}
        assert st.manifest("s", 2)["rows"] == 20
        # a newer individual row shadows the snapshot...
        st.mark_done("s", 2, rows=99)
        assert st.manifest("s", 2)["rows"] == 99
        # ...and survives the next compaction
        assert st.compact_stage("s") == 2
        assert st.manifest("s", 2)["rows"] == 99
        assert sorted(os.listdir(mdir)) == ["compacted.json"]
        # invalidation removes from the snapshot too
        st.invalidate_parts("s", [1])
        assert st.done_parts("s") == {2}
        assert st.manifest("s", 1) is None

    def test_resume_after_compaction_skips_completed(self, ray_session, small_corpus, tmp_path_factory):
        from text_to_graph_ray.config import PipelineConfig
        from text_to_graph_ray.pipelines import kg
        from text_to_graph_ray.state.checkpoint import CheckpointStore

        cfg = PipelineConfig(num_partitions=8)
        out = str(tmp_path_factory.mktemp("ckpt_compact"))
        r1 = kg.run(small_corpus["path"], out, cfg)
        store = CheckpointStore(f"{out}/checkpoints", cfg.config_hash())
        # a completed run leaves exactly one manifest file per stage
        for stage in ("records", "merged", "graph"):
            mdir = os.path.join(store.base, "_manifest", stage)
            assert sorted(os.listdir(mdir)) == ["compacted.json"], stage
        r2 = kg.run(small_corpus["path"], out, cfg)
        assert r2["parts_computed"] == 0
        assert r2["parts_skipped"] == r1["parts_total"]
        # forget two partitions -> resume recomputes exactly those
        victims = sorted(store.done_parts("records"))[:2]
        store.invalidate_parts("records", victims)
        for p in victims:
            shutil.rmtree(os.path.join(store.stage_dir("records"), f"part_id={p}"), ignore_errors=True)
        r3 = kg.run(small_corpus["path"], out, cfg)
        assert r3["parts_computed"] == len(victims)
        assert (r3["nodes"], r3["edges"]) == (r1["nodes"], r1["edges"])

    def test_gc_keeps_recent_and_current(self, tmp_path):
        import time as _time

        from text_to_graph_ray.state.checkpoint import CheckpointStore, gc_config_roots

        root = str(tmp_path / "ck")
        for i in range(4):
            st = CheckpointStore(root, f"cfg{i}")
            st.mark_done("s", 0, rows=i)
            # distinct marker mtimes (ns resolution is enough, but be safe)
            _time.sleep(0.01)
        removed = gc_config_roots(root, keep_last=2, current="cfg0")
        # cfg3/cfg2 newest -> kept; cfg0 is current -> kept; cfg1 dropped
        assert removed == ["cfg1"]
        assert sorted(os.listdir(root)) == ["cfg0", "cfg2", "cfg3"]
        # re-opening an old store refreshes its recency
        CheckpointStore(root, "cfg2")
        _time.sleep(0.01)
        assert sorted(gc_config_roots(root, keep_last=1, current="cfg2")) == ["cfg0", "cfg3"]

    def test_run_gc_drops_stale_config_tree(self, ray_session, small_corpus, tmp_path_factory):
        from text_to_graph_ray.config import PipelineConfig
        from text_to_graph_ray.pipelines import kg

        out = str(tmp_path_factory.mktemp("ckpt_gc"))
        c1 = PipelineConfig(num_partitions=4)
        c2 = PipelineConfig(num_partitions=4, chunk_size=300)
        kg.run(small_corpus["path"], out, c1)
        kg.run(small_corpus["path"], out, c2, gc_keep_configs=0)  # keep only current
        assert sorted(os.listdir(f"{out}/checkpoints")) == [c2.config_hash()]


class TestDeltaScopedIncrementalMerge:
    """VERDICT r4 #6: merge_increment(delta=True) scopes the re-merge
    exchange to identities the increment touches; untouched base rows
    stream through. Must be hash-identical to the full plan — including
    with linking, with the guard tripped, and on overlapping key sets."""

    def _mk_files(self, rows):
        import ray

        return ray.data.from_arrow(pa.table({
            "repo": pa.array([r[0] for r in rows]),
            "path": pa.array([r[1] for r in rows]),
            "lang": pa.array(["python"] * len(rows)),
            "content": pa.array([r[2] for r in rows]),
        }))

    def _build(self, rows, cfg):
        from text_to_graph_ray.pipelines import kg

        ds = self._mk_files(rows)
        return kg.merged_graph(kg.keyed_records(kg.extract_chain(ds, cfg), cfg), cfg)

    def test_delta_equals_full_with_linking(self, ray_session):
        from text_to_graph_ray.config import PipelineConfig
        from text_to_graph_ray.pipelines import kg

        # base and increment SHARE entities (f0..f8 call-chain wraps) and the
        # increment adds new defs that must rewrite base mentions via linking
        base_rows = [
            ("r1", f"m{i}.py", f"import os\n\ndef f{i}():\n    g{(i + 1) % 9}()\n")
            for i in range(9)
        ]
        inc_rows = [
            ("r2", "new.py", "import os\n\ndef g1():\n    f0()\n"),
            ("r2", "new2.py", "def brand_new():\n    g1()\n"),
        ]
        full_cfg = PipelineConfig(link_aliases=True)
        nolink = PipelineConfig(link_aliases=False)
        parts = [self._build(base_rows, nolink), self._build(inc_rows, nolink)]

        full_nodes = kg.nodes_from_merged(kg.merge_increment(parts, full_cfg)).to_pandas()
        full_edges = kg.edges_from_merged(kg.merge_increment(parts, full_cfg)).to_pandas()
        delta_m = kg.merge_increment(parts, full_cfg, delta=True)
        import pandas as pd

        pd.testing.assert_frame_equal(
            kg.nodes_from_merged(delta_m).to_pandas().reset_index(drop=True),
            full_nodes.reset_index(drop=True),
        )
        pd.testing.assert_frame_equal(
            kg.edges_from_merged(delta_m).to_pandas().reset_index(drop=True),
            full_edges.reset_index(drop=True),
        )

    def test_guard_zero_forces_full_plan_same_result(self, ray_session):
        import pandas as pd

        from text_to_graph_ray.config import PipelineConfig
        from text_to_graph_ray.pipelines import kg

        nolink = PipelineConfig(link_aliases=False)
        a = [("r1", "a.py", "def Alpha():\n    beta()\n")]
        b = [("r2", "b.py", "def beta():\n    Alpha()\n")]
        parts = [self._build(a, nolink), self._build(b, nolink)]
        want = kg.nodes_from_merged(kg.merge_increment(parts, nolink), with_ids=False).to_pandas()
        got = kg.nodes_from_merged(
            kg.merge_increment(parts, nolink, delta=True, delta_keys_max=0), with_ids=False
        ).to_pandas()
        pd.testing.assert_frame_equal(got.reset_index(drop=True), want.reset_index(drop=True))

    def test_untouched_rows_bypass_the_exchange(self, ray_session):
        """The plan property itself: with a disjoint increment, only
        increment-identity rows enter the bucket exchange (counted via the
        touched-side filter), and label-casing merges still resolve when the
        increment DOES touch a base identity."""
        import pandas as pd

        from text_to_graph_ray.config import PipelineConfig
        from text_to_graph_ray.pipelines import kg

        nolink = PipelineConfig(link_aliases=False)
        base_rows = [("r1", f"m{i}.py", f"def f{i}():\n    pass\n") for i in range(8)]
        inc_rows = [("r2", "x.py", "def F3():\n    pass\n")]  # touches f3 only
        base_m = self._build(base_rows, nolink).materialize()
        inc_m = self._build(inc_rows, nolink)
        got = kg.nodes_from_merged(
            kg.merge_increment([base_m, inc_m], nolink, delta=True), with_ids=False
        ).to_pandas()
        want = kg.nodes_from_merged(
            kg.merge_increment([base_m, inc_m], nolink), with_ids=False
        ).to_pandas()
        pd.testing.assert_frame_equal(got.reset_index(drop=True), want.reset_index(drop=True))
        # min-own rule resolved across increments: ONE row for f3, with the
        # ASCII-min own label ("F3" < "f3") and both repos in provenance
        row = got[got.entity_key == "f3"]
        assert len(row) == 1 and row.iloc[0]["label"] == "F3"
        assert row.iloc[0]["repos_packed"] == "r1|r2"


class TestKgSchemaAndNegatives:
    def test_schema_summary_covers_every_edge(self, ray_session):
        import __ray_entry__ as E

        sf = "/root/testdata/sf0.001"
        got = E._q_kg_schema_summary(sf).to_pandas()
        _, edges = E._kg_tables(sf, link=True)
        assert got["n_edges"].sum() == len(edges)  # every edge classified
        assert got["src_type"].notna().all() and got["dst_type"].notna().all()
        # the summary is a rollup of the real join, recomputed naively
        nodes, _ = E._kg_tables(sf, link=True)
        tp = dict(zip(nodes["entity_key"], nodes["types_packed"]))
        naive = (
            edges.assign(src_type=edges["src_key"].map(tp), dst_type=edges["dst_key"].map(tp))
            .groupby(["src_type", "pred", "dst_type"], as_index=False).size()
            .rename(columns={"size": "n_edges"})
            .sort_values(["src_type", "pred", "dst_type"]).reset_index(drop=True)
        )
        g = got.sort_values(["src_type", "pred", "dst_type"]).reset_index(drop=True)
        assert g[["src_type", "pred", "dst_type"]].values.tolist() == naive[["src_type", "pred", "dst_type"]].values.tolist()
        assert g["n_edges"].tolist() == naive["n_edges"].astype("int64").tolist()

    def test_negative_samples_deterministic_and_clean(self, ray_session):
        import hashlib

        import __ray_entry__ as E

        sf = "/root/testdata/sf0.001"
        got = E._q_kg_negative_samples(sf).to_pandas()
        got2 = E._q_kg_negative_samples(sf).to_pandas()
        assert got.equals(got2)  # deterministic end to end
        nodes, edges = E._kg_tables(sf, link=True)
        truth = set(zip(edges["src_key"], edges["pred"], edges["dst_key"]))
        # no emitted negative is a true triple
        assert not any((s, p, g) in truth for s, p, g in got.itertuples(index=False))
        # the hash contract: recompute a few rows by hand
        keys_by_id = nodes.sort_values("entity_id")["entity_key"].to_numpy()
        n = len(keys_by_id)
        sample = edges.head(20)
        expected = {}
        for s, p, d in zip(sample["src_key"], sample["pred"], sample["dst_key"]):
            neg = keys_by_id[int(hashlib.sha256(f"{s}|{p}|{d}".encode()).hexdigest()[:8], 16) % n]
            if (s, p, neg) not in truth:
                expected[(s, p)] = neg
        emitted = {(s, p): g for s, p, g in got.itertuples(index=False)}
        for k, v in expected.items():
            assert emitted.get(k) == v or v in got[got["src_key"] == k[0]]["neg_key"].values


class TestMetapathAndIntegrity:
    def test_metapath_matches_pandas(self, ray_session):
        import __ray_entry__ as E

        sf = "/root/testdata/sf0.001"
        got = E._q_kg_metapath_counts(sf).to_pandas()
        _, edges = E._kg_tables(sf, link=True)
        d = edges[edges["pred"] == "defines"][["src_key", "dst_key"]]
        c = edges[edges["pred"] == "calls"][["src_key", "dst_key"]]
        j = d.merge(c, left_on="dst_key", right_on="src_key", suffixes=("", "_c"))
        exp = j.groupby("src_key", as_index=False).size().rename(columns={"size": "n_paths"})
        exp = exp.sort_values("src_key").reset_index(drop=True)
        assert got["src_key"].tolist() == exp["src_key"].tolist()
        assert got["n_paths"].tolist() == exp["n_paths"].astype("int64").tolist()
        assert len(got) > 0  # the synth KG has defines->calls chains


class TestLmTercilesAndRewrites:
    def test_link_rewrites_match_pandas_except(self, ray_session):
        import __ray_entry__ as E

        sf = "/root/testdata/sf0.001"
        got = E._q_kg_link_rewrites(sf).to_pandas()
        _, raw = E._kg_tables(sf, link=False)
        _, linked = E._kg_tables(sf, link=True)
        r = set(map(tuple, raw[["src_key", "pred", "dst_key"]].values))
        l = set(map(tuple, linked[["src_key", "pred", "dst_key"]].values))
        diff = r - l
        exp = {}
        for _, p, _d in diff:
            exp[p] = exp.get(p, 0) + 1
        assert dict(zip(got["pred"], got["n_rewritten"])) == exp
        assert got["n_rewritten"].sum() == len(diff) > 0  # linking is live


class TestKgDegreeDistribution:
    def test_frexp_bucketing_is_exact_bit_length(self):
        # the engine buckets deg -> floor(log2(deg)) via frexp; must equal
        # int.bit_length()-1 across powers of two and their neighbours
        ds = np.array(sorted({1, 2, 3, 4, 7, 8, 9, 255, 256, 257,
                              (1 << 20) - 1, 1 << 20, (1 << 40) + 3}), dtype=np.int64)
        got = np.frexp(ds.astype(np.float64))[1].astype(np.int64) - 1
        exp = [int(x).bit_length() - 1 for x in ds.tolist()]
        assert got.tolist() == exp

    def test_histogram_counts_every_endpoint(self, ray_session):
        import __ray_entry__ as E

        sf = "/root/testdata/sf0.001"
        got = E._q_kg_degree_distribution(sf).to_pandas()
        _, edges = E._kg_tables(sf, link=True)
        from collections import Counter

        deg = Counter(edges["src_key"]) + Counter(edges["dst_key"])
        exp = Counter(int(v).bit_length() - 1 for v in deg.values())
        assert dict(zip(got["bucket"], got["n_nodes"])) == dict(exp)
        assert got["n_nodes"].sum() == len(deg)
        assert got["bucket"].is_monotonic_increasing


class TestForestDepths:
    def _naive(self, edges):
        parent = {c: p for p, c in edges}
        roots = {p for p, _ in edges} - set(parent)
        depth = {}

        def d(n):
            if n in depth:
                return depth[n]
            depth[n] = 0 if n in roots else d(parent[n]) + 1
            return depth[n]

        nodes = roots | set(parent)
        return sorted((n, d(n)) for n in nodes)

    def test_two_trees_matches_naive(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.functions.graph import forest_depths

        edges = [("r1", "a"), ("r1", "b"), ("a", "c"), ("c", "d"),
                 ("r2", "x"), ("x", "y"), ("x", "z"), ("z", "w")]
        t = pa.table({"src": pa.array([e[0] for e in edges], type=pa.string()),
                      "dst": pa.array([e[1] for e in edges], type=pa.string())})
        got = forest_depths(_ray.data.from_arrow(t).repartition(3),
                            node_type=pa.string()).to_pandas()
        assert list(map(tuple, got[["node", "depth"]].values)) == self._naive(edges)

    def test_cycle_raises(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.functions.graph import forest_depths

        # r -> a -> b -> a : node 'a' has a root-reachable cycle below it
        t = pa.table({"src": pa.array(["r", "a", "b"], type=pa.string()),
                      "dst": pa.array(["a", "b", "a"], type=pa.string())})
        with pytest.raises(ValueError, match="max_depth"):
            forest_depths(_ray.data.from_arrow(t), node_type=pa.string(), max_depth=5)

    def test_chain_exactly_max_depth(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.functions.graph import forest_depths

        # r -> a -> b -> c : the deepest level sits exactly at max_depth=3
        t = pa.table({"src": pa.array(["r", "a", "b"], type=pa.string()),
                      "dst": pa.array(["a", "b", "c"], type=pa.string())})
        got = forest_depths(_ray.data.from_arrow(t), node_type=pa.string(), max_depth=3).to_pandas()
        assert list(map(tuple, got[["node", "depth"]].values)) == [("a", 1), ("b", 2), ("c", 3), ("r", 0)]

    def test_single_root_no_children(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.functions.graph import forest_depths

        t = pa.table({"src": pa.array(["only"], type=pa.string()),
                      "dst": pa.array(["leaf"], type=pa.string())})
        got = forest_depths(_ray.data.from_arrow(t), node_type=pa.string()).to_pandas()
        assert list(map(tuple, got[["node", "depth"]].values)) == [("leaf", 1), ("only", 0)]


class TestKgRepoTriples:
    def test_matches_python_explode(self, ray_session):
        import __ray_entry__ as E

        sf = "/root/testdata/sf0.001"
        got = E._q_kg_repo_triples(sf).to_pandas()
        _, edges = E._kg_tables(sf, link=True)
        from collections import Counter

        exp = Counter()
        for packed in edges["repos_packed"]:
            for r in packed.split("|"):
                exp[r] += 1
        assert dict(zip(got["repo"], got["n_triples"])) == dict(exp)
        # every triple counted at least once per packed repo
        assert got["n_triples"].sum() >= len(edges)
        assert got["repo"].is_monotonic_increasing

    def test_explode_fans_out_packed_provenance(self, ray_session):
        import pyarrow.compute as pc

        # the pure-Arrow kernel itself: multi-repo packs must fan out
        packed = pa.chunked_array([pa.array(["a|b", "a", "b|c|a"], type=pa.string())])
        repos = pc.list_flatten(pc.split_pattern(packed.combine_chunks(), "|"))
        vc = repos.value_counts()
        assert dict(zip(vc.field("values").to_pylist(),
                        vc.field("counts").to_pylist())) == {"a": 3, "b": 2, "c": 1}


class TestForestDepthsProperty:
    @staticmethod
    def _forest_edges(draw):
        from hypothesis import strategies as st

        n = draw(st.integers(min_value=2, max_value=24))
        edges = []
        for child in range(1, n):
            # parent strictly below the child's index => acyclic forest;
            # None leaves the node an isolated root (not in any edge)
            parent = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=child - 1)))
            if parent is not None:
                edges.append((f"n{parent}", f"n{child}"))
        return edges

    def test_random_forests_match_naive(self, ray_session):
        import ray as _ray
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from text_to_graph_ray.functions.graph import forest_depths

        outer = self

        @settings(max_examples=12, deadline=None)
        @given(st.data())
        def run(data):
            edges = outer._forest_edges(data.draw)
            if not edges:
                return
            t = pa.table({"src": pa.array([e[0] for e in edges], type=pa.string()),
                          "dst": pa.array([e[1] for e in edges], type=pa.string())})
            got = forest_depths(_ray.data.from_arrow(t).repartition(2),
                                node_type=pa.string()).to_pandas()
            assert list(map(tuple, got[["node", "depth"]].values)) == \
                TestForestDepths._naive(TestForestDepths(), edges)

        run()
