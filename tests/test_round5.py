"""Round-5 tests: batch text kernels, lookup join, the half-up cents rounding
contract, checkpoint compaction, incremental merge, and the kept text, mixture,
label-agreement and KG operators."""

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


class TestLengthBandStats:
    def test_matches_numpy_linear_quantiles(self, ray_session):
        """Per-group band membership must match numpy linear-interpolated
        quantiles (the quantile_cont contract) with round(6) thresholds,
        including a group whose p5/p95 land on fractional positions."""
        import ray as _ray

        from text_to_graph_ray.functions.text import length_band_stats

        rng = np.random.default_rng(23)
        rows = []
        for g, sizes in (("g0", rng.integers(1, 50, 37)), ("g1", rng.integers(5, 500, 83)),
                         ("g2", np.array([7]))):  # single-doc group: band == its own length
            for s in sizes:
                rows.append((g, "w " * int(s)))
        t = pa.table({"source": pa.array([g for g, _ in rows], type=pa.string()),
                      "doc_id": pa.array(range(len(rows)), type=pa.int64()),
                      "text": pa.array([x for _, x in rows], type=pa.string())})
        got = length_band_stats(_ray.data.from_arrow(t).repartition(5)).to_pandas()

        import pandas as pd
        df = pd.DataFrame({"source": [g for g, _ in rows],
                           "n": [len(x.split()) for _, x in rows]})
        want = []
        for g, grp in df.groupby("source"):
            lo = round(float(np.quantile(grp["n"], 0.05, method="linear")), 6)
            hi = round(float(np.quantile(grp["n"], 0.95, method="linear")), 6)
            keep = grp[(grp["n"] >= lo) & (grp["n"] <= hi)]
            want.append((g, len(keep), int(keep["n"].sum())))
        assert [tuple(r) for r in got.itertuples(index=False)] == want
        assert (got.set_index("source").loc["g2"] == (1, 7)).all()

    def test_group_count_guard(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.functions.text import length_band_stats

        t = pa.table({"source": pa.array([f"s{i}" for i in range(40)], type=pa.string()),
                      "text": pa.array(["a b c"] * 40, type=pa.string())})
        with pytest.raises(ValueError, match="answer-sized"):
            length_band_stats(_ray.data.from_arrow(t), max_groups=10)


class TestBigramLM:
    def _docs(self):
        texts = [
            "the cat sat on the mat",
            "the cat ate",
            "solo",
            "",
            "the cat sat on the mat",  # exact dup: identical score
            "unseen words entirely here",
        ]
        return pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                         "text": pa.array(texts, type=pa.string())}), texts

    def test_matches_naive_and_edge_cases(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.expected import naive_bigram_lm
        from text_to_graph_ray.functions.text import bigram_lm_nll

        t, texts = self._docs()
        got = bigram_lm_nll(_ray.data.from_arrow(t).repartition(3)).to_pandas()
        nb, nll = naive_bigram_lm(list(range(len(texts))), texts)
        assert got["n_bigrams"].tolist() == nb
        assert got["nll"].tolist() == nll
        assert got.loc[2, "n_bigrams"] == 0 and got.loc[2, "nll"] == 0.0  # 1 token
        assert got.loc[3, "n_bigrams"] == 0 and got.loc[3, "nll"] == 0.0  # empty
        assert got.loc[0, "nll"] == got.loc[4, "nll"]  # dup docs score equal
        # dup'd doc is MORE likely under the corpus model than the unique one
        assert got.loc[0, "nll"] < got.loc[5, "nll"]

    def test_broadcast_and_exchange_plans_identical(self, ray_session):
        """counts_broadcast_max=0 forces lookup_join's bucketed fallback for
        both count attachments; quantized term sums make the paths
        bit-identical."""
        import ray as _ray

        from text_to_graph_ray.functions.text import bigram_lm_nll

        t, _ = self._docs()
        a = bigram_lm_nll(_ray.data.from_arrow(t).repartition(3)).to_pandas()
        b = bigram_lm_nll(_ray.data.from_arrow(t).repartition(3), counts_broadcast_max=0).to_pandas()
        assert a.values.tolist() == b.values.tolist()


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


class TestExplodeBigramsVectorized:
    def test_differential_vs_per_row_contract(self):
        """Batch kernel == per-row kernel as a multiset of (doc, bg, f, m),
        over adversarial inputs: every ASCII char as separator candidates,
        leading/trailing/repeated whitespace, 0/1-token docs, dup bigrams,
        non-ASCII fallback rows, nulls."""
        import pandas as pd

        from text_to_graph_ray.functions.text import (
            _explode_bigrams_rows, explode_bigrams_batch,
        )

        texts = [
            "a b a b a",                    # dup bigrams
            "  leading and  trailing  ",
            "single",
            "",
            None,
            "café au lait café au",  # non-ascii fallback
            "x\ty\nz\x0b w \x0c q",
            "\x1c a \x1d b \x1e c \x1f d",  # ascii control seps (str.split strips)
            " ".join(f"w{i%7}" for i in range(50)),
        ]
        ids = list(range(len(texts)))
        t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                      "text": pa.array(texts, type=pa.string())})
        got = explode_bigrams_batch(t).to_pandas()
        d, bgs, f, m = _explode_bigrams_rows(ids, ["" if x is None else x for x in texts])
        want = pd.DataFrame({"doc_id": d, "bg": bgs, "f": f, "m": m})
        key = ["doc_id", "bg", "f", "m"]
        assert (
            got.sort_values(key).reset_index(drop=True)[key].values.tolist()
            == want.sort_values(key).reset_index(drop=True)[key].values.tolist()
        )
        assert (got["m"] > 0).all() and len(got) > 0

    def test_all_128_ascii_one_char_seps(self):
        """For every ASCII char c, 'a<c>b' must tokenize identically in the
        batch kernel and str.split (whitespace chars split, others glue)."""
        import pandas as pd

        from text_to_graph_ray.functions.text import (
            _explode_bigrams_rows, explode_bigrams_batch,
        )

        texts = [f"a{chr(c)}b x" for c in range(128)]
        ids = list(range(128))
        t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                      "text": pa.array(texts, type=pa.string())})
        got = explode_bigrams_batch(t).to_pandas()
        d, bgs, f, m = _explode_bigrams_rows(ids, texts)
        want = pd.DataFrame({"doc_id": d, "bg": bgs, "f": f, "m": m})
        key = ["doc_id", "bg", "f", "m"]
        assert (
            got.sort_values(key).reset_index(drop=True)[key].values.tolist()
            == want.sort_values(key).reset_index(drop=True)[key].values.tolist()
        )


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


class TestShuffleShards:
    def test_permutation_balance_and_naive_match(self, ray_session):
        import hashlib

        import ray as _ray

        from text_to_graph_ray.functions.sample import shuffle_shards

        ids = [7, 1, 42, 300, 5, 19, 88, 250, 3, 1001, 64, 12]
        t = pa.table({"doc_id": pa.array(ids, type=pa.int64())})
        got = shuffle_shards(_ray.data.from_arrow(t).repartition(3), n_shards=5).to_pandas()
        # pos is a permutation of 0..N-1
        assert sorted(got["pos"]) == list(range(len(ids)))
        # shard striping: pos % n_shards, so shard sizes balanced within 1
        assert (got["shard"] == got["pos"] % 5).all()
        sizes = got.groupby("shard").size()
        assert sizes.max() - sizes.min() <= 1
        # exact per-row position matches the naive md5-ordered rank
        order = sorted(ids, key=lambda i: (hashlib.md5(str(i).encode()).hexdigest(), i))
        want = {i: p for p, i in enumerate(order)}
        assert {r.doc_id: r.pos for r in got.itertuples()} == want


class TestMixturePlan:
    @staticmethod
    def _naive(rows, budget):
        # rows: list of (source, tokens-per-doc lists)
        tot = {s: sum(ts) for s, ts in rows}
        total = sum(tot.values())
        base = {s: budget * v // total for s, v in tot.items()}
        left = budget - sum(base.values())
        for s in sorted(tot, key=lambda s: (-(budget * tot[s] % total), s))[:left]:
            base[s] += 1
        return tot, base

    def test_exact_hamilton_allocation(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.functions.sample import mixture_plan

        rows = [
            ("web", ["a b c", "d e", "f"]),           # 6 tokens
            ("code", ["x y z w", "q"]),               # 5 tokens
            ("books", ["l m n o p r s"]),             # 7 tokens
        ]
        flat_src, flat_txt = [], []
        for s, ts in rows:
            for txt in ts:
                flat_src.append(s)
                flat_txt.append(txt)
        t = pa.table({"source": pa.array(flat_src, type=pa.string()),
                      "text": pa.array(flat_txt, type=pa.string())})
        budget = 100
        got = mixture_plan(_ray.data.from_arrow(t).repartition(4), budget_tokens=budget).to_pandas()
        tok_rows = [(s, [len(x.split(" ")) for x in ts]) for s, ts in rows]
        tot, want = self._naive(tok_rows, budget)
        assert got["alloc_tokens"].sum() == budget
        assert dict(zip(got["source"], got["n_tokens"])) == tot
        assert dict(zip(got["source"], got["alloc_tokens"])) == want
        assert dict(zip(got["source"], got["n_docs"])) == {s: len(ts) for s, ts in rows}

    def test_ties_and_empty_text(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.functions.sample import mixture_plan

        # equal token counts force remainder ties -> source-ASC tiebreak
        t = pa.table({"source": pa.array(["b", "a", "c"], type=pa.string()),
                      "text": pa.array(["x y", "p q", ""], type=pa.string())})
        got = mixture_plan(_ray.data.from_arrow(t), budget_tokens=7).to_pandas()
        # tokens: b=2, a=2, c=1 (empty text = 1 token by the split contract)
        tot, want = self._naive([("b", [2]), ("a", [2]), ("c", [1])], 7)
        assert dict(zip(got["source"], got["alloc_tokens"])) == want
        assert got["alloc_tokens"].sum() == 7


class TestMixtureTemperature:
    def test_sqrt_weights_hand_checked(self, ray_session):
        """Two sources, 9x token imbalance: plain plan splits 90/10, the
        alpha=0.5 plan splits 75/25 (sqrt(9):sqrt(1) = 3:1)."""
        import ray as _ray

        from text_to_graph_ray.functions.sample import mixture_plan

        t = pa.table({
            "source": pa.array(["big"] * 9 + ["small"], type=pa.string()),
            # one token per doc -> n_tokens = doc counts
            "text": pa.array(["x"] * 10, type=pa.string()),
        })
        ds = _ray.data.from_arrow(t).repartition(2)
        plain = mixture_plan(ds, budget_tokens=100, by="source").to_pandas()
        temp = mixture_plan(ds, budget_tokens=100, by="source", temperature=True).to_pandas()
        assert dict(zip(plain["source"], plain["alloc_tokens"])) == {"big": 90, "small": 10}
        assert dict(zip(temp["source"], temp["alloc_tokens"])) == {"big": 75, "small": 25}
        assert temp["alloc_tokens"].sum() == 100


class TestHoldoutSplit:
    def test_counts_and_stability_under_repartition(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.functions.sample import holdout_split

        ids = np.arange(1000, dtype=np.int64)
        sizes = (ids % 37 + 1).astype(np.int64)
        t = pa.table({"doc_id": pa.array(ids), "n_chars": pa.array(sizes)})
        # naive: same hash rule, plain python
        lab = [("train" if b < 80 else "val" if b < 90 else "test")
               for b in ((ids.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(100))]
        import collections
        want_n = collections.Counter(lab)
        want_s = collections.defaultdict(int)
        for l, s in zip(lab, sizes):
            want_s[l] += int(s)
        for parts in (1, 9):
            got = holdout_split(_ray.data.from_arrow(t).repartition(parts),
                                size_col="n_chars").to_pandas()
            assert dict(zip(got["split"], got["n_docs"])) == dict(want_n)
            assert dict(zip(got["split"], got["sum_size"])) == dict(want_s)
        # roughly 80/10/10
        assert 700 < want_n["train"] < 900 and 50 < want_n["val"] < 160


class TestCohensKappa:
    def _run(self, a, b):
        import ray as _ray

        from text_to_graph_ray.functions.stats import cohens_kappa

        t = pa.table({"p": pa.array(a), "q": pa.array(b)})
        return cohens_kappa(_ray.data.from_arrow(t).repartition(3), "p", "q").to_pydict()

    def test_textbook_2x2(self, ray_session):
        # classic 2x2: diag 20/15, off-diag 5/10 -> po=0.7, pe=0.5, kappa=0.4
        a = ["y"] * 25 + ["n"] * 25
        b = ["y"] * 20 + ["n"] * 5 + ["y"] * 10 + ["n"] * 15
        assert self._run(a, b) == {"n_rows": [50], "agree": [35], "kappa": [0.4]}

    def test_degenerate_and_disjoint(self, ray_session):
        # single shared label on both sides: den == 0 -> 1.0 by contract
        assert self._run(["x"] * 5, ["x"] * 5)["kappa"] == [1.0]
        # disjoint label sets: agree = 0, pe = 0 -> kappa = 0/1 scaled = 0.0
        got = self._run(["a", "a", "b"], ["c", "c", "d"])
        assert got == {"n_rows": [3], "agree": [0], "kappa": [0.0]}

    def test_matches_naive_random(self, ray_session):
        rng = np.random.default_rng(3)
        labels = np.array(["en", "de", "fr", "und"])
        a = labels[rng.integers(0, 4, 500)].tolist()
        b = labels[rng.integers(0, 4, 500)].tolist()
        n = 500
        agree = sum(1 for x, y in zip(a, b) if x == y)
        from collections import Counter
        rm, cm = Counter(a), Counter(b)
        s = sum(rm[k] * cm.get(k, 0) for k in rm)
        want = round(float(n * agree - s) / float(n * n - s), 6)
        assert self._run(a, b) == {"n_rows": [n], "agree": [agree], "kappa": [want]}


class TestClassificationReport:
    def test_matches_naive_and_pred_only_labels(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.functions.stats import classification_report

        truth = ["en", "en", "de", "de", "fr", "fr", "fr"]
        pred = ["en", "de", "de", "de", "fr", "und", "fr"]  # 'und' never true
        t = pa.table({"t": pa.array(truth), "p": pa.array(pred)})
        got = classification_report(_ray.data.from_arrow(t).repartition(2), "t", "p").to_pydict()
        assert got["label"] == ["de", "en", "fr", "und"]
        # de: n_true 2, n_pred 3, tp 2 -> p=2/3, r=1, f1=4/5
        i = got["label"].index("de")
        assert (got["n_true"][i], got["n_pred"][i], got["tp"][i]) == (2, 3, 2)
        assert got["precision"][i] == round(2 / 3, 6)
        assert got["recall"][i] == 1.0 and got["f1"][i] == 0.8
        # und: pred-only label gets a row with zero recall/f1 denominator rules
        j = got["label"].index("und")
        assert (got["n_true"][j], got["n_pred"][j], got["tp"][j]) == (0, 1, 0)
        assert got["precision"][j] == 0.0 and got["recall"][j] == 0.0
        assert got["f1"][j] == 0.0


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


class TestNaiveBayes:
    def test_matches_naive_and_learns(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.expected import naive_nb
        from text_to_graph_ray.functions.text import naive_bayes_classify

        rng = np.random.default_rng(51)
        vocabs = {"aa": ["red", "green", "blue", "shared"],
                  "bb": ["cat", "dog", "bird", "shared"],
                  "cc": ["one", "two", "three", "shared"]}
        ids, texts, labels = [], [], []
        for i in range(120):
            lab = ["aa", "bb", "cc"][i % 3]
            toks = list(rng.choice(vocabs[lab], 12)) + list(rng.choice(["shared", "noise"], 3))
            ids.append(i)
            texts.append(" ".join(toks))
            labels.append(lab)
        t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                      "lang": pa.array(labels, type=pa.string()),
                      "text": pa.array(texts, type=pa.string())})
        got = naive_bayes_classify(_ray.data.from_arrow(t).repartition(4)).to_pandas()
        exp = naive_nb(ids, texts, labels)
        assert list(map(tuple, got[["doc_id", "lang", "pred", "correct"]].values)) == exp
        # distinct class vocabularies: the classifier must actually learn
        assert got["correct"].mean() > 0.9

    def test_unseen_tokens_and_empty_doc(self, ray_session):
        import ray as _ray

        from text_to_graph_ray.expected import naive_nb
        from text_to_graph_ray.functions.text import naive_bayes_classify

        ids = list(range(12))
        labels = ["p", "q"] * 6
        texts = ["ppp ppp" if l == "p" else "qqq qqq" for l in labels]
        texts[0] = "zzz yyy"   # test doc with only unseen tokens
        texts[5] = ""          # empty test doc (id 5 % 5 == 0)
        t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                      "lang": pa.array(labels, type=pa.string()),
                      "text": pa.array(texts, type=pa.string())})
        got = naive_bayes_classify(_ray.data.from_arrow(t).repartition(3)).to_pandas()
        exp = naive_nb(ids, texts, labels)
        assert list(map(tuple, got[["doc_id", "lang", "pred", "correct"]].values)) == exp


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
    def test_terciles_are_exact_ntile(self, ray_session):
        import duckdb

        import __ray_entry__ as E

        sf = "/root/testdata/sf0.001"
        got = E._q_docs_lm_terciles(sf).to_pandas()
        con = duckdb.connect()
        exp = con.execute(
            "SELECT doc_id, ntile(3) OVER (ORDER BY nll, doc_id) AS tercile FROM got ORDER BY doc_id"
        ).df()
        assert got["tercile"].tolist() == exp["tercile"].astype("int64").tolist()
        # tile sizes differ by at most 1 and are ordered big-first
        sizes = got.groupby("tercile").size()
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sort_index().is_monotonic_decreasing or sizes.nunique() == 1

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
