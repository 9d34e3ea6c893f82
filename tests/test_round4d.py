"""Round-4 part 5 operator tests: segment-level corpus dedup, upsert merge,
budget select, incremental merge."""

import pandas as pd
import pyarrow as pa
import ray


def _docs_ds(rows):
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
                "text": pa.array([r[1] for r in rows], type=pa.string()),
            }
        )
    )


class TestSegmentDedup:
    def test_first_occurrence_wins_and_reassembly_order(self, ray_session):
        from text_to_graph_ray.functions.text import segment_dedup

        # seg_tokens=2: doc0 = [a b][c d]; doc1 repeats [a b] then adds [x y];
        # doc2 is entirely doc0's segments -> drops out of the result
        rows = [
            (0, "a b c d"),
            (1, "a b x y"),
            (2, "c d a b"),
        ]
        out = segment_dedup(_docs_ds(rows), seg_tokens=2).to_pandas()
        assert list(out.doc_id) == [0, 1]
        assert out.loc[out.doc_id == 0, "text_dedup"].item() == "a b c d"
        # doc1 loses its first segment but keeps order of survivors
        assert out.loc[out.doc_id == 1, "text_dedup"].item() == "x y"
        assert out.loc[out.doc_id == 1, "n_kept"].item() == 1
        assert out.loc[out.doc_id == 1, "n_segs"].item() == 2

    def test_tail_segment_and_duplicate_within_doc(self, ray_session):
        from text_to_graph_ray.functions.text import segment_dedup

        # 5 tokens at seg_tokens=2 -> segments [a b][a b][c]; the second
        # [a b] inside the SAME doc is removed too (global exact dedup)
        out = segment_dedup(_docs_ds([(7, "a b a b c")]), seg_tokens=2).to_pandas()
        assert out.text_dedup.item() == "a b c"
        assert out.n_kept.item() == 2 and out.n_segs.item() == 3

    def test_partition_invariance(self, ray_session):
        from text_to_graph_ray.functions.text import segment_dedup

        rows = [(i, " ".join(f"w{(i * 7 + j) % 23}" for j in range(40))) for i in range(60)]
        base = segment_dedup(_docs_ds(rows), seg_tokens=4).to_pandas()
        rep = segment_dedup(_docs_ds(rows).repartition(13), seg_tokens=4).to_pandas()
        pd.testing.assert_frame_equal(base.reset_index(drop=True), rep.reset_index(drop=True))

    def test_empty_text_doc(self, ray_session):
        from text_to_graph_ray.functions.text import segment_dedup

        # '' splits to [''] -> one empty segment; first doc keeps it, the
        # second empty doc loses its only segment and drops out
        out = segment_dedup(_docs_ds([(1, ""), (2, "")]), seg_tokens=16).to_pandas()
        assert list(out.doc_id) == [1]
        assert out.text_dedup.item() == ""

    def test_broadcast_and_exchange_plans_identical(self, ray_session):
        # removed_broadcast_max=-1 forces the side-tagged doc-bucketed
        # exchange (the removed set can legitimately be empty, so the forcing
        # value is negative); both reassembly plans must be byte-identical
        from text_to_graph_ray.functions.text import segment_dedup

        rows = [(i, " ".join(f"w{(i * 5 + j) % 31}" for j in range(37))) for i in range(80)]
        rows.append((80, ""))  # all-dup empty doc exercises the drop path
        rows.append((81, ""))
        ds = _docs_ds(rows).repartition(9)
        bcast = segment_dedup(ds, seg_tokens=4).to_pandas()
        exch = segment_dedup(ds, seg_tokens=4, removed_broadcast_max=-1).to_pandas()
        pd.testing.assert_frame_equal(bcast.reset_index(drop=True), exch.reset_index(drop=True))
        assert (bcast.n_kept <= bcast.n_segs).all() and len(bcast) > 0


class TestMergeUpsert:
    def _mk(self, rows):
        import ray

        return ray.data.from_arrow(pa.table({
            "k": pa.array([r[0] for r in rows], type=pa.int64()),
            "v": pa.array([r[1] for r in rows], type=pa.int64()),
            "ver": pa.array([r[2] for r in rows], type=pa.int64()),
            "deleted": pa.array([r[3] for r in rows], type=pa.bool_()),
        }))

    def test_upsert_latest_and_tombstone(self, ray_session):
        from text_to_graph_ray.functions.agg import merge_upsert

        base = self._mk([(1, 10, 0, False), (2, 20, 0, False), (3, 30, 0, False), (4, 40, 0, False)])
        # k=1 two change versions (v2 wins), k=2 tombstone, k=5 insert-only
        ch = self._mk([(1, 11, 1, False), (1, 12, 2, False), (2, 0, 1, True), (5, 50, 1, False)])
        out = (
            merge_upsert(base, ch, key="k", order_by=["ver"], deleted_col="deleted")
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        assert list(out.k) == [1, 3, 4, 5]
        assert list(out.v) == [12, 30, 40, 50]

    def test_change_beats_base_even_with_lower_ver(self, ray_session):
        from text_to_graph_ray.functions.agg import merge_upsert

        # side dominates ver: a ver-0 change still overrides a ver-9 base row
        base = self._mk([(1, 10, 9, False)])
        ch = self._mk([(1, 99, 0, False)])
        out = merge_upsert(base, ch, key="k", order_by=["ver"], deleted_col="deleted").to_pandas()
        assert list(out.v) == [99]

    def test_no_changes_is_identity(self, ray_session):
        from text_to_graph_ray.functions.agg import merge_upsert

        base = self._mk([(i, i * 10, 0, False) for i in range(20)])
        empty = self._mk([])
        out = (
            merge_upsert(base, empty, key="k", order_by=["ver"], deleted_col="deleted")
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(out, base.to_pandas().sort_values("k").reset_index(drop=True))


class TestBudgetSelect:
    def test_prefix_semantics_and_budget(self, ray_session):
        import ray

        from text_to_graph_ray.functions.sample import budget_select

        # qualities rank doc order; explicit budget: strict window prefix —
        # once cum passes budget NOTHING later is taken, even if it would fit
        rows = [
            (1, "the and of to in is that it with for"),        # high quality (stopwords)
            (2, "zz qq ww ee rr tt yy uu ii oo"),               # lower
            (3, "aa bb"),                                        # tiny, lowest-ish
        ]
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "text": pa.array([r[1] for r in rows]),
        }))
        out = budget_select(ds, budget_tokens=12).to_pandas()
        # doc1 (10 toks) fits; doc2 pushes cum to 20 > 12 -> excluded; doc3
        # (2 toks) would fit a knapsack but NOT the window prefix
        assert list(out.doc_id) == [1]
        assert list(out.cum_tokens) == [10]

    def test_derived_budget_and_partition_invariance(self, ray_session):
        import ray

        from text_to_graph_ray.functions.sample import budget_select

        rows = [(i, " ".join(["the word"] * (5 + i % 7))) for i in range(80)]
        t = pa.table({"doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
                      "text": pa.array([r[1] for r in rows])})
        a = budget_select(ray.data.from_arrow(t)).to_pandas()
        b = budget_select(ray.data.from_arrow(t).repartition(11)).to_pandas()
        pd.testing.assert_frame_equal(a.reset_index(drop=True), b.reset_index(drop=True))
        total = sum(len(r[1].split()) for r in rows)
        assert a.cum_tokens.max() <= total // 3 < a.cum_tokens.max() + a.n_tokens.min() + total


class TestMergeIncrement:
    def _mk_files(self, rows):
        import ray

        return ray.data.from_arrow(pa.table({
            "repo": pa.array([r[0] for r in rows]),
            "path": pa.array([r[1] for r in rows]),
            "lang": pa.array(["python"] * len(rows)),
            "content": pa.array([r[2] for r in rows]),
        }))

    def test_three_way_increment_equals_full(self, ray_session):
        from text_to_graph_ray.config import PipelineConfig
        from text_to_graph_ray.pipelines import kg

        rows = [
            ("r1", f"m{i}.py", f"import os\n\ndef f{i}():\n    g{(i + 1) % 9}()\n")
            for i in range(9)
        ]
        full_cfg = PipelineConfig(link_aliases=True)
        nolink = PipelineConfig(link_aliases=False)

        def build(ds, cfg):
            return kg.merged_graph(kg.keyed_records(kg.extract_chain(ds, cfg), cfg), cfg)

        full = kg.nodes_from_merged(build(self._mk_files(rows), full_cfg)).to_pandas()
        parts = [build(self._mk_files(rows[i::3]), nolink) for i in range(3)]
        inc = kg.nodes_from_merged(kg.merge_increment(parts, full_cfg)).to_pandas()
        pd.testing.assert_frame_equal(full.reset_index(drop=True), inc.reset_index(drop=True))

    def test_label_casing_rule_crosses_increments(self, ray_session):
        # the canonical-label min-own rule must pick the SAME winner whether
        # the label variants arrive in one increment or split across two
        from text_to_graph_ray.config import PipelineConfig
        from text_to_graph_ray.pipelines import kg

        a = [("r1", "a.py", "def Alpha():\n    pass\n")]
        b = [("r2", "b.py", "def alpha():\n    pass\n")]
        nolink = PipelineConfig(link_aliases=False)

        def build(rows):
            ds = self._mk_files(rows)
            return kg.merged_graph(kg.keyed_records(kg.extract_chain(ds, nolink), nolink), nolink)

        full = kg.nodes_from_merged(build(a + b), with_ids=False).to_pandas()
        inc = kg.nodes_from_merged(
            kg.merge_increment([build(a), build(b)], nolink), with_ids=False
        ).to_pandas()
        pd.testing.assert_frame_equal(full.reset_index(drop=True), inc.reset_index(drop=True))
        row = inc[inc.entity_key == "alpha"]
        assert len(row) == 1
