"""Round-4 part-4 tests: generic full-outer join, ordered string_agg, grouped
entropy / z-score / Spearman, co-occurrence pairs, md5 hash split."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


class TestKeyedFullOuter:
    def _sides(self, rd):
        left = rd.from_arrow(
            pa.table({"k": pa.array(["a", "b", "c"]), "lv": pa.array([1, 2, 3], type=pa.int64())})
        )
        right = rd.from_arrow(
            pa.table({"k": pa.array(["b", "c", "d"]), "rv": pa.array([20, 30, 40], type=pa.int64())})
        )
        return left, right

    def test_exclusive_rows_surface_with_nulls(self, ray_session):
        import ray.data as rd

        from text_to_graph_ray.functions.joins import keyed_full_outer

        left, right = self._sides(rd)
        out = keyed_full_outer(left, right, "k", "lv", "rv").to_pandas().set_index("k").sort_index()
        assert list(out.index) == ["a", "b", "c", "d"]
        assert out.loc["a", "lv"] == 1.0 and np.isnan(out.loc["a", "rv"])
        assert out.loc["b", "lv"] == 2.0 and out.loc["b", "rv"] == 20.0
        assert np.isnan(out.loc["d", "lv"]) and out.loc["d", "rv"] == 40.0

    def test_nonunique_keys_raise(self, ray_session):
        import ray.data as rd

        from text_to_graph_ray.functions.joins import keyed_full_outer

        left = rd.from_arrow(pa.table({"k": pa.array(["a", "a"]), "lv": pa.array([1, 2], type=pa.int64())}))
        right = rd.from_arrow(pa.table({"k": pa.array(["a"]), "rv": pa.array([9], type=pa.int64())}))
        with pytest.raises(Exception):  # surfaces as RayTaskError(ValueError)
            keyed_full_outer(left, right, "k", "lv", "rv").materialize()


def test_ordered_string_agg_order_and_ties(ray_session):
    import ray.data as rd

    from text_to_graph_ray.functions.agg import ordered_string_agg

    t = pa.table(
        {
            "k": pa.array(["u", "u", "u", "v"]),
            "o1": pa.array([2, 1, 1, 5], type=pa.int64()),
            "o2": pa.array([0, 9, 1, 0], type=pa.int64()),
            "s": pa.array(["c", "b", "a", "z"]),
        }
    )
    out = {r["k"]: r["trace"] for r in ordered_string_agg(
        rd.from_arrow(t).repartition(3), "k", "s", ["o1", "o2"], out_name="trace"
    ).take_all()}
    assert out == {"u": "a,b,c", "v": "z"}


def test_grouped_entropy_known_values(ray_session):
    import math

    import ray.data as rd

    from text_to_graph_ray.functions.stats import grouped_entropy

    keys = ["uni"] * 40 + ["one"] * 7 + ["two"] * 30
    cats = (["a", "b", "c", "d"] * 10) + (["x"] * 7) + (["p"] * 10 + ["q"] * 20)
    ds = rd.from_arrow(pa.table({"g": pa.array(keys), "c": pa.array(cats)})).repartition(5)
    out = {r["g"]: (r["n"], r["entropy"]) for r in grouped_entropy(ds, "g", "c").take_all()}
    assert out["uni"] == (40, round(math.log(4), 6))  # uniform over 4 cats
    assert out["one"] == (7, 0.0)  # single category
    want_two = round(math.log(30) - (10 * math.log(10) + 20 * math.log(20)) / 30, 6)
    assert out["two"] == (30, want_two)


def test_hash_split_matches_hashlib_and_fraction(ray_session):
    import hashlib

    import ray.data as rd

    from text_to_graph_ray.functions.sample import hash_split

    ids = list(range(5000))
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids, type=pa.int64())})).repartition(4)
    out = {r["doc_id"]: r["split"] for r in hash_split(ds, "doc_id", thresh_hex="1999").take_all()}
    n_test = 0
    for i in ids:
        want = "test" if hashlib.md5(str(i).encode()).hexdigest()[:4] < "1999" else "train"
        assert out[i] == want
        n_test += want == "test"
    assert abs(n_test / 5000 - 0x1999 / 0x10000) < 0.02


class TestCooccurrencePairs:
    def test_counts_threshold_and_dedup(self, ray_session):
        import ray.data as rd

        from text_to_graph_ray.functions.agg import cooccurrence_pairs

        # groups: g1={1,2,3}, g2={1,2}, g3={1,2} (with a duplicate mention),
        # g4={3} (singleton: no pairs)
        t = pa.table(
            {
                "g": pa.array(["g1", "g1", "g1", "g2", "g2", "g3", "g3", "g3", "g4"]),
                "item": pa.array([1, 2, 3, 1, 2, 1, 2, 2, 3], type=pa.int64()),
            }
        )
        ds = rd.from_arrow(t).repartition(3)
        out = {(r["a"], r["b"]): r["n"] for r in cooccurrence_pairs(ds, "g", "item", min_count=2).take_all()}
        assert out == {(1, 2): 3}  # (1,3)/(2,3) co-occur once -> filtered
        out_all = {(r["a"], r["b"]): r["n"] for r in cooccurrence_pairs(ds, "g", "item", min_count=1).take_all()}
        assert out_all == {(1, 2): 3, (1, 3): 1, (2, 3): 1}

    def test_hot_group_fails_loudly(self, ray_session):
        import ray.data as rd

        from text_to_graph_ray.functions.agg import cooccurrence_pairs

        t = pa.table({"g": pa.array(["hot"] * 50), "item": pa.array(range(50), type=pa.int64())})
        with pytest.raises(Exception, match="max_items_per_group"):
            cooccurrence_pairs(rd.from_arrow(t), "g", "item", max_items_per_group=10).materialize()


def test_grouped_quantiles_cont_interpolation_and_nulls(ray_session):
    import ray.data as rd

    from text_to_graph_ray.functions.quantiles import grouped_quantiles_cont

    t = pa.table(
        {
            "g": pa.array(["a"] * 5 + ["b"] * 2),
            "v": pa.array([10.0, 20.0, 30.0, 40.0, None, 1.0, 2.0], type=pa.float64()),
        }
    )
    out = {(r["g"], r["q"]): r["value"] for r in grouped_quantiles_cont(
        rd.from_arrow(t).repartition(3), "g", "v", (0.25, 0.5)
    ).take_all()}
    # group a: values [10,20,30,40] (null dropped); q=.25 -> pos .75 -> 17.5
    assert out[("a", 0.25)] == 17.5
    assert out[("a", 0.5)] == 25.0
    assert out[("b", 0.5)] == 1.5


class TestWeightedTopk:
    def test_deterministic_and_matches_reference(self, ray_session):
        import hashlib

        import ray.data as rd

        from text_to_graph_ray.functions.sample import weighted_topk

        n = 2000
        wts = [(i % 4) + 1 for i in range(n)]
        ds = rd.from_arrow(pa.table({"id": pa.array(range(n), type=pa.int64()),
                                     "w": pa.array(wts, type=pa.int64())})).repartition(4)
        got = [(r["id"], r["w"], r["tkey"]) for r in weighted_topk(ds, "id", "w", k=30).take_all()]
        ref = []
        for i in range(n):
            tk = min(int(hashlib.md5(f"{i}:{j}".encode()).hexdigest()[:8], 16) for j in range(wts[i]))
            ref.append((tk, i))
        ref.sort()
        want = [(i, wts[i], tk) for tk, i in ref[:30]]
        assert got == want
        # heavier rows should be over-represented in the winners
        mean_w = sum(w for _, w, _ in got) / len(got)
        assert mean_w > 2.5  # population mean is 2.5; winners skew heavier

    def test_weight_guard_raises(self, ray_session):
        import ray.data as rd

        from text_to_graph_ray.functions.sample import weighted_topk

        ds = rd.from_arrow(pa.table({"id": pa.array([1], type=pa.int64()),
                                     "w": pa.array([0], type=pa.int64())}))
        with pytest.raises(Exception, match="outside"):
            weighted_topk(ds, "id", "w", k=5).materialize()


def test_format_ingest_matches_parquet_path(ray_session, tmp_path):
    """JSONL and CSV readers produce the identical catalog aggregate as the
    parquet path over the same documents table."""
    import duckdb

    from text_to_graph_ray.sources.formats import read_csv, read_jsonl, source_stats_from
    from text_to_graph_ray.util import read_parquet_clean

    src = "/root/testdata/sf0.001/documents.parquet"
    con = duckdb.connect()
    jl = tmp_path / "docs.jsonl"
    cs = tmp_path / "docs.csv"
    con.sql(f"COPY (SELECT doc_id, source, lang, n_chars FROM read_parquet('{src}') ORDER BY doc_id) TO '{jl}' (FORMAT JSON)")
    con.sql(f"COPY (SELECT doc_id, source, lang, n_chars FROM read_parquet('{src}') ORDER BY doc_id) TO '{cs}' (FORMAT CSV, HEADER)")
    want = source_stats_from(read_parquet_clean(src, columns=["source", "lang", "n_chars"])).take_all()
    got_j = source_stats_from(read_jsonl(str(jl), columns=["source", "lang", "n_chars"])).take_all()
    got_c = source_stats_from(read_csv(str(cs), columns=["source", "lang", "n_chars"])).take_all()
    key = lambda r: (r["source"], r["lang"], r["n_docs"], r["chars"])  # noqa: E731
    assert sorted(map(key, got_j)) == sorted(map(key, want))
    assert sorted(map(key, got_c)) == sorted(map(key, want))


def test_sliding_chunks_boundaries():
    from text_to_graph_ray.functions.text import sliding_chunks

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(["", "x" * 256, "x" * 257, "x" * (256 + 192 * 2)]),
        }
    )
    out = sliding_chunks(t, size=256, overlap=64).to_pandas()
    by_doc = {d: g for d, g in out.groupby("doc_id")}
    # empty doc and exactly-one-window doc both emit ONE chunk
    assert list(by_doc[1][["chunk_idx", "off", "chunk_len", "n_chunks"]].itertuples(index=False, name=None)) == [(0, 0, 0, 1)]
    assert list(by_doc[2][["chunk_idx", "chunk_len", "n_chunks"]].itertuples(index=False, name=None)) == [(0, 256, 1)]
    # one char past a window starts a second chunk
    assert list(by_doc[3][["chunk_idx", "off", "chunk_len"]].itertuples(index=False, name=None)) == [(0, 0, 256), (1, 192, 65)]
    # full extra steps: exact cover, last chunk full-size
    g4 = list(by_doc[4][["chunk_idx", "off", "chunk_len"]].itertuples(index=False, name=None))
    assert g4 == [(0, 0, 256), (1, 192, 256), (2, 384, 256)]


def test_normalize_text_whitespace_semantics():
    import hashlib

    from text_to_graph_ray.functions.text import normalize_text

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(["  Hello\t\tWORLD \n", "a\x0b\x0cb", None]),
        }
    )
    out = normalize_text(t).to_pandas().set_index("doc_id")
    assert out.loc[1, "norm_len"] == len("hello world")
    assert out.loc[1, "norm_sha"] == hashlib.sha256(b"hello world").hexdigest()
    assert out.loc[2, "norm_len"] == 3  # \v and \f collapse to one space
    assert out.loc[3, "norm_len"] == 0


def test_grouped_zscore_formula_and_degenerate_groups(ray_session):
    import math

    import ray.data as rd

    from text_to_graph_ray.functions.stats import grouped_zscore

    t = pa.table(
        {
            "id": pa.array(range(7), type=pa.int64()),
            "g": pa.array(["a", "a", "a", "const", "const", "solo", "a"]),
            "x": pa.array([10.0, 20.0, 30.0, 5.0, 5.0, 9.0, 40.0], type=pa.float64()),
        }
    )
    out = {r["id"]: r["z"] for r in grouped_zscore(
        rd.from_arrow(t).repartition(3), "g", "x", "id"
    ).take_all()}
    xs = [10, 20, 30, 40]
    n, s1, s2 = 4, sum(xs), sum(v * v for v in xs)
    mean = s1 / n
    sd = math.sqrt((n * s2 - s1 * s1) / (n * (n - 1)))
    assert out[0] == (10.0 - mean) / sd and out[6] == (40.0 - mean) / sd
    assert out[3] is None and out[4] is None  # zero variance
    assert out[5] is None  # n < 2


def test_grouped_spearman_matches_pandas_and_handles_ties(ray_session):
    import ray.data as rd

    from text_to_graph_ray.functions.stats import grouped_spearman_int

    rng = np.random.default_rng(13)
    n = 3000
    x = rng.integers(0, 20, n)  # heavy ties
    y = (x * 3 + rng.integers(0, 15, n)).astype(float)  # positively rank-correlated
    t = pa.table(
        {
            "g": pa.array(["a"] * n + ["const"] * 5),
            "x": pa.array(np.r_[x, [7] * 5].astype(float), type=pa.float64()),
            "y": pa.array(np.r_[y, [1.0, 2.0, 3.0, 4.0, 5.0]], type=pa.float64()),
        }
    )
    out = {r["g"]: r["spearman"] for r in grouped_spearman_int(
        rd.from_arrow(t).repartition(4), "g", "x", "y"
    ).take_all()}
    rx = pd.Series(x).rank(method="average")
    ry = pd.Series(np.rint(y)).rank(method="average")
    want = np.corrcoef(rx, ry)[0, 1]
    assert out["a"] == pytest.approx(want, abs=1e-12)
    assert 0.5 < out["a"] < 1.0
    assert out["const"] is None  # zero rank variance in x


def test_parquet_profile_aggregates_row_groups(tmp_path):
    import pyarrow.parquet as pq

    from text_to_graph_ray.sources.formats import parquet_profile

    t = pa.table({"a": pa.array(range(1000), type=pa.int64()), "b": pa.array(["x"] * 1000)})
    p = tmp_path / "t.parquet"
    pq.write_table(t, p, row_group_size=100)  # 10 row groups
    out = parquet_profile(str(p)).to_pandas().set_index("column")
    assert list(out.index) == ["a", "b"]
    assert (out["n_chunks"] == 10).all()
    assert (out["n_values"] == 1000).all()
    md = pq.ParquetFile(p).metadata
    want_comp = sum(md.row_group(i).column(0).total_compressed_size for i in range(10))
    assert out.loc["a", "compressed_bytes"] == want_comp
