"""Round-4 part-4 tests: md5 hash split, grouped quantiles, weighted top-k,
format ingest, parquet profile."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


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
