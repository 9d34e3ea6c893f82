"""Training-data ops: dedup (exact/minhash/simhash), text analysis and edge
relabeling — correctness on planted fixtures."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    base = "the quick brown fox jumps over the lazy dog and runs far away today"
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base},                                  # exact dup of 0
        {"doc_id": 2, "text": base.replace("lazy", "sleepy")},        # near dup of 0
        {"doc_id": 3, "text": "completely different content about databases and distributed systems engines"},
        {"doc_id": 4, "text": "another unrelated text mentioning graphs pipelines and shuffles everywhere"},
        {"doc_id": 5, "text": ""},
    ]
    return rd.from_items(rows)


def test_exact_dedup_keep_min(docs_ds):
    from text_to_graph_ray.functions.dedup import exact_dedup_keep_min

    out = exact_dedup_keep_min(docs_ds).to_pandas()
    assert list(out["doc_id"]) == [0, 2, 3, 4, 5]  # doc 1 collapsed into 0


def test_minhash_finds_planted_near_dup(docs_ds):
    from text_to_graph_ray.functions.dedup import minhash_near_dup_pairs

    # 32 bands x 2 rows: high candidate recall for short planted docs
    pairs = minhash_near_dup_pairs(docs_ds, threshold=0.5, bands=32).to_pandas()
    got = set(zip(pairs["a"], pairs["b"]))
    assert (0, 1) in got  # exact dup: est jaccard 1.0
    assert (0, 2) in got or (1, 2) in got  # near dup found
    assert not any({a, b} & {3, 4} and {a, b} & {0, 1, 2} for a, b in got)


def test_minhash_estimate_close_to_exact(docs_ds):
    from text_to_graph_ray.functions.dedup import exact_jaccard, minhash_near_dup_pairs

    pairs = minhash_near_dup_pairs(docs_ds, threshold=0.3, bands=32).to_pandas()
    row = pairs[(pairs["a"] == 0) & (pairs["b"] == 2)]
    if len(row):
        base = "the quick brown fox jumps over the lazy dog and runs far away today"
        exact = exact_jaccard(base, base.replace("lazy", "sleepy"))
        assert abs(row["est_jaccard"].iloc[0] - exact) < 0.35


def test_simhash_near_dup(docs_ds):
    from text_to_graph_ray.functions.dedup import simhash_near_dup_pairs

    pairs = simhash_near_dup_pairs(docs_ds, max_hamming=10).to_pandas()
    got = set(zip(pairs["a"], pairs["b"]))
    assert (0, 1) in got  # identical -> hamming 0
    h01 = pairs[(pairs["a"] == 0) & (pairs["b"] == 1)]["hamming"].iloc[0]
    assert h01 == 0


def test_simhash64_deterministic():
    from text_to_graph_ray.functions.dedup import simhash64

    assert simhash64("hello world foo") == simhash64("hello world foo")
    assert simhash64("") == 0


def test_lang_id_heuristic():
    from text_to_graph_ray.functions.text import detect_lang

    assert detect_lang("the cat and the dog went to the park") == "en"
    assert detect_lang("der Hund und die Katze sind nicht da") == "de"
    assert detect_lang("le chat est dans la maison pour que") == "fr"
    assert detect_lang("el perro y la casa es una en por") == "es"
    assert detect_lang("这是一个中文句子") == "zh"
    assert detect_lang("") == "und"
    assert detect_lang("zzz qqq xxx") == "und"


def test_quality_score_monotonic_in_substance():
    from text_to_graph_ray.functions.text import quality_score

    b = pa.table({"doc_id": [0, 1], "text": ["the and of to in is that it with for " * 8, "x"]})
    out = quality_score(b).to_pylist()
    assert out[0]["quality"] > out[1]["quality"]


def test_relabel_edges(ray_session):
    import ray.data as rd

    from text_to_graph_ray.functions.relabel import relabel_edges

    ds = rd.from_items([{"src_key": "a", "pred": "calls", "dst_key": "b"}, {"src_key": "a", "pred": "defines", "dst_key": "c"}])
    out = relabel_edges(ds, {"calls": "invokes"}).to_pandas()
    assert set(out["pred"]) == {"invokes", "defines"}
    assert relabel_edges(ds, {}) is ds
