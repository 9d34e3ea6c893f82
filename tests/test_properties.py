"""Property-based tests (hypothesis) for the chunker and canonicalization —
the invariants that must hold for ANY input, not just fixtures."""

import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from text_to_graph_ray.config import PipelineConfig
from text_to_graph_ray.stages.canonicalize import merge_bucket
from text_to_graph_ray.stages.chunker import chunk_one_file, count_tokens

CFG = PipelineConfig(chunk_size=50)

words = st.text(alphabet="abcdefg.!?", min_size=1, max_size=8)
texts = st.lists(words, min_size=0, max_size=400).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(texts)
def test_chunker_conserves_tokens_text_mode(text):
    chunks = chunk_one_file(text, "text", CFG)
    assert len(chunks) >= 1
    total = sum(count_tokens(c["text"]) for c in chunks)
    # the reference split (paragraph -> sentence -> line) never drops tokens
    assert total == count_tokens(text)


@settings(max_examples=200, deadline=None)
@given(texts)
def test_chunker_indices_dense_and_bounds(text):
    chunks = chunk_one_file(text, "text", CFG)
    assert [c["chunk_index"] for c in chunks] == list(range(len(chunks)))
    # every non-final chunk that didn't absorb an oversized unit respects max;
    # the min bound holds for the final chunk whenever there are >= 2 chunks
    if len(chunks) > 1:
        assert chunks[-1]["chunk_size"] >= CFG.min_tokens or chunks[-1]["chunk_size"] == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet="ab\n ", min_size=0, max_size=40), min_size=0, max_size=10).map("\n\n".join))
def test_chunker_python_mode_conserves_tokens(content):
    chunks = chunk_one_file(content, "python", CFG)
    assert sum(count_tokens(c["text"]) for c in chunks) == count_tokens(content)


labels = st.text(alphabet="abAB", min_size=1, max_size=6)
packed = st.lists(st.text(alphabet="xyz", min_size=1, max_size=4), min_size=1, max_size=3).map(lambda l: "|".join(sorted(set(l))))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(labels, packed, st.sampled_from(["r1", "r2", "r3"])),
        min_size=1,
        max_size=30,
    )
)
def test_merge_bucket_packed_idempotent(rows):
    """merge(merge(x)) == merge(x): canonicalization idempotence
    (graph_utils_test.py test_merge_identical_graphs semantics, SURVEY §5c)."""
    df = pd.DataFrame(
        {
            "kind": ["n"] * len(rows),
            "k1": [r[0].lower() for r in rows],
            "k2": [r[0] for r in rows],
            "k3": [r[1] for r in rows],
            "repos_packed": [r[2] for r in rows],
        }
    )
    once = merge_bucket(df).to_pandas()
    twice = merge_bucket(once).to_pandas()
    assert once.equals(twice)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(labels, labels, st.sampled_from(["r1", "r2"])), min_size=1, max_size=30))
def test_merge_bucket_packed_edge_idempotent(rows):
    df = pd.DataFrame(
        {
            "kind": ["e"] * len(rows),
            "k1": [a.lower() for a, _, _ in rows],
            "k2": ["calls"] * len(rows),
            "k3": [b.lower() for _, b, _ in rows],
            "repos_packed": [r for _, _, r in rows],
        }
    )
    once = merge_bucket(df).to_pandas()
    twice = merge_bucket(once).to_pandas()
    assert once.equals(twice)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "dd", ""]), min_size=0, max_size=12).map(" ".join),
        min_size=0,
        max_size=6,
    )
)
def test_shingle_rows_distinct_ngram_spec(texts):
    """decontam._shingle_rows emits exactly the DISTINCT space-joined n-token
    windows per doc, once each — the tokenization contract the SQL oracle's
    list-slice n-grams rely on."""
    import numpy as np

    from text_to_graph_ray.functions.decontam import _shingle_rows

    n = 3
    ids = np.arange(len(texts), dtype="int64")
    out_ids, out_grams = _shingle_rows(texts, ids, n)
    got: dict = {}
    for i, g in zip(out_ids, out_grams):
        got.setdefault(i, []).append(g)
    for i, t in enumerate(texts):
        toks = t.split(" ")
        want = {" ".join(toks[j : j + n]) for j in range(len(toks) - n + 1)} if len(toks) >= n else set()
        have = got.get(i, [])
        assert set(have) == want
        assert len(have) == len(want)  # once each — no duplicates


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(["a", "b", "c", ""]), min_size=0, max_size=25).map(" ".join)
)
def test_bigram_repetition_spec(text):
    """The scalar bigram-repetition contract (the reference the curation
    gate's batch kernel is checked against) matches a from-scratch spec:
    totals, distinct fraction and top share over consecutive token pairs."""
    from collections import Counter

    from text_to_graph_ray.functions.text import bigram_repetition

    total, dup_frac, top_frac = bigram_repetition(text)
    toks = text.split(" ")
    if len(toks) < 2:
        assert total is None and dup_frac is None and top_frac is None
        return
    pairs = list(zip(toks, toks[1:]))
    c = Counter(pairs)
    assert total == len(pairs)
    assert dup_frac == 1 - len(c) / len(pairs)
    assert top_frac == max(c.values()) / len(pairs)
    assert 0.0 <= dup_frac < 1.0 and 0.0 < top_frac <= 1.0
