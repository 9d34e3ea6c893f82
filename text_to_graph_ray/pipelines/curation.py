"""Corpus-curation composition: the end-to-end pipeline a training-data job
actually runs over a raw document table —

    read(documents)                       pruned columns
      -> quality + language gate          one fused map_batches (vectorized
                                          heuristics from functions/text)
      -> near-dup removal                 minhash pairs -> connected
                                          components -> keep-min survivor
      -> surviving doc ids                sorted, resumable sink-ready

The gate runs the text.py quality and language kernels that the tests check
against their naive mirrors, and near-dup removal is the operator the
dedup_survivors query hash-checks; this module composes them the
way a user would and is itself oracle-checked end-to-end against a naive
single-threaded reimplementation (expected.naive_clean_corpus).
"""

from __future__ import annotations

from text_to_graph_ray.util import read_parquet_clean

import numpy as np
import pyarrow as pa


def quality_lang_gate(batch: pa.Table, min_quality: float = 0.45, langs: tuple = ("en",)) -> pa.Table:
    """Keep documents whose composite quality clears min_quality AND whose
    detected language is in ``langs`` — one text extraction, one tokenization
    shared by both heuristics (the quality_row / detect_lang kernels)."""
    from text_to_graph_ray.functions.text import text_signals_batch

    if batch.num_rows == 0:
        return batch
    sig = text_signals_batch(batch.column("text"), want=("quality", "lang"))
    lang_set = set(langs)
    keep = (sig["quality"] >= min_quality) & np.asarray(
        [lg in lang_set for lg in sig["lang"]], dtype=bool
    )
    return batch.filter(pa.array(keep))


def clean_corpus_survivors(sf_dir: str, min_quality: float = 0.45, threshold: float = 0.5):
    """documents -> gate -> near-dedup -> surviving doc ids (sorted)."""
    from text_to_graph_ray.functions.dedup import near_dup_survivors

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    gated = docs.map_batches(lambda b: quality_lang_gate(b, min_quality), batch_format="pyarrow")
    return near_dup_survivors(gated, threshold=threshold)


def pretraining_gate(batch: pa.Table, min_quality: float = 0.45, langs: tuple = ("en",), max_dup_frac: float = 0.06) -> pa.Table:
    """quality_lang_gate + the Gopher-style repetition cap, fused (one text
    scan per doc for the heuristics, one bigram pass via the SHARED
    text.bigram_rep_batch kernel, which tests check against the scalar
    text.bigram_repetition)."""
    from text_to_graph_ray.functions.text import bigram_rep_batch, text_signals_batch

    if batch.num_rows == 0:
        return batch
    sig = text_signals_batch(batch.column("text"), want=("quality", "lang"))
    lang_set = set(langs)
    gate1 = (sig["quality"] >= min_quality) & np.asarray(
        [lg in lang_set for lg in sig["lang"]], dtype=bool
    )
    # split(" ") tokenization — the hash-checked bigram contract; rows with
    # < 2 tokens have no dup_frac and pass the repetition cap (valid=False)
    valid, _, dup_frac, _ = bigram_rep_batch(batch.column("text"))
    keep = gate1 & ~(valid & (dup_frac > max_dup_frac))
    return batch.filter(pa.array(keep, type=pa.bool_()))


def pretraining_corpus(
    sf_dir: str,
    min_quality: float = 0.45,
    threshold: float = 0.5,
    max_dup_frac: float = 0.06,
    eval_sources: tuple = ("src0", "src1"),
    n: int = 8,
):
    """The full pre-training curation pass a 100 TB job runs, composed from
    operators the driver hash-checks in isolation:

        read(documents)                          pruned columns
          -> drop the eval split                 (it is the benchmark)
          -> quality + language + repetition gate  one fused map_batches
          -> near-dup removal                    minhash -> CC -> keep-min
          -> benchmark decontamination           drop docs sharing any
                                                 n-gram with the eval split
          -> surviving doc ids                   sorted, sink-ready

    Oracle: expected_clean2.parquet, a naive single-threaded reimplementation
    in expected.py."""
    from text_to_graph_ray.functions.decontam import ngram_contamination
    from text_to_graph_ray.functions.dedup import near_dup_survivors
    from text_to_graph_ray.util import sort_coalesced

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"])

    eval_set = set(eval_sources)

    train_schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])

    def train_only(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return train_schema.empty_table()  # same schema as the projected non-empty path
        keep = [s not in eval_set for s in b.column("source").to_pylist()]
        return b.filter(pa.array(keep, type=pa.bool_())).select(["doc_id", "text"])

    gated = docs.map_batches(train_only, batch_format="pyarrow").map_batches(
        lambda b: pretraining_gate(b, min_quality, ("en",), max_dup_frac), batch_format="pyarrow"
    )
    # The dedup branch (minhash pairs -> CC) and the decontamination branch
    # (eval-gram scan) are independent subplans that each end in an eager
    # materialize; run them CONCURRENTLY (Ray Data executes per-thread
    # streams against the shared cluster with backpressure) instead of
    # serializing two cluster-wide barriers. ThreadPoolExecutor (not a raw
    # daemon thread): Future.result() re-raises the branch's exception on
    # the caller thread and the executor propagates execution context to
    # its worker under stricter per-thread Ray contexts.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(
            lambda: ngram_contamination(docs, eval_sources=eval_sources, n=n).materialize()
        )
        survivors = near_dup_survivors(gated, threshold=threshold)  # (doc_id,)
        bad = fut.result()

    from text_to_graph_ray.functions.joins import filter_by_keys

    # contaminated ids are vocabulary-sized (tens of rows vs the corpus):
    # guarded broadcast anti-filter (keys projected inside the helper),
    # distributed left_anti past the guard
    clean = filter_by_keys(survivors, bad, "doc_id", mode="anti")
    return sort_coalesced(clean, "doc_id")


def curation_full(sf_dir: str):
    """The END-TO-END curation flagship, composed entirely from
    individually hash-checked operators:

        pretraining_corpus               eval removal -> quality/lang/
                                         repetition gate -> near-dedup ->
                                         decontamination (survivor ids)
          -> guarded semi filter         re-attach surviving docs' text
          -> segment_dedup               corpus-level exact segment dedup
                                         (first occurrence wins)
          -> budget_select               quality-ranked token-budget fill
                                         over the DEDUPED text (total//3)

    Oracle: expected_clean3.parquet — the naive single-threaded composition
    (expected.naive_curation_full). Returns (doc_id, quality, n_tokens,
    cum_tokens) in rank order."""
    from text_to_graph_ray.functions.joins import filter_by_keys
    from text_to_graph_ray.functions.sample import budget_select
    from text_to_graph_ray.functions.text import segment_dedup

    surv = pretraining_corpus(sf_dir)
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    kept = filter_by_keys(docs, surv, key="doc_id", mode="semi")
    deduped = segment_dedup(kept)
    return budget_select(deduped, text_col="text_dedup")
