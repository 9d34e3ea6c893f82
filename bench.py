"""Benchmark harness.

Plain run: executes the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) under ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or 32) and prints ONE JSON line. The headline is
the median wall time of HEADLINE_SAMPLES runs of the checkpointed job path,
``kg.run(input, <fresh temp dir>, resume=False)`` — read, extract, link,
canonicalize, the nodes/edges sink and the manifests — and
``nodes``/``triples`` are its counters. ``host`` holds the facts a speed
claim needs beside it (CPU count, load average at start, Ray version):
  {"metric": ..., "value": <median sec>, "unit": "sec", "samples": [sec, ...],
   "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
   "host": {"cpu_count": n, "loadavg": [1m, 5m, 15m], "ray": "x.y.z"},
   "triples": n, "triples_per_sec": r}

--scaling: runs the headline KG pipeline (each child reports its median of
HEADLINE_SAMPLES) in FRESH processes at num_cpus=8 and num_cpus=32 on the
same (pre-warmed) input and reports both wall times + scaling efficiency —
the in-sandbox stand-in for the N vs 4N cluster-size criterion (results
recorded in BASELINE.md).
"""

from __future__ import annotations

from text_to_graph_ray.util import read_parquet_clean

import json
import os
import statistics
import sys
import tempfile
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# one sample read 3.13 s and 4.11 s minutes apart on identical code
HEADLINE_SAMPLES = 3


def _bench_queries(sf_dir: str) -> tuple[float, dict, dict]:
    """Returns (headline_sec, per_query_sec, extras)."""
    from text_to_graph_ray.pipelines import kg
    from text_to_graph_ray.synth import ensure_synth

    kg_input = os.environ.get("GRAFT_KG_INPUT") or f"{ensure_synth(sf_dir)}/repo_files.parquet"
    times: dict[str, float] = {}
    extras: dict = {}

    # warm-up (untimed): page-cache the input and spin up ray workers /
    # imports / compiled regexes with a tiny end-to-end pass, so the timed
    # number measures steady-state throughput rather than cold start
    read_parquet_clean(kg_input, columns=["repo"]).count()
    wd = ensure_synth("/root/testdata/sf0.001")
    with tempfile.TemporaryDirectory() as out:
        kg.run(f"{wd}/repo_files.parquet", out, resume=False)

    # headline: the job path, sink and checkpoint writes included; the
    # median of HEADLINE_SAMPLES runs, each into its own fresh directory
    samples = []
    for _ in range(HEADLINE_SAMPLES):
        with tempfile.TemporaryDirectory() as out:
            t0 = time.monotonic()
            counters = kg.run(kg_input, out, resume=False)
            samples.append(round(time.monotonic() - t0, 3))
    times["kg_pipeline"] = statistics.median(samples)
    extras["samples"] = samples
    extras["nodes"] = counters["nodes"]
    extras["triples"] = counters["edges"]
    extras["triples_per_sec"] = round(counters["edges"] / times["kg_pipeline"], 1)

    if os.environ.get("GRAFT_HEADLINE_ONLY"):
        return times["kg_pipeline"], times, extras

    # secondary pipelines
    read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"]).count()
    from text_to_graph_ray.functions.dedup import minhash_near_dup_pairs

    t0 = time.monotonic()
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    minhash_near_dup_pairs(docs, threshold=0.5).count()
    times["dedup_minhash"] = round(time.monotonic() - t0, 3)

    from text_to_graph_ray.functions.dedup import near_dup_survivors

    t0 = time.monotonic()
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    near_dup_survivors(docs, threshold=0.5).count()
    times["dedup_survivors"] = round(time.monotonic() - t0, 3)

    from text_to_graph_ray.functions.decontam import ngram_contamination

    t0 = time.monotonic()
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"])
    ngram_contamination(docs, eval_sources=("src0", "src1"), n=8).count()
    times["dedup_decontaminate"] = round(time.monotonic() - t0, 3)

    import __ray_entry__ as _e

    t0 = time.monotonic()
    _e._q_pipeline_pretraining(sf_dir).count()  # same entry the gate checks
    times["pipeline_pretraining"] = round(time.monotonic() - t0, 3)

    # the distinct-count sketch pair (KMV + HLL — two streamed folds)
    t0 = time.monotonic()
    _e._q_stats_kmv_distinct(sf_dir)
    _e._q_stats_hll_distinct(sf_dir)
    times["stats_sketches"] = round(time.monotonic() - t0, 3)

    t0 = time.monotonic()
    _e._q_pipeline_curation_full(sf_dir).count()
    times["pipeline_curation_full"] = round(time.monotonic() - t0, 3)

    t0 = time.monotonic()
    _e._q_dedup_cross_corpus(sf_dir).count()
    times["dedup_cross_corpus"] = round(time.monotonic() - t0, 3)

    return times["kg_pipeline"], times, extras


def run_once() -> dict:
    import ray
    from ray.data import DataContext

    host = {"cpu_count": os.cpu_count(), "loadavg": [round(x, 2) for x in os.getloadavg()], "ray": ray.__version__}
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False, logging_level="ERROR")
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    headline, times, extras = _bench_queries(SF_DIR)
    out = {
        "metric": "kg_pipeline_wall",
        "value": headline,
        "unit": "sec",
        "queries": times,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "host": host,
        **extras,
    }
    ray.shutdown()
    return out


def run_scaling() -> dict:
    """Same job, same input, fresh ray.init processes at 8 vs 32 CPUs — the
    in-sandbox stand-in for the N vs 4N cluster-size criterion. Uses a larger
    content-only corpus (~150k rich files) so compute dominates fixed
    per-job overhead the way it would on a real multi-node run."""
    import subprocess

    from text_to_graph_ray.synth import ensure_scaling_corpus

    # GRAFT_SCALING_FILES shrinks the corpus for a quick smoke of the
    # machinery; the recorded BASELINE.md numbers use the 200k default
    # (~2 GB logical / ~7 GB content). Bigger corpus = more parallel work
    # per unit of fixed per-job overhead (driver barriers, actor spin-up,
    # sort sampling) — the regime that predicts multi-node behavior; at 100k
    # files the round-3 pipeline finishes the 32-cpu leg in <60 s and fixed
    # overhead distorts the ratio.
    corpus = ensure_scaling_corpus(n_files=int(os.environ.get("GRAFT_SCALING_FILES", "200000")))

    def child(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_SF_DIR=SF_DIR,
            GRAFT_KG_INPUT=corpus,
            GRAFT_HEADLINE_ONLY="1",
        )
        p = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env, capture_output=True, text=True, check=True)
        return json.loads(p.stdout.strip().splitlines()[-1])

    lo, hi = 8, 32
    repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "1"))
    # shared-host noise corrupts individual samples: BOTH legs get the same
    # repeats+1 sample count (asymmetric counts would bias min-of-more-draws
    # downward on one side), and the min per level estimates uncontended
    # capability. All observations are reported for honesty.
    runs_lo = [child(lo) for _ in range(repeats + 1)]
    runs_hi = [child(hi) for _ in range(repeats + 1)]
    r_lo = min(runs_lo, key=lambda r: r["value"])
    r_hi = min(runs_hi, key=lambda r: r["value"])
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": "kg_pipeline_scaling",
        "sec_8": t_lo,
        "sec_32": t_hi,
        "sec_8_all": [r["value"] for r in runs_lo],
        "sec_32_all": [r["value"] for r in runs_hi],
        "speedup": round(t_lo / t_hi, 3),
        "scaling_efficiency": round(eff, 3),
        "triples_8": r_lo.get("triples"),
        "triples_per_sec_8": r_lo.get("triples_per_sec"),
        "triples_per_sec_32": r_hi.get("triples_per_sec"),
        "corpus": corpus,
        "num_cpus": [lo, hi],
    }


def run_once_dedup() -> dict:
    """Timed minhash near-dup pass over the doc scaling corpus (child of
    run_scaling_dedup; GRAFT_DEDUP_INPUT points at the corpus dir)."""
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False

    from text_to_graph_ray.functions.dedup import minhash_near_dup_pairs

    corpus = os.environ["GRAFT_DEDUP_INPUT"]
    # warm-up: page-cache one column + spin workers with a tiny pass
    read_parquet_clean(corpus, columns=["doc_id"]).count()
    small = read_parquet_clean(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    minhash_near_dup_pairs(small, threshold=0.5).count()

    t0 = time.monotonic()
    docs = read_parquet_clean(corpus, columns=["doc_id", "text"])
    n_pairs = minhash_near_dup_pairs(docs, threshold=0.5, signature_join="auto").count()
    wall = round(time.monotonic() - t0, 3)
    n_docs = docs.count()
    out = {
        "metric": "dedup_minhash_wall",
        "value": wall,
        "unit": "sec",
        "num_cpus": NUM_CPUS,
        "docs": n_docs,
        "pairs": n_pairs,
        "docs_per_sec": round(n_docs / wall, 1),
    }
    ray.shutdown()
    return out


def run_scaling_dedup() -> dict:
    """Second scaling pair, different workload: MinHash+LSH near-dup over a
    400k-doc corpus at 8 vs 32 CPUs in fresh processes — evidence that the
    LLM-data-ops side of the engine scales like the KG side does."""
    import subprocess

    from text_to_graph_ray.synth import ensure_doc_scaling_corpus

    corpus = ensure_doc_scaling_corpus(n_docs=int(os.environ.get("GRAFT_DEDUP_DOCS", "400000")))

    def child(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SF_DIR=SF_DIR, GRAFT_DEDUP_INPUT=corpus)
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--dedup-child"],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(p.stdout.strip().splitlines()[-1])

    lo, hi = 8, 32
    repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "1"))
    runs_lo = [child(lo) for _ in range(repeats + 1)]
    runs_hi = [child(hi) for _ in range(repeats + 1)]
    r_lo = min(runs_lo, key=lambda r: r["value"])
    r_hi = min(runs_hi, key=lambda r: r["value"])
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": "dedup_minhash_scaling",
        "sec_8": t_lo,
        "sec_32": t_hi,
        "sec_8_all": [r["value"] for r in runs_lo],
        "sec_32_all": [r["value"] for r in runs_hi],
        "speedup": round(t_lo / t_hi, 3),
        "scaling_efficiency": round(eff, 3),
        "docs": r_lo.get("docs"),
        "pairs": r_lo.get("pairs"),
        "docs_per_sec_8": r_lo.get("docs_per_sec"),
        "docs_per_sec_32": r_hi.get("docs_per_sec"),
        "corpus": corpus,
        "num_cpus": [lo, hi],
    }


def run_once_segdedup() -> dict:
    """Timed corpus-level exact segment dedup over the doc scaling corpus
    (child of run_scaling_segdedup). Unlike the KG/minhash pairs this
    workload is EXCHANGE-bound: a digest-keyed global-first exchange plus a
    doc-keyed reassembly exchange, with the full segment text crossing the
    wire — the shuffle-heavy regime the third scaling criterion pair is
    meant to evidence."""
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False

    from text_to_graph_ray.functions.text import segment_dedup

    corpus = os.environ["GRAFT_SEGDEDUP_INPUT"]
    # warm-up: page-cache one column + spin workers with a tiny pass
    read_parquet_clean(corpus, columns=["doc_id"]).count()
    small = read_parquet_clean(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    segment_dedup(small).count()

    t0 = time.monotonic()
    docs = read_parquet_clean(corpus, columns=["doc_id", "text"])
    # the removed set for this corpus is ~32k rows (2% near-dup docs), far
    # under the 25M default — the broadcast is O(duplicates), not O(corpus)
    n_out = segment_dedup(docs).count()
    wall = round(time.monotonic() - t0, 3)
    n_docs = docs.count()
    out = {
        "metric": "segment_dedup_wall",
        "value": wall,
        "unit": "sec",
        "num_cpus": NUM_CPUS,
        "docs": n_docs,
        "docs_out": n_out,
        "docs_per_sec": round(n_docs / wall, 1),
    }
    ray.shutdown()
    return out


def run_scaling_segdedup() -> dict:
    """Third scaling pair (VERDICT r4 #7), shuffle/exchange-bound workload:
    exact segment dedup over a 1.6M-doc corpus (~4.4 GB text, 40M segments)
    at 8 vs 32 CPUs in fresh processes — the KG and minhash pairs are
    extraction/scan-dominant; this one is dominated by a 40M-row digest
    exchange, a 640 MB survivor-index broadcast, and a 4.4 GB text sort.
    Legs INTERLEAVE (lo, hi, lo, hi, ...) so shared-host noise windows hit
    both widths; min-of-N per leg."""
    import subprocess

    from text_to_graph_ray.synth import ensure_doc_scaling_corpus

    corpus = ensure_doc_scaling_corpus(n_docs=int(os.environ.get("GRAFT_SEGDEDUP_DOCS", "1600000")))

    def child(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SF_DIR=SF_DIR, GRAFT_SEGDEDUP_INPUT=corpus)
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--segdedup-child"],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(p.stdout.strip().splitlines()[-1])

    lo, hi = 8, 32
    repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "1"))
    runs_lo, runs_hi = [], []
    for _ in range(repeats + 1):
        runs_lo.append(child(lo))
        runs_hi.append(child(hi))
    r_lo = min(runs_lo, key=lambda r: r["value"])
    r_hi = min(runs_hi, key=lambda r: r["value"])
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": "segment_dedup_scaling",
        "sec_8": t_lo,
        "sec_32": t_hi,
        "sec_8_all": [r["value"] for r in runs_lo],
        "sec_32_all": [r["value"] for r in runs_hi],
        "speedup": round(t_lo / t_hi, 3),
        "scaling_efficiency": round(eff, 3),
        "docs": r_lo.get("docs"),
        "docs_out": r_lo.get("docs_out"),
        "docs_per_sec_8": r_lo.get("docs_per_sec"),
        "docs_per_sec_32": r_hi.get("docs_per_sec"),
        "corpus": corpus,
        "num_cpus": [lo, hi],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--scaling-dedup" in sys.argv:
        print(json.dumps(run_scaling_dedup()))
    elif "--dedup-child" in sys.argv:
        print(json.dumps(run_once_dedup()))
    elif "--scaling-segdedup" in sys.argv:
        print(json.dumps(run_scaling_segdedup()))
    elif "--segdedup-child" in sys.argv:
        print(json.dumps(run_once_segdedup()))
    else:
        print(json.dumps(run_once()))
