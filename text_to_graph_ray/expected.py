"""Independent local reference implementations ("naive oracles").

Each approximate / heuristic operator in ``functions/`` (MinHash+LSH dedup,
SimHash dedup, text heuristics) gets a deliberately straightforward
SINGLE-THREADED re-implementation here, written against the operator's
documented semantics — NOT by importing its code. ``ensure_doc_expected``
materializes the resulting expected tables as parquet under
``/tmp/graft_expected/<tag>/`` so the DuckDB oracles in
``__ray_entry__.oracle_sql`` can hash-compare the distributed pipelines
against them. A divergence between the two code paths (distributed
bucketing / shuffle / merge vs. the naive loop) fails the driver's hash gate.

What is deliberately shared with the engine (because it IS the spec, not the
implementation under test): crc32 as the stable hash primitive,
``np.random.RandomState(seed)`` for permutation parameters, and
the reference-derived constants (k=64 minhash perms, 16/32 bands, 4x16-bit
simhash bands, shingle width 3). Everything else — signature accumulation,
banding, candidate generation, pair verification, ranking — is re-derived.

Reference anchors: near-dup semantics model the sha-identity dedup of
/root/reference/graph_extractor/src/my_hash.py:4-16 generalized per
SURVEY.md §2/§6 (Broder MinHash, Charikar SimHash — public algorithms).
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# v21 and v19 added the k-means tables, v20 the MST table. Since then their
# queries, the other embedding / media queries and the lexical, BPE and
# packed-sequence queries were deleted and their tables are no longer built;
# a directory built earlier keeps them unread, so the version is not bumped.
EXPECTED_ROOT = "/tmp/graft_expected/v21"

_MERSENNE = (1 << 61) - 1


def expected_dir_for(sf_dir: str) -> str:
    tag = os.path.basename(os.path.normpath(sf_dir))
    return os.path.join(EXPECTED_ROOT, tag)


# ---------------------------------------------------------------------------
# text heuristics (independent re-implementations, pure python)
# ---------------------------------------------------------------------------

_STOPWORDS = {
    "en": ("the", "and", "of", "to", "in", "is", "that", "it", "with", "for"),
    "de": ("der", "die", "das", "und", "ist", "nicht", "mit", "ein", "eine", "zu"),
    "fr": ("le", "la", "les", "et", "est", "un", "une", "dans", "pour", "que"),
    "es": ("el", "la", "los", "y", "es", "un", "una", "en", "por", "que"),
}


def naive_lang(text: str) -> str:
    t = text or ""
    for ch in t[:400]:
        if "一" <= ch <= "鿿":
            return "zh"
    words = [w.lower() for w in t.split()[:200]]
    if not words:
        return "und"
    best, best_n = "und", 0
    for lang in ("en", "de", "fr", "es"):
        n = 0
        for w in words:
            if w in _STOPWORDS[lang]:
                n += 1
        if n > best_n:
            best, best_n = lang, n
    return best if best_n > 0 else "und"


def naive_quality(text: str) -> tuple[float, float, float, float]:
    t = text or ""
    toks = t.split()
    n = len(toks)
    mean_len = sum(len(x) for x in toks) / n if n else 0.0
    stop = _STOPWORDS["en"]
    stop_r = sum(1 for x in toks if x.lower() in stop) / n if n else 0.0
    alpha = sum(1 for c in t if c.isalpha()) / len(t) if t else 0.0
    q = min(1.0, n / 50.0) * 0.4 + min(mean_len / 8.0, 1.0) * 0.2 + stop_r * 0.2 + alpha * 0.2
    return round(mean_len, 6), round(stop_r, 6), round(alpha, 6), round(q, 6)


def naive_fingerprint(text: str, k: int = 5, window: int = 4) -> int:
    t = text or ""
    if len(t) < k:
        return zlib.crc32(t.encode("utf-8"))
    grams = [zlib.crc32(t[i : i + k].encode("utf-8")) for i in range(len(t) - k + 1)]
    if len(grams) < window:
        return min(grams)
    mins = {min(grams[i : i + window]) for i in range(len(grams) - window + 1)}
    out = 0
    for m in mins:  # xor is commutative/associative: iteration order irrelevant
        out ^= m
    return out & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# SimHash (vectorized over tokens — different shape than the engine's
# per-token accumulation loop, same 64-bit majority fingerprint)
# ---------------------------------------------------------------------------


def naive_simhash64(text: str) -> int:
    toks = (text or "").split()
    if not toks:
        return 0
    hs = np.array(
        [((zlib.crc32(t.encode()) << 32) | zlib.crc32(t[::-1].encode())) for t in toks],
        dtype=np.uint64,
    )
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(bool)
    acc = np.where(bits, 1, -1).sum(axis=0)
    fp = 0
    for i in range(64):
        if acc[i] > 0:
            fp |= 1 << i
    return fp


def naive_nb(ids, texts, labels, test_mod: int = 5, scale: int = 10**12):
    """Single-threaded multinomial Naive Bayes mirror of
    text.naive_bayes_classify: train on id % test_mod != 0, classify the
    rest. Every log term quantized to int64 round(log(p)·scale) BEFORE
    summing (order-independent), argmax tie-break (score desc, class asc).
    Returns [(doc_id, true, pred, correct)] sorted by doc_id."""
    from collections import Counter, defaultdict

    counts: dict = defaultdict(Counter)
    docs_per: Counter = Counter()
    for i, t, lab in zip(ids, texts, labels):
        if i % test_mod == 0:
            continue
        docs_per[lab] += 1
        counts[lab].update((t or "").split())
    classes = sorted(docs_per)
    vocab = set()
    for c in classes:
        vocab |= set(counts[c])
    V = len(vocab)
    total_docs = sum(docs_per.values())
    n_tok = {c: sum(counts[c].values()) for c in classes}

    def q(x: float) -> int:
        return int(np.round(np.log(x) * scale))

    priors = {c: q(docs_per[c] / total_docs) for c in classes}
    out = []
    for i, t, lab in zip(ids, texts, labels):
        if i % test_mod != 0:
            continue
        toks = Counter((t or "").split())
        best_c, best_s = None, None
        for c in classes:
            s = priors[c]
            for tok, cnt in toks.items():
                s += cnt * q((counts[c].get(tok, 0) + 1) / (n_tok[c] + V))
            if best_s is None or s > best_s:
                best_c, best_s = c, s
        out.append((i, lab, best_c, int(best_c == lab)))
    return sorted(out)


def naive_simhash_pairs(ids: list[int], texts: list[str], max_hamming: int = 3):
    """All-pairs hamming check — no banding at all. Equals the engine's banded
    result for max_hamming <= 3 (4x16-bit pigeonhole: within hamming 3 at
    least one band matches exactly)."""
    fps = [naive_simhash64(t) for t in texts]
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    a_out, b_out, h_out = [], [], []
    for x in range(len(order)):
        i = order[x]
        for y in range(x + 1, len(order)):
            j = order[y]
            d = bin(fps[i] ^ fps[j]).count("1")
            if d <= max_hamming:
                a_out.append(ids[i])
                b_out.append(ids[j])
                h_out.append(d)
    return a_out, b_out, h_out


# ---------------------------------------------------------------------------
# MinHash + LSH (naive banding over a dict of buckets)
# ---------------------------------------------------------------------------


def _minhash_params(k: int, seed: int):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=k, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=k, dtype=np.int64).astype(np.uint64)
    return a, b


def naive_minhash_sig(text: str, a: np.ndarray, b: np.ndarray, shingle: int = 3) -> np.ndarray:
    """k-perm signature, one shingle at a time (running minimum) — the engine
    builds an (S, k) matrix instead. Universal hash (crc*a+b) runs in uint64
    wraparound arithmetic then mod 2^61-1, per the spec."""
    toks = (text or "").split()
    if len(toks) < shingle:
        shingles = [" ".join(toks)] if toks else []
    else:
        shingles = [" ".join(toks[i : i + shingle]) for i in range(len(toks) - shingle + 1)]
    k = len(a)
    if not shingles:
        return np.full(k, np.uint64(_MERSENNE), dtype=np.uint64)
    sig = np.full(k, np.iinfo(np.uint64).max, dtype=np.uint64)
    m = np.uint64(_MERSENNE)
    for s in shingles:
        h = np.uint64(zlib.crc32(s.encode("utf-8")))
        sig = np.minimum(sig, (h * a + b) % m)
    return sig


def naive_minhash_pairs(
    ids: list[int],
    texts: list[str],
    k: int = 64,
    bands: int = 16,
    shingle: int = 3,
    seed: int = 42,
    max_bucket: int = 200,
):
    """Candidate pairs: same crc32(band bytes) in any band; bucket capped at
    the max_bucket smallest ids; est_jaccard = fraction of equal signature
    positions. Returns sorted (a, b, est) with max-est dedup across bands."""
    a_p, b_p = _minhash_params(k, seed)
    sigs = {i: naive_minhash_sig(t, a_p, b_p, shingle) for i, t in zip(ids, texts)}
    r = k // bands
    buckets: dict[tuple, list] = {}
    for i in ids:
        sig = sigs[i]
        for band in range(bands):
            h = zlib.crc32(sig[band * r : (band + 1) * r].tobytes())
            buckets.setdefault((band, h), []).append(i)
    pairs: dict[tuple, float] = {}
    for members in buckets.values():
        if len(members) < 2:
            continue
        members = sorted(members)[:max_bucket]
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                i, j = members[x], members[y]
                est = float((sigs[i] == sigs[j]).mean())
                prev = pairs.get((i, j))
                if prev is None or est > prev:
                    pairs[(i, j)] = est
    out = sorted(pairs.items())
    return [p[0] for p, _ in out], [p[1] for p, _ in out], [e for _, e in out]


def naive_cross_minhash_pairs(
    eval_ids: list[int],
    eval_texts: list[str],
    train_ids: list[int],
    train_texts: list[str],
    k: int = 64,
    bands: int = 16,
    shingle: int = 3,
    seed: int = 42,
    max_bucket: int = 200,
):
    """Cross-corpus candidate pairs (eval_id, train_id, est): same
    crc32(band bytes) in any band with one member per side; per-bucket
    truncation at the max_bucket smallest ids PER SIDE; est = fraction of
    equal signature positions, max across bands."""
    a_p, b_p = _minhash_params(k, seed)
    esigs = {i: naive_minhash_sig(t, a_p, b_p, shingle) for i, t in zip(eval_ids, eval_texts)}
    tsigs = {i: naive_minhash_sig(t, a_p, b_p, shingle) for i, t in zip(train_ids, train_texts)}
    r = k // bands
    buckets: dict[tuple, tuple[list, list]] = {}
    for side, (idset, sigs) in enumerate(((eval_ids, esigs), (train_ids, tsigs))):
        for i in idset:
            sig = sigs[i]
            for band in range(bands):
                h = zlib.crc32(sig[band * r : (band + 1) * r].tobytes())
                buckets.setdefault((band, h), ([], []))[side].append(i)
    pairs: dict[tuple, float] = {}
    for evs, trs in buckets.values():
        if not evs or not trs:
            continue
        for i in sorted(evs)[:max_bucket]:
            for j in sorted(trs)[:max_bucket]:
                est = float((esigs[i] == tsigs[j]).mean())
                prev = pairs.get((i, j))
                if prev is None or est > prev:
                    pairs[(i, j)] = est
    out = sorted(pairs.items())
    return [p[0] for p, _ in out], [p[1] for p, _ in out], [e for _, e in out]


def naive_bigram_lm(ids: list[int], texts: list[str]):
    """Independent bigram-LM scores with plain dicts: Laplace-smoothed
    p(w|prev) = (c(prev w)+1)/(c(prev ·)+V), V = distinct tokens corpus-wide;
    per-doc nll = -(sum of round(log2(p)*1e9)) / 1e9 / n_bigrams, round 6
    (0.0 and 0 bigrams for docs with < 2 tokens) — the engine contract,
    recomputed from scratch."""
    c_bg: dict = {}
    c_f: dict = {}
    vocab = set()
    for t in texts:
        toks = (t or "").split()
        vocab.update(toks)
        for fw, tw in zip(toks, toks[1:]):
            c_bg[(fw, tw)] = c_bg.get((fw, tw), 0) + 1
            c_f[fw] = c_f.get(fw, 0) + 1
    v = float(len(vocab))
    nb_out, nll_out = [], []
    for t in texts:
        toks = (t or "").split()
        if len(toks) < 2:
            nb_out.append(0)
            nll_out.append(0.0)
            continue
        s = 0
        for fw, tw in zip(toks, toks[1:]):
            p = (c_bg[(fw, tw)] + 1.0) / (c_f[fw] + v)
            s += int(np.rint(np.log2(np.float64(p)) * 1e9))
        nb = len(toks) - 1
        nb_out.append(nb)
        nll_out.append(round(-(np.float64(s) / 1e9) / np.float64(nb), 6))
    return nb_out, nll_out


def naive_survivors(ids: list[int], texts: list[str], threshold: float, bands: int = 16) -> list[int]:
    """Union-find (min-root) over the naive minhash pair graph: one survivor
    (the min id) per connected component; untouched docs survive."""
    a_l, b_l, est = naive_minhash_pairs(ids, texts, bands=bands)
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, e in zip(a_l, b_l, est):
        if e >= threshold:
            ra, rb = find(a), find(b)
            if ra != rb:
                lo, hi = min(ra, rb), max(ra, rb)
                parent[hi] = lo
    return sorted(i for i in ids if find(i) == i)


def naive_best_quality_survivors(ids: list[int], texts: list[str], threshold: float, bands: int = 16) -> list[int]:
    """Union-find over the naive minhash pair graph, keeping the
    HIGHEST-QUALITY member per component (ties -> min id); untouched docs
    survive. Written against the survivors_best_quality spec — no engine
    imports."""
    a_l, b_l, est = naive_minhash_pairs(ids, texts, bands=bands)
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, e in zip(a_l, b_l, est):
        if e >= threshold:
            ra, rb = find(a), find(b)
            if ra != rb:
                lo, hi = min(ra, rb), max(ra, rb)
                parent[hi] = lo
    groups: dict[int, list[int]] = {}
    for i in ids:
        groups.setdefault(find(i), []).append(i)
    q = {i: naive_quality(t)[3] for i, t in zip(ids, texts)}
    out = []
    for members in groups.values():
        if len(members) == 1:
            out.append(members[0])
        else:
            out.append(min(members, key=lambda i: (-q[i], i)))
    return sorted(out)


def naive_clean_corpus(ids: list[int], texts: list[str], min_quality: float = 0.45, threshold: float = 0.5) -> list[int]:
    """Single-threaded curation composition: quality+language gate then
    near-dedup survivors over the gated subset."""
    kept_ids, kept_texts = [], []
    for i, t in zip(ids, texts):
        if naive_quality(t)[3] >= min_quality and naive_lang(t) == "en":
            kept_ids.append(i)
            kept_texts.append(t)
    return naive_survivors(kept_ids, kept_texts, threshold=threshold)


def _naive_dup_frac(text: str) -> float:
    from collections import Counter

    toks = (text or "").split(" ")
    if len(toks) < 2:
        return 0.0
    c = Counter(zip(toks, toks[1:]))
    total = sum(c.values())
    return 1 - len(c) / total


def naive_pretraining_corpus(
    ids: list[int],
    texts: list[str],
    sources: list[str],
    min_quality: float = 0.45,
    threshold: float = 0.5,
    max_dup_frac: float = 0.06,
    eval_sources: tuple = ("src0", "src1"),
    n: int = 8,
) -> list[int]:
    """Single-threaded reimplementation of pipelines.curation.pretraining_corpus."""
    ev = set(eval_sources)

    def grams(text):
        toks = (text or "").split(" ")
        return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)} if len(toks) >= n else set()

    eval_grams: set = set()
    for i, t, src in zip(ids, texts, sources):
        if src in ev:
            eval_grams |= grams(t)

    kept_ids, kept_texts = [], []
    for i, t, src in zip(ids, texts, sources):
        if src in ev:
            continue
        if naive_quality(t)[3] < min_quality or naive_lang(t) != "en":
            continue
        if _naive_dup_frac(t) > max_dup_frac:
            continue
        kept_ids.append(i)
        kept_texts.append(t)

    survivors = naive_survivors(kept_ids, kept_texts, threshold=threshold)
    text_of = dict(zip(ids, texts))
    return [i for i in survivors if not (grams(text_of[i]) & eval_grams)]


def naive_word_jaccard(ta: str, tb: str, shingle: int = 3) -> float:
    def sh(t):
        toks = (t or "").split()
        if len(toks) < shingle:
            return {" ".join(toks)} if toks else set()
        return {" ".join(toks[i : i + shingle]) for i in range(len(toks) - shingle + 1)}

    sa, sb = sh(ta), sh(tb)
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


# ---------------------------------------------------------------------------
# conformance-parser corpus: reference-formatted replies with HAND-WRITTEN
# expected parse outcomes (response_parser.py:210-745 case classes). The
# expected values below were derived by hand from the documented reject/prune
# semantics — not by running the parser.
# ---------------------------------------------------------------------------

CONFORMANCE_ROOT = "/tmp/graft_conformance/v1"

_WELL_FORMED = "id,entity,category\n0,Alice,Person\n1,Acme,Company\nsource,target,relationship\n0,1,works_at\n"

# (reply_text, status, nodes_packed, edges_packed)
REPLY_CASES = [
    (_WELL_FORMED, "ok", "0:Alice:Person;1:Acme:Company", "0:1:works_at"),
    ("```csv\n# header comment\n" + _WELL_FORMED + "```\n", "ok", "0:Alice:Person;1:Acme:Company", "0:1:works_at"),
    ("id,entity,category\n0,A,T\n0,B,T\nsource,target,relationship\n0,0,x\n", "rejected", "", ""),  # duplicate ids
    ("id,entity,category\n0,A,T\n1,B,T\nsource,target,relationship\n0,9,x\n", "rejected", "", ""),  # dangling edge
    (  # wrong-arity rows skipped; orphans pruned + dense reindex
        "id,entity,category\n0,A,T\n1,B\n2,C,T,extra\n3,D,T\nsource,target,relationship\n0,3,x\n",
        "ok",
        "0:A:T;1:D:T",
        "0:1:x",
    ),
    (  # orphan dropped, survivors reindexed
        "id,entity,category\n0,A,T\n1,B,T\n2,Orphan,T\nsource,target,relationship\n0,1,x\n",
        "ok",
        "0:A:T;1:B:T",
        "0:1:x",
    ),
    (  # exact-duplicate edges keep-first; same pair new label kept
        "id,entity,category\n0,A,T\n1,B,T\nsource,target,relationship\n0,1,x\n0,1,x\n0,1,y\n",
        "ok",
        "0:A:T;1:B:T",
        "0:1:x;0:1:y",
    ),
    ("", "ok", "", ""),  # empty reply -> empty graph
    ("complete garbage\nno headers", "ok", "", ""),
    (  # csv-quoted fields survive intact
        'id,entity,category\n0,"Smith, John",Person\n1,Acme,Company\nsource,target,relationship\n0,1,"works, at"\n',
        "ok",
        "0:Smith, John:Person;1:Acme:Company",
        "0:1:works, at",
    ),
    ("id,entity,category\n0,A,T\n1,B,T\n", "ok", "", ""),  # no edge section: all nodes orphaned away
    (  # edge header present but no valid edge row -> nodes kept unpruned, edges unusable
        "id,entity,category\n0,A,T\nsource,target,relationship\nbadrow\n",
        "partial",
        "0:A:T",
        "",
    ),
]


def ensure_conformance_expected() -> str:
    """Materialize the reply corpus + hand-written expected parse table."""
    from text_to_graph_ray.util import ensure_dir_once

    return ensure_dir_once(CONFORMANCE_ROOT, _build_conformance)


def _build_conformance(tmp: str) -> None:
    _write(
        tmp,
        "replies",
        pa.table(
            {
                "reply_id": pa.array(range(len(REPLY_CASES)), type=pa.int64()),
                "reply": pa.array([c[0] for c in REPLY_CASES], type=pa.string()),
            }
        ),
    )
    _write(
        tmp,
        "expected_parse",
        pa.table(
            {
                "reply_id": pa.array(range(len(REPLY_CASES)), type=pa.int64()),
                "status": pa.array([c[1] for c in REPLY_CASES], type=pa.string()),
                "n_nodes": pa.array([len(c[2].split(";")) if c[2] else 0 for c in REPLY_CASES], type=pa.int64()),
                "n_edges": pa.array([len(c[3].split(";")) if c[3] else 0 for c in REPLY_CASES], type=pa.int64()),
                "nodes_packed": pa.array([c[2] for c in REPLY_CASES], type=pa.string()),
                "edges_packed": pa.array([c[3] for c in REPLY_CASES], type=pa.string()),
            }
        ),
    )


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------


def _write(tmp: str, name: str, table: pa.Table) -> None:
    pq.write_table(table, os.path.join(tmp, f"{name}.parquet"))


def ensure_doc_expected(sf_dir: str) -> str:
    """Idempotently build every documents-derived expected table for
    one sf dir. Atomic (tmp dir + rename); returns the directory."""
    from text_to_graph_ray.util import ensure_dir_once

    return ensure_dir_once(expected_dir_for(sf_dir), lambda tmp: _build_doc_expected(sf_dir, tmp))


def _build_doc_expected(sf_dir: str, tmp: str) -> None:
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "source"])
    ids = docs.column("doc_id").to_pylist()
    texts = [t or "" for t in docs.column("text").to_pylist()]
    sources = docs.column("source").to_pylist()

    # per-document text heuristics
    langs = [naive_lang(t) for t in texts]
    quals = [naive_quality(t) for t in texts]
    fps = [naive_fingerprint(t) for t in texts]
    _write(
        tmp,
        "expected_text",
        pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "lang_pred": pa.array(langs, type=pa.string()),
                "mean_tok_len": pa.array([q[0] for q in quals], type=pa.float64()),
                "stop_ratio": pa.array([q[1] for q in quals], type=pa.float64()),
                "alpha_ratio": pa.array([q[2] for q in quals], type=pa.float64()),
                "quality": pa.array([q[3] for q in quals], type=pa.float64()),
                "fingerprint": pa.array(fps, type=pa.int64()),
            }
        ),
    )

    # multinomial Naive Bayes over the true lang labels (train: id%5 != 0)
    langs_true = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "lang"]).column("lang").to_pylist()
    nb = naive_nb(ids, texts, langs_true)
    _write(
        tmp,
        "expected_nb",
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in nb], type=pa.int64()),
                "lang": pa.array([r[1] for r in nb], type=pa.string()),
                "pred": pa.array([r[2] for r in nb], type=pa.string()),
                "correct": pa.array([r[3] for r in nb], type=pa.int64()),
            }
        ),
    )

    # simhash pairs (hamming <= 3 — the banding-guaranteed regime)
    sa, sb, sh = naive_simhash_pairs(ids, texts, max_hamming=3)
    _write(
        tmp,
        "expected_simhash_pairs",
        pa.table(
            {
                "a": pa.array(sa, type=pa.int64()),
                "b": pa.array(sb, type=pa.int64()),
                "hamming": pa.array(sh, type=pa.int64()),
            }
        ),
    )

    # minhash candidate pairs, 16 bands (the dedup_minhash query shape)
    a16, b16, est16 = naive_minhash_pairs(ids, texts, bands=16)
    _write(
        tmp,
        "expected_minhash_pairs",
        pa.table(
            {
                "a": pa.array(a16, type=pa.int64()),
                "b": pa.array(b16, type=pa.int64()),
                "est_jaccard": pa.array(est16, type=pa.float64()),
            }
        ),
    )

    # cross-corpus (eval = src0/src1 vs train = rest) fuzzy-decontam pairs
    ev = [(i, t) for i, t, srcv in zip(ids, texts, sources) if srcv in ("src0", "src1")]
    tr = [(i, t) for i, t, srcv in zip(ids, texts, sources) if srcv not in ("src0", "src1")]
    ca, cb, ce = naive_cross_minhash_pairs(
        [i for i, _ in ev], [t for _, t in ev], [i for i, _ in tr], [t for _, t in tr]
    )
    _write(
        tmp,
        "expected_cross_pairs",
        pa.table(
            {
                "a": pa.array(ca, type=pa.int64()),
                "b": pa.array(cb, type=pa.int64()),
                "est_jaccard": pa.array(ce, type=pa.float64()),
            }
        ),
    )

    # self-trained bigram-LM quality scores (Laplace smoothing, corpus vocab)
    nb, nll = naive_bigram_lm(ids, texts)
    _write(
        tmp,
        "expected_lm_nll",
        pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_bigrams": pa.array(nb, type=pa.int64()),
                "nll": pa.array(nll, type=pa.float64()),
            }
        ),
    )

    # near-dedup survivors: union-find over the 16-band pair graph at 0.5
    surv = naive_survivors(ids, texts, threshold=0.5)
    _write(tmp, "expected_survivors", pa.table({"doc_id": pa.array(surv, type=pa.int64())}))

    # quality-argmax survivors (keep the best-quality copy per cluster)
    bq = naive_best_quality_survivors(ids, texts, threshold=0.5)
    _write(tmp, "expected_best_survivors", pa.table({"doc_id": pa.array(bq, type=pa.int64())}))

    # curation composition: gate then dedup
    clean = naive_clean_corpus(ids, texts)
    _write(tmp, "expected_clean", pa.table({"doc_id": pa.array(clean, type=pa.int64())}))

    # full pretraining composition: eval-split removal -> quality/lang/
    # repetition gate -> near-dedup survivors -> n-gram decontamination
    clean2 = naive_pretraining_corpus(ids, texts, sources)
    _write(tmp, "expected_clean2", pa.table({"doc_id": pa.array(clean2, type=pa.int64())}))

    # full curation: pretraining composition -> segment dedup -> budget select
    c3 = naive_curation_full(ids, texts, sources)
    _write(
        tmp,
        "expected_clean3",
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in c3], type=pa.int64()),
                "quality": pa.array([r[1] for r in c3], type=pa.float64()),
                "n_tokens": pa.array([r[2] for r in c3], type=pa.int64()),
                "cum_tokens": pa.array([r[3] for r in c3], type=pa.int64()),
            }
        ),
    )

    # ngram-verified pairs: 32-band candidates + exact word-3-shingle jaccard
    a32, b32, est32 = naive_minhash_pairs(ids, texts, bands=32)
    text_of = dict(zip(ids, texts))
    jac = [round(naive_word_jaccard(text_of[a], text_of[b]), 6) for a, b in zip(a32, b32)]
    _write(
        tmp,
        "expected_ngram_pairs",
        pa.table(
            {
                "a": pa.array(a32, type=pa.int64()),
                "b": pa.array(b32, type=pa.int64()),
                "est_jaccard": pa.array(est32, type=pa.float64()),
                "jaccard": pa.array(jac, type=pa.float64()),
            }
        ),
    )


# ---------------------------------------------------------------------------
# KG scored-fallback-link oracle (naive trigram-cosine reimplementation)
# ---------------------------------------------------------------------------

KG_SCORED_ROOT = "/tmp/graft_expected/kg_scored_v1"


def _naive_trigram_vec(text: str, dim: int) -> np.ndarray:
    """Char-trigram count vector over '^text$', crc32-bucketed, L2-normalized
    — written against the documented ScoredLinkStage semantics, float64."""
    v = np.zeros(dim, dtype=np.float64)
    t = f"^{text}$"
    for j in range(len(t) - 2):
        v[zlib.crc32(t[j : j + 3].encode("utf-8")) % dim] += 1.0
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def ensure_kg_scored_expected(sf_dir: str, threshold: float = 0.35, dim: int = 1024) -> str:
    """Naive scored near-miss links over the synth GROUND-TRUTH tables
    (expected_nodes / expected_triples_linked — generator outputs, not engine
    outputs): vocabulary = undotted entity keys, mentions = module-qualified
    dotted endpoint keys, best trigram-cosine match per mention."""
    from text_to_graph_ray.synth import ensure_synth
    from text_to_graph_ray.util import ensure_dir_once

    synth_dir = ensure_synth(sf_dir)
    out = os.path.join(KG_SCORED_ROOT, os.path.basename(os.path.normpath(sf_dir)))
    return ensure_dir_once(out, lambda tmp: _build_kg_scored(synth_dir, tmp, threshold, dim))


def _build_kg_scored(synth_dir: str, tmp: str, threshold: float, dim: int) -> None:
    nodes = pq.read_table(os.path.join(synth_dir, "expected_nodes.parquet"), columns=["entity_key"])
    edges = pq.read_table(
        os.path.join(synth_dir, "expected_triples_linked.parquet"), columns=["src_key", "dst_key"]
    )
    vocab = sorted({k for k in nodes.column("entity_key").to_pylist() if "." not in k})
    mset: set[str] = set()
    for col in ("src_key", "dst_key"):
        for k in edges.column(col).to_pylist():
            if "." in k and "/" not in k:
                mset.add(k)
    mentions = sorted(mset)

    out_m, out_t, out_s = [], [], []
    if vocab and mentions:
        mat = np.stack([_naive_trigram_vec(w, dim) for w in vocab])
        q = np.stack([_naive_trigram_vec(m, dim) for m in mentions])
        sims = q @ mat.T
        idx = sims.argmax(axis=1)
        for r, m in enumerate(mentions):
            s = float(sims[r, idx[r]])
            if s >= threshold:
                out_m.append(m)
                out_t.append(vocab[idx[r]])
                out_s.append(round(s, 6))
    _write(
        tmp,
        "expected_scored_links",
        pa.table(
            {
                "mention": pa.array(out_m, type=pa.string()),
                "matched": pa.array(out_t, type=pa.string()),
                "score": pa.array(out_s, type=pa.float64()),
            }
        ),
    )


def naive_segment_dedup_texts(ids: list[int], texts: list[str], seg_tokens: int = 16):
    """Single-threaded spec of functions.text.segment_dedup over a corpus
    ordered by doc id: first occurrence of each exact segment survives.
    Returns (kept_ids, deduped_text_by_id)."""
    seen: set = set()
    out_ids, out_text = [], {}
    for i in sorted(range(len(ids)), key=lambda j: ids[j]):
        toks = (texts[i] or "").split(" ")
        n = (len(toks) + seg_tokens - 1) // seg_tokens
        kept = []
        for s in range(n):
            seg = " ".join(toks[s * seg_tokens : (s + 1) * seg_tokens])
            if seg not in seen:
                seen.add(seg)
                kept.append(seg)
        if kept:
            out_ids.append(ids[i])
            out_text[ids[i]] = " ".join(kept)
    return out_ids, out_text


def naive_budget_select(ids: list[int], texts: list[str], budget_denom: int = 3):
    """Single-threaded spec of functions.sample.budget_select: quality-ranked
    strict window prefix within total_tokens // budget_denom. Returns
    (doc_id, quality, n_tokens, cum_tokens) rows in rank order."""
    scored = []
    for i, t in zip(ids, texts):
        t = t or ""
        toks = t.split()
        scored.append((i, naive_quality(t)[3], len(toks)))
    total = sum(s[2] for s in scored)
    budget = total // budget_denom
    scored.sort(key=lambda s: (-s[1], s[0]))
    rows, cum = [], 0
    for i, q, n in scored:
        cum += n
        if cum > budget:
            break  # strict window prefix: nothing after the overflow row
        rows.append((i, q, n, cum))
    return rows


def naive_curation_full(ids, texts, sources):
    """Spec of pipelines.curation.curation_full: pretraining composition ->
    corpus-level segment dedup over the survivors -> token-budget
    selection on the deduped text."""
    surv = naive_pretraining_corpus(ids, texts, sources)
    text_of = dict(zip(ids, texts))
    kept, dedup_text = naive_segment_dedup_texts(surv, [text_of[i] for i in surv])
    return naive_budget_select(kept, [dedup_text[i] for i in kept])
