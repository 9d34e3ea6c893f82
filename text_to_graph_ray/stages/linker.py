"""Entity linking — alias resolution plus a similarity fallback.

Replaces the reference's one genuinely stateful/expensive stage (the remote LLM
client, /root/reference/graph_extractor/src/gpt.py:37-70, rebuilt per call
there) with a deterministic alias resolver + similarity scorer whose state is
built ONCE per worker process, not per batch:

* the **definitions index** (defined-name key -> defining module paths)
  travels as one Arrow table (``ray.put`` on the driver); ``MergedLinker``,
  the kernel of the stateless relink pass in ``pipelines/kg.py``, is cached
  per worker process by the table's ref and builds its lookup dict once;
* a **memo cache** of resolved keys on that ``MergedLinker`` accumulates
  across batches (the reference's response cache analogue,
  sqlite_support.py:275-423);
* an optional **char-trigram scorer** (``ScoredLinkStage``, an actor pool)
  ranks near-miss mentions against the canonical vocabulary (the "embedding
  cache + scorer" of the north star).

Scale note: the defs index is the *small side* of a would-be join (one entry
per defined function/class — orders of magnitude smaller than the mention
stream), so broadcast is the right shape at 10^12 files as long as the
definition vocabulary fits worker memory; beyond that the pipeline swaps to a
shuffle join on the name key (``relink_merged_distributed``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from text_to_graph_ray.keys import resolve_alias


def entity_key_array(arr):
    """``keys.entity_key`` over an Arrow string array, element for element:
    Arrow kernels for ASCII values, Python for the rest. Arrow's case and
    whitespace tables differ from Python's on some non-ASCII code points
    (U+0130 lowers to one code point, not two; a final U+03A3 lowers to
    U+03C3, not U+03C2), and a key that is not its label's own key breaks
    the canonical-label rule of ``merge_bucket``."""
    import pyarrow.compute as pc

    from text_to_graph_ray.keys import entity_key

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    keys = pc.utf8_lower(pc.utf8_trim_whitespace(pc.replace_substring(arr, pattern="|", replacement="_")))
    other = pc.invert(pc.fill_null(pc.string_is_ascii(arr), True))
    if not pc.any(other).as_py():
        return keys
    fixed = pa.array([entity_key(x) for x in arr.filter(other).to_pylist()], type=keys.type)
    return pc.replace_with_mask(keys, other, fixed)


def defs_dict_from_table(table: pa.Table) -> dict:
    """(k1 name, k2 module) Arrow pairs -> {name: sorted module tuple}.

    Runs once per linker process, so the build must be near-vectorized: sort
    (C), detect group boundaries with one numpy object-compare, and take the
    O(n) ``dict(zip(...))`` path when every name is unique (the common case —
    a per-group Python loop here cost 3.6 s per process at 800k defs)."""
    import numpy as np

    n = table.num_rows
    if n == 0:
        return {}
    t = table.sort_by([("k1", "ascending"), ("k2", "ascending")])
    names = t.column("k1").to_pylist()
    mods = t.column("k2").to_pylist()
    arr = np.asarray(names, dtype=object)
    change = np.flatnonzero(arr[1:] != arr[:-1]) + 1
    if len(change) == n - 1:  # all names unique
        return dict(zip(names, ((m,) for m in mods)))
    starts = np.concatenate(([0], change, [n]))
    return {names[starts[i]]: tuple(mods[starts[i] : starts[i + 1]]) for i in range(len(starts) - 1)}


class MergedLinker:
    """Entity linking over merged-schema rows — the combiner partials or an
    already-merged graph — rather than the raw mention stream: resolving
    once per distinct key of a batch instead of once per mention.
    ``defs_idx`` is the broadcast (name, module) Arrow table, indexed into a
    lookup dict once per instance; the relink pass keeps one instance per
    worker process, so a memo of resolved keys accumulates across its
    batches. The ``changed`` column flags rows whose key was rewritten.
    Rewrites k1 (both kinds) and k3 (edge dst only — for node rows k3 is the
    packed type set and must pass through untouched)."""

    def __init__(self, defs_idx: pa.Table, reexports: dict | None = None):
        self.defs_idx = defs_dict_from_table(defs_idx)
        # CLOSED re-export map (keys.close_reexports): chained aliases are
        # already collapsed, so one lookup replaces the per-key fixpoint loop;
        # the def-rule hop composes after the re-export hop (re-export wins
        # on conflict — it is the user-declared mapping)
        self.reexports = reexports or {}
        self.memo: dict[str, str] = {}

    def resolve(self, key: str) -> str:
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        cur = self.reexports.get(key, key)
        tgt = resolve_alias(cur, self.defs_idx) if "." in cur else None
        out = tgt if tgt is not None else cur
        self.memo[key] = out
        return out

    def _resolve_keys(self, arr: pa.Array) -> pa.Array:
        # keys are already normalized; only the alias rule applies here, once
        # per DISTINCT key of the batch
        enc = arr.combine_chunks().dictionary_encode() if isinstance(arr, pa.ChunkedArray) else arr.dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        mapped = [self.resolve(u) for u in uniq]
        if mapped == uniq:
            return arr
        return pa.array(mapped, type=pa.string()).take(enc.indices)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        old_k1, old_k3 = batch.column("k1"), batch.column("k3")
        k1 = self._resolve_keys(old_k1)
        is_edge = pc.equal(batch.column("kind"), "e")
        k3 = pc.if_else(is_edge, self._resolve_keys(old_k3), old_k3)
        changed = pc.or_(pc.invert(pc.equal(k1, old_k1)), pc.invert(pc.equal(k3, old_k3)))
        out = batch.set_column(batch.schema.get_field_index("k1"), "k1", k1).set_column(
            batch.schema.get_field_index("k3"), "k3", k3
        )
        return out.append_column("changed", changed)


def trigram_vec(text: str, dim: int) -> np.ndarray:
    """Char-trigram count vector over ``^text$``, crc32-bucketed into ``dim``
    slots, L2-normalized. float64 end-to-end: identical IEEE ops on every
    caller (actor pool, shard tasks, the naive oracle) keep the rounded
    scores bit-reproducible. crc32, not hash(): python str hashing is salted
    per process and would make worker outputs disagree across the pool."""
    import zlib

    v = np.zeros(dim, dtype=np.float64)
    t = f"^{text}$"
    for j in range(len(t) - 2):
        v[zlib.crc32(t[j : j + 3].encode("utf-8")) % dim] += 1.0
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def trigram_matrix(words: list[str], dim: int) -> np.ndarray:
    """Stack of trigram_vec rows — one shared kernel for the broadcast plan's
    per-actor vocabulary matrix and the distributed plan's shard matrices."""
    mat = np.zeros((len(words), dim), dtype=np.float64)
    for i, w in enumerate(words):
        mat[i] = trigram_vec(w, dim)
    return mat


class NgramScorer:
    """Deterministic char-trigram cosine scorer over a canonical vocabulary —
    the similarity fallback for mentions that resolve to nothing. Vocabulary
    vectors are built once per actor; per-batch scoring is a single sparse
    matmul (numpy)."""

    def __init__(self, vocab: list[str], dim: int = 4096):
        self.dim = dim
        self.vocab = list(vocab)
        self.mat = trigram_matrix(self.vocab, dim)

    def _vec(self, text: str) -> np.ndarray:
        return trigram_vec(text, self.dim)

    def best(self, mentions: list[str], threshold: float = 0.7):
        """-> list of (best_vocab_entry | None, score)."""
        if not len(self.vocab):
            return [(None, 0.0)] * len(mentions)
        q = np.stack([self._vec(m) for m in mentions])
        sims = q @ self.mat.T
        idx = sims.argmax(axis=1)
        out = []
        for r, i in enumerate(idx):
            s = float(sims[r, i])
            out.append((self.vocab[i], s) if s >= threshold else (None, s))
        return out


class ScoredLinkStage:
    """Actor-pool near-miss fallback over unresolved mentions (SURVEY A1's
    "scorer + cache", wired end-to-end): the char-trigram vocabulary matrix is
    built ONCE per actor from the broadcast canonical vocabulary; each batch
    of mentions is one float64 matmul. Emits (mention, matched, score) rows for
    scores >= threshold, score rounded to 6 dp for oracle stability."""

    def __init__(self, vocab_ref=None, vocab: list[str] | None = None, threshold: float = 0.35, dim: int = 1024):
        if vocab is None:
            import ray

            vocab = ray.get(vocab_ref) if vocab_ref is not None else []
        self.scorer = NgramScorer(sorted(vocab), dim=dim)
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        mentions = batch.column("mention").to_pylist()
        scored = self.scorer.best(mentions, threshold=self.threshold)
        out_m, out_t, out_s = [], [], []
        for m, (tgt, s) in zip(mentions, scored):
            if tgt is not None:
                out_m.append(m)
                out_t.append(tgt)
                out_s.append(round(s, 6))
        return pa.table(
            {
                "mention": pa.array(out_m, type=pa.string()),
                "matched": pa.array(out_t, type=pa.string()),
                "score": pa.array(out_s, type=pa.float64()),
            }
        )


SCORE_SHARD_SCHEMA = pa.schema(
    [("mention", pa.string()), ("matched", pa.string()), ("score", pa.float64())]
)


def score_vocab_shard(
    batch: pa.Table,
    q_ref,
    mentions_ref,
    threshold: float,
    dim: int,
    mention_block: int = 4096,
) -> pa.Table:
    """One task of the DISTRIBUTED near-miss scoring plan: this batch is one
    vocabulary shard (any partition of the distinct vocabulary works — each
    word is scored exactly once globally and the per-mention merge takes the
    max). The mention trigram matrix ``q_ref`` is built once on the driver and
    read ZERO-COPY from the object store by every task (one copy per node, not
    per process); the shard matrix is built here from this batch's words.

    Emits at most one row per mention: the shard-local best match, kept only
    when its raw score clears ``threshold`` (the global best is the max of
    shard bests, so sub-threshold shard rows can never become the global
    winner — dropping them shrinks the merge exchange). Ties within the shard
    resolve to the lexicographically smallest word (the shard is sorted and
    argmax takes the first maximum), mirroring the broadcast plan's argmax
    over the sorted full vocabulary.

    Memory shape per task: shard matrix = shard_rows x dim x 8 B (64 MB at the
    8192 x 1024 default); the mention matmul is blocked at ``mention_block``
    rows so the sims buffer stays ~256 MB regardless of mention count.
    """
    import ray

    vocab = sorted(set(batch.column("k").to_pylist()))
    if not vocab:
        return SCORE_SHARD_SCHEMA.empty_table()
    q = ray.get(q_ref)  # (n_mentions, dim) float64, plasma-backed, read-only
    mentions = ray.get(mentions_ref)
    if not len(mentions):
        return SCORE_SHARD_SCHEMA.empty_table()
    mat_t = trigram_matrix(vocab, dim).T  # (dim, shard_rows)
    n = q.shape[0]
    best_idx = np.empty(n, dtype=np.int64)
    best_s = np.empty(n, dtype=np.float64)
    for s0 in range(0, n, mention_block):
        sims = q[s0 : s0 + mention_block] @ mat_t
        bi = sims.argmax(axis=1)
        best_idx[s0 : s0 + len(bi)] = bi
        best_s[s0 : s0 + len(bi)] = sims[np.arange(len(bi)), bi]
    keep = np.flatnonzero(best_s >= threshold)
    return pa.table(
        {
            "mention": pa.array([mentions[i] for i in keep], type=pa.string()),
            "matched": pa.array([vocab[best_idx[i]] for i in keep], type=pa.string()),
            "score": pa.array(best_s[keep], type=pa.float64()),
        }
    )
