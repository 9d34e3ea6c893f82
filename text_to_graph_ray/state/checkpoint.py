"""Per-partition checkpoint manifests — the resume contract.

Replaces the reference's fine-grained SQLite response cache keyed
``(document_id, chunk_index, config_id)`` (/root/reference/graph_extractor/src/
sqlite_support.py:275-423, skip checks graph_generator.py:183,227,260) with a
coarse per-partition layout suited to distributed object-store execution:

    <root>/<config_hash>/<stage>/part=<k>/...parquet      (stage data)
    <root>/<config_hash>/_manifest/<stage>/part-<k>.json  (completion marker)

A partition is "done" iff its manifest row exists; manifest rows are written
only after the stage's data write returns, so a killed run leaves at worst
orphan data files that the resumed run overwrites-by-recompute (the idempotent
upsert analogue of sqlite_support.py:333-423). Resume = anti-join of partition
ids against the manifest (J3 in SURVEY §2.4). Each row carries lineage +
counters (config_hash, input fingerprint, row counts, wall ms) — the
per-partition lineage/metrics requirement of the north rule.
"""

from __future__ import annotations

import json
import os
import zlib

import pyarrow as pa
import pyarrow.compute as pc


def _part_of_key(key: str, num_partitions: int) -> int:
    return zlib.crc32(key.encode("utf-8")) % num_partitions


def part_of(repo: str, path: str, num_partitions: int) -> int:
    """Stable partition id of a file row (crc32 — process-independent)."""
    return _part_of_key(f"{repo}\x00{path}", num_partitions)


def _require_non_null(repo, path) -> None:
    for name, col in (("repo", repo), ("path", path)):
        if col.null_count:
            raise ValueError(
                f"input column {name!r} has {col.null_count} null value(s); every file row needs a repo and a path"
            )


def require_file_keys(repo, path) -> None:
    """Raise a ``ValueError`` naming the column when ``repo`` or ``path``
    holds a null, or ``repo`` an empty string: a file row's partition,
    provenance and entity keys are all built from the pair, and provenance
    packs repos as a ``|``-joined set in which "" is no repo at all."""
    _require_non_null(repo, path)
    if empty := pc.sum(pc.equal(repo, "")).as_py():
        raise ValueError(f"input column 'repo' has {empty} empty value(s); every file row needs a non-empty repo")


def part_ids(repo, path, num_partitions: int) -> pa.Array:
    """``part_of`` over Arrow columns, row for row: crc32 runs once per
    DISTINCT ``repo\\x00path`` of the batch (every extracted record of a file
    shares its file's key) and is mapped back with ``index_in`` + ``take``.
    Defined for every non-null pair, empty strings included; the input
    contract is ``require_file_keys``."""
    _require_non_null(repo, path)
    keys = pc.binary_join_element_wise(repo.cast(pa.string()), path.cast(pa.string()), "\x00")
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    distinct = pc.unique(keys)
    ids = pa.array([_part_of_key(k, num_partitions) for k in distinct.to_pylist()], type=pa.int64())
    return ids.take(pc.index_in(keys, value_set=distinct))


def input_fingerprint(input_path: str) -> str:
    """Content-change fingerprint of an input path: digest over the sorted
    (relative name, size, mtime_ns) of every parquet file under it. Cheap
    (metadata only — no data read) yet catches replaced/appended/removed
    inputs, so a resume against changed data recomputes instead of silently
    reusing stale partitions (the reference keyed its cache on content sha —
    my_hash.py; size+mtime is the metadata-cost analogue)."""
    import hashlib
    import os

    entries = []
    if os.path.isdir(input_path):
        for root, _, names in os.walk(input_path):
            for n in sorted(names):
                if n.endswith(".parquet"):
                    p = os.path.join(root, n)
                    st = os.stat(p)
                    entries.append(f"{os.path.relpath(p, input_path)}\x00{st.st_size}\x00{st.st_mtime_ns}")
    elif os.path.exists(input_path):
        st = os.stat(input_path)
        entries.append(f"{os.path.basename(input_path)}\x00{st.st_size}\x00{st.st_mtime_ns}")
    entries.sort()
    return hashlib.sha256("\n".join(entries).encode("utf-8")).hexdigest()[:16]


_COMPACTED = "compacted.json"
_TOUCH = "_last_used"


def gc_config_roots(root: str, keep_last: int = 3, current: str | None = None) -> list[str]:
    """Drop all but the ``keep_last`` most-recently-used config-hash dirs
    under ``root`` (the ``current`` hash is always kept). A long-lived run
    that iterates on PipelineConfig accumulates one full stage tree per
    config_hash; at 100-TB scale those are terabytes of dead parquet.
    Recency = mtime of the ``_last_used`` marker each CheckpointStore
    touches on open (dir mtime fallback for pre-marker trees). Returns the
    removed dir names (for counters/logging)."""
    import shutil

    if not os.path.isdir(root):
        return []
    cands = []
    for name in os.listdir(root):
        d = os.path.join(root, name)
        if not os.path.isdir(d):
            continue
        marker = os.path.join(d, _TOUCH)
        try:
            mt = os.stat(marker).st_mtime_ns if os.path.exists(marker) else os.stat(d).st_mtime_ns
        except OSError:
            continue
        cands.append((mt, name))
    cands.sort(reverse=True)
    keep = {name for _, name in cands[: max(keep_last, 0)]}
    if current is not None:
        keep.add(current)
    removed = []
    for _, name in cands:
        if name not in keep:
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
            removed.append(name)
    return removed


class CheckpointStore:
    def __init__(self, root: str, config_hash: str):
        self.base = os.path.join(root, config_hash)
        self.config_hash = config_hash
        os.makedirs(self.base, exist_ok=True)
        # recency marker for gc_config_roots (touch on every open)
        with open(os.path.join(self.base, _TOUCH), "w") as f:
            f.write("")

    def stage_dir(self, stage: str) -> str:
        d = os.path.join(self.base, stage)
        os.makedirs(d, exist_ok=True)
        return d

    def _manifest_dir(self, stage: str) -> str:
        d = os.path.join(self.base, "_manifest", stage)
        os.makedirs(d, exist_ok=True)
        return d

    def _compacted_rows(self, stage: str) -> dict[int, dict]:
        p = os.path.join(self._manifest_dir(stage), _COMPACTED)
        if not os.path.exists(p):
            return {}
        with open(p) as f:
            return {int(k): v for k, v in json.load(f).items()}

    def _rows(self, stage: str) -> tuple[dict[int, dict], list[str]]:
        """Every manifest row of a stage — the compacted snapshot, read once,
        overlaid with the individual rows — and the individual files' names."""
        d = self._manifest_dir(stage)
        rows = self._compacted_rows(stage)
        singles = [f for f in os.listdir(d) if f.startswith("part-") and f.endswith(".json")]
        for fname in singles:
            with open(os.path.join(d, fname)) as f:
                rows[int(fname[5:-5])] = json.load(f)
        return rows, singles

    def done_parts(self, stage: str) -> set[int]:
        return set(self.counters(stage))

    def manifest(self, stage: str, part: int) -> dict | None:
        # an individual row is always newer than the compacted snapshot
        # (mark_done keeps writing individual files after a compaction)
        p = os.path.join(self._manifest_dir(stage), f"part-{part}.json")
        if os.path.exists(p):
            with open(p) as f:
                return json.load(f)
        return self._compacted_rows(stage).get(part)

    def compact_stage(self, stage: str) -> int:
        """Fold every individual part-<k>.json into one compacted.json and
        delete the individual files. At 100-TB scale a stage has 10^5-10^6
        partitions; one metadata read per resume beats one stat+read per
        partition, and the manifest dir stops growing unboundedly. mark_done
        stays append-only (atomic individual files); overlay order keeps
        individual rows authoritative until the next compaction. Returns the
        number of rows in the compacted snapshot."""
        d = self._manifest_dir(stage)
        rows, singles = self._rows(stage)
        tmp = os.path.join(d, _COMPACTED + ".tmp")
        with open(tmp, "w") as f:
            json.dump({str(k): v for k, v in rows.items()}, f)
        os.replace(tmp, os.path.join(d, _COMPACTED))
        # snapshot durable -> individual rows are redundant; drop them
        for fname in singles:
            try:
                os.remove(os.path.join(d, fname))
            except OSError:
                pass
        return len(rows)

    def invalidate_parts(self, stage: str, parts) -> None:
        """Forget completion of specific partitions (force recompute on the
        next resume) — removes their individual rows AND their rows in the
        compacted snapshot. The targeted-recompute analogue of the
        reference's per-document cache delete (sqlite_support.py:492-531)."""
        parts = set(int(p) for p in parts)
        d = self._manifest_dir(stage)
        for p in parts:
            try:
                os.remove(os.path.join(d, f"part-{p}.json"))
            except OSError:
                pass
        rows = self._compacted_rows(stage)
        kept = {k: v for k, v in rows.items() if k not in parts}
        if len(kept) != len(rows):
            cp = os.path.join(d, _COMPACTED)
            if kept:
                tmp = cp + ".tmp"
                with open(tmp, "w") as f:
                    json.dump({str(k): v for k, v in kept.items()}, f)
                os.replace(tmp, cp)
            else:
                os.remove(cp)

    def compact(self) -> dict[str, int]:
        """Compact every stage that has a manifest dir."""
        mroot = os.path.join(self.base, "_manifest")
        if not os.path.isdir(mroot):
            return {}
        return {s: self.compact_stage(s) for s in sorted(os.listdir(mroot))}

    def mark_done(self, stage: str, part: int, **meta) -> None:
        p = os.path.join(self._manifest_dir(stage), f"part-{part}.json")
        tmp = p + ".tmp"
        row = {"partition_id": part, "stage": stage, "config_hash": self.config_hash, **meta}
        with open(tmp, "w") as f:
            json.dump(row, f)
        os.replace(tmp, p)  # atomic: a manifest row either exists fully or not at all

    def counters(self, stage: str) -> dict[int, dict]:
        """Manifest row per done partition, from one read of the snapshot."""
        return self._rows(stage)[0]

    def clear_stage(self, stage: str) -> None:
        """Drop a stage's data + manifests entirely (stale-input invalidation:
        leftover data files from partitions that no longer exist in the new
        input must not leak into reads of the stage dir)."""
        import shutil

        shutil.rmtree(os.path.join(self.base, stage), ignore_errors=True)
        shutil.rmtree(os.path.join(self.base, "_manifest", stage), ignore_errors=True)
