"""Checkpoint/resume semantics (FIXTURES.md F6): interrupted runs resume
without recomputing completed partitions; outputs are byte-identical."""

import os
import shutil

import pandas as pd
import pytest


def _read_sorted(d):
    import glob

    import pyarrow.parquet as pq

    parts = [pq.read_table(f).to_pandas() for f in sorted(glob.glob(f"{d}/**/*.parquet", recursive=True))]
    df = pd.concat(parts, ignore_index=True)
    cols = [c for c in ("entity_key", "src_key", "pred", "dst_key") if c in df.columns]
    return df.sort_values(cols).reset_index(drop=True)


@pytest.fixture(scope="module")
def cfg():
    from text_to_graph_ray.config import PipelineConfig

    return PipelineConfig(num_partitions=8)


def test_full_run_then_resume_noop(ray_session, small_corpus, cfg, tmp_path_factory):
    from text_to_graph_ray.pipelines import kg

    out = str(tmp_path_factory.mktemp("ckpt"))
    r1 = kg.run(small_corpus["path"], out, cfg)
    assert r1["parts_computed"] > 0
    assert r1["edges"] > 0

    r2 = kg.run(small_corpus["path"], out, cfg)
    assert r2["parts_computed"] == 0
    assert r2["parts_skipped"] == r1["parts_total"]
    assert (r2["nodes"], r2["edges"]) == (r1["nodes"], r1["edges"])


def test_partial_resume_recomputes_only_missing(ray_session, small_corpus, cfg, tmp_path_factory):
    from text_to_graph_ray.pipelines import kg
    from text_to_graph_ray.state.checkpoint import CheckpointStore

    out = str(tmp_path_factory.mktemp("ckpt2"))
    r1 = kg.run(small_corpus["path"], out, cfg)
    edges_before = _read_sorted(f"{out}/edges")
    nodes_before = _read_sorted(f"{out}/nodes")

    store = CheckpointStore(f"{out}/checkpoints", cfg.config_hash())
    done = sorted(store.done_parts("records"))
    killed = done[: len(done) // 2]
    # simulate losing half the partitions (a completed run compacts its
    # manifest, so forgetting goes through the store API, not file removal)
    store.invalidate_parts("records", killed)
    for p in killed:
        shutil.rmtree(os.path.join(store.stage_dir("records"), f"part_id={p}"), ignore_errors=True)
    survivor_meta = {p: store.manifest("records", p) for p in done if p not in killed}

    r2 = kg.run(small_corpus["path"], out, cfg)
    assert r2["parts_computed"] == len(killed)
    assert r2["parts_skipped"] == len(done) - len(killed)
    # completed partitions were not recomputed: their manifest rows (which
    # carry the writing run's wall_ms) are byte-identical after the resume
    for p, meta in survivor_meta.items():
        assert store.manifest("records", p) == meta

    assert _read_sorted(f"{out}/edges").equals(edges_before)
    assert _read_sorted(f"{out}/nodes").equals(nodes_before)


def test_config_change_invalidates_cache(ray_session, small_corpus, tmp_path_factory):
    from text_to_graph_ray.config import PipelineConfig
    from text_to_graph_ray.pipelines import kg

    out = str(tmp_path_factory.mktemp("ckpt3"))
    c1 = PipelineConfig(num_partitions=4)
    c2 = PipelineConfig(num_partitions=4, chunk_size=300)  # the "high" preset
    kg.run(small_corpus["path"], out, c1)
    r = kg.run(small_corpus["path"], out, c2)
    assert r["parts_computed"] > 0  # different config_hash -> no reuse
    assert c1.config_hash() != c2.config_hash()


def test_config_switch_back_rewrites_shared_sink(ray_session, small_corpus, cfg, tmp_path_factory):
    """run(A), run(B), run(A) on one out_dir: every config hash writes the
    same nodes/ and edges/, so the third call must restore A's graph (from
    A's merged checkpoint, no re-extraction) rather than report A's counters
    over B's tables."""
    import dataclasses

    from text_to_graph_ray.pipelines import kg

    clean = str(tmp_path_factory.mktemp("clean_a"))
    ref = kg.run(small_corpus["path"], clean, cfg)

    out = str(tmp_path_factory.mktemp("a_b_a"))
    kg.run(small_corpus["path"], out, cfg)
    b = kg.run(small_corpus["path"], out, dataclasses.replace(cfg, link_aliases=False))
    assert (b["nodes"], b["edges"]) != (ref["nodes"], ref["edges"])  # B really is another graph
    r3 = kg.run(small_corpus["path"], out, cfg)

    assert r3["parts_computed"] == 0
    assert (r3["nodes"], r3["edges"]) == (ref["nodes"], ref["edges"])
    for t in ("nodes", "edges"):
        assert _read_sorted(f"{out}/{t}").equals(_read_sorted(f"{clean}/{t}"))
    # and a fourth call is a true no-op again
    r4 = kg.run(small_corpus["path"], out, cfg)
    assert r4 == r3


def test_part_of_stable():
    from text_to_graph_ray.state.checkpoint import part_of

    assert part_of("r", "p", 64) == part_of("r", "p", 64)
    assert 0 <= part_of("acme/web", "src/a.py", 64) < 64


def _corpus_by_partition(n_parts: int, per_part: int) -> dict[int, list[dict]]:
    """``per_part`` small python files in each of ``n_parts`` partitions."""
    from text_to_graph_ray.state.checkpoint import part_of

    by_part: dict[int, list[dict]] = {p: [] for p in range(n_parts)}
    i = 0
    while any(len(v) < per_part for v in by_part.values()):
        f = {"repo": "o/r", "path": f"src/m{i}.py", "commit": "c", "lang": "python"}
        f["content"] = f"def f{i}():\n    g{i}()\n"
        bucket = by_part[part_of(f["repo"], f["path"], n_parts)]
        if len(bucket) < per_part:
            bucket.append(f)
        i += 1
    return by_part


def _write_files(path: str, files: list[dict]) -> str:
    import pyarrow as pa
    import pyarrow.parquet as pq

    cols = ["repo", "path", "commit", "lang", "content"]
    pq.write_table(pa.table({c: [f[c] for f in files] for c in cols}), path)
    return path


def test_no_resume_drops_other_inputs_partitions(ray_session, tmp_path):
    """``resume=False`` over an output dir built from a bigger input must
    not merge that input's other partitions into the new graph."""
    from text_to_graph_ray.config import PipelineConfig
    from text_to_graph_ray.pipelines import kg

    cfg = PipelineConfig(num_partitions=4)
    by_part = _corpus_by_partition(4, 2)
    a = _write_files(str(tmp_path / "a.parquet"), [f for fs in by_part.values() for f in fs])
    b = _write_files(str(tmp_path / "b.parquet"), by_part[0])
    out = str(tmp_path / "out")
    assert kg.run(a, out, cfg)["parts_computed"] == 4
    r = kg.run(b, out, cfg, resume=False)
    clean = kg.run(b, str(tmp_path / "clean"), cfg)
    assert r == clean
    assert _read_sorted(f"{out}/nodes").equals(_read_sorted(f"{tmp_path}/clean/nodes"))
    assert _read_sorted(f"{out}/edges").equals(_read_sorted(f"{tmp_path}/clean/edges"))


def test_counters_read_the_compacted_snapshot_once(tmp_path, monkeypatch):
    """``counters`` over a compacted stage of 2,560 partitions opens
    ``compacted.json`` once, not once per partition, and the individual rows
    written after the compaction still win over the snapshot's."""
    import builtins

    from text_to_graph_ray.state.checkpoint import CheckpointStore

    store = CheckpointStore(str(tmp_path), "cfg")
    for p in range(2560):
        store.mark_done("records", p, rows=p)
    store.compact()
    store.mark_done("records", 7, rows=-1)
    opened = []
    real_open = builtins.open

    def counting_open(path, *args, **kwargs):
        opened.append(os.path.basename(str(path)))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    got = store.counters("records")
    monkeypatch.undo()
    assert opened.count("compacted.json") == 1
    assert len(got) == 2560 and got[7]["rows"] == -1 and got[9]["rows"] == 9
