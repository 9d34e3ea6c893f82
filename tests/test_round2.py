"""Round-2 additions: shuffle-join linking fallback equivalence, checkpoint
input-fingerprint invalidation, mid-run worker-crash resilience (A4), the
hand-computed KG fixture, the conformance-parse Dataset surface, and the
distributed dedup rewrites' edge cases."""

import os
import shutil

import pandas as pd
import pyarrow as pa
import pytest

NODE_COLS = ["entity_id", "entity_key", "label", "types_packed", "repos_packed"]
EDGE_COLS = ["src_key", "pred", "dst_key", "repos_packed"]


def _sorted(df, cols):
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_distributed_linking_matches_broadcast(ray_session, small_corpus, monkeypatch):
    """Forcing kg.DEFS_BROADCAST_MAX to 0 routes linking through the
    shuffle-join fallback; the graph must be value-identical to the broadcast
    path."""
    from text_to_graph_ray.config import PipelineConfig
    from text_to_graph_ray.pipelines import kg

    n1, e1 = kg.graph_tables(small_corpus["path"], PipelineConfig(num_partitions=8))
    monkeypatch.setattr(kg, "DEFS_BROADCAST_MAX", 0)
    n2, e2 = kg.graph_tables(small_corpus["path"], PipelineConfig(num_partitions=8))
    assert _sorted(n1.to_pandas(), NODE_COLS).equals(_sorted(n2.to_pandas(), NODE_COLS))
    assert _sorted(e1.to_pandas(), EDGE_COLS).equals(_sorted(e2.to_pandas(), EDGE_COLS))


def test_input_change_invalidates_checkpoint(ray_session, small_corpus, tmp_path_factory):
    """Resume against changed input data must recompute, not reuse stale
    partitions (the reference keyed its cache on content sha)."""
    from text_to_graph_ray.config import PipelineConfig
    from text_to_graph_ray.pipelines import kg

    cfg = PipelineConfig(num_partitions=8)
    d = tmp_path_factory.mktemp("fpin")
    inp = str(d / "input.parquet")
    shutil.copyfile(small_corpus["path"], inp)
    out = str(tmp_path_factory.mktemp("fpout"))

    r1 = kg.run(inp, out, cfg)
    r2 = kg.run(inp, out, cfg)
    assert r2["parts_computed"] == 0  # clean resume is still a no-op

    os.utime(inp, None)  # same bytes, new mtime -> new fingerprint
    r3 = kg.run(inp, out, cfg)
    assert r3["parts_computed"] == r1["parts_total"]
    assert (r3["nodes"], r3["edges"]) == (r1["nodes"], r1["edges"])


def test_merged_checkpoint_resumes_final_sink(ray_session, small_corpus, tmp_path_factory):
    """A run that died between the canonicalization shuffle and the final
    sink resumes from the merged-graph checkpoint (no re-shuffle): the merged
    manifest survives and the rebuilt outputs are identical."""
    import glob

    import pyarrow.parquet as pq

    from text_to_graph_ray.config import PipelineConfig
    from text_to_graph_ray.pipelines import kg
    from text_to_graph_ray.state.checkpoint import CheckpointStore

    cfg = PipelineConfig(num_partitions=8)
    out = str(tmp_path_factory.mktemp("mergedck"))
    r1 = kg.run(small_corpus["path"], out, cfg)

    def read_edges():
        parts = [pq.read_table(f).to_pandas() for f in sorted(glob.glob(f"{out}/edges/**/*.parquet", recursive=True))]
        df = pd.concat(parts, ignore_index=True)
        cols = ["src_key", "pred", "dst_key"]
        return df[cols].sort_values(cols).reset_index(drop=True)

    edges1 = read_edges()
    store = CheckpointStore(f"{out}/checkpoints", cfg.config_hash())
    # simulate dying after the merge but before the sink: graph manifest +
    # outputs gone, merged checkpoint intact
    store.invalidate_parts("graph", [0])
    shutil.rmtree(f"{out}/nodes")
    shutil.rmtree(f"{out}/edges")
    merged_files_before = sorted(os.listdir(store.stage_dir("merged")))

    r2 = kg.run(small_corpus["path"], out, cfg)
    assert (r2["nodes"], r2["edges"]) == (r1["nodes"], r1["edges"])
    assert r2["parts_computed"] == 0  # extraction untouched
    assert sorted(os.listdir(store.stage_dir("merged"))) == merged_files_before  # merged NOT recomputed
    assert read_edges().equals(edges1)


def test_worker_crash_mid_extraction_recovers(ray_session, small_corpus, tmp_path_factory, monkeypatch):
    """A4: a worker dying mid-task (os._exit — a real process crash, not a
    python exception) is retried by Ray and the checkpointed run completes
    with the same counters as a clean run."""
    from text_to_graph_ray.config import PipelineConfig
    from text_to_graph_ray.pipelines import kg
    from text_to_graph_ray.stages.extract import extract_records

    cfg = PipelineConfig(num_partitions=8)
    clean_out = str(tmp_path_factory.mktemp("clean"))
    r_clean = kg.run(small_corpus["path"], clean_out, cfg)

    flag = str(tmp_path_factory.mktemp("flag") / "crashed_once")

    def flaky_extract(batch):
        if not os.path.exists(flag):
            try:
                with open(flag, "x") as f:
                    f.write("x")
                os._exit(1)  # first task to get here kills its worker process
            except FileExistsError:
                pass
        return extract_records(batch)

    monkeypatch.setattr(kg, "extract_records", flaky_extract)
    crash_out = str(tmp_path_factory.mktemp("crash"))
    r_crash = kg.run(small_corpus["path"], crash_out, cfg)
    assert os.path.exists(flag), "fault was never injected"
    assert (r_crash["nodes"], r_crash["edges"]) == (r_clean["nodes"], r_clean["edges"])
    assert r_crash["parts_computed"] == r_clean["parts_computed"]


def test_kg_fixture_hand_computed(ray_session):
    """Engine output vs the hand-written fixture tables (no generator code on
    the expected side — closes the shared-keys.py oracle loop)."""
    import pyarrow.parquet as pq

    from text_to_graph_ray.fixtures import ensure_fixture
    from text_to_graph_ray.pipelines import kg

    d = ensure_fixture()
    nodes, edges = kg.graph_tables(f"{d}/repo_files.parquet")
    exp_n = pq.read_table(f"{d}/expected_nodes.parquet").to_pandas()
    exp_e = pq.read_table(f"{d}/expected_triples.parquet").to_pandas()
    assert _sorted(nodes.to_pandas(), NODE_COLS).equals(_sorted(exp_n, NODE_COLS))
    assert _sorted(edges.to_pandas(), EDGE_COLS).equals(_sorted(exp_e, EDGE_COLS))


def test_conformance_parse_dataset_surface(ray_session):
    """parse_replies over a Dataset reproduces the hand-written expected
    outcomes for every adversarial reply case."""
    import ray.data as rd

    from text_to_graph_ray.expected import ensure_conformance_expected
    from text_to_graph_ray.stages.conformance import parse_replies

    d = ensure_conformance_expected()
    got = (
        rd.read_parquet(f"{d}/replies.parquet")
        .map_batches(parse_replies, batch_format="pyarrow")
        .sort("reply_id")
        .to_pandas()
    )
    import pyarrow.parquet as pq

    want = pq.read_table(f"{d}/expected_parse.parquet").to_pandas()
    cols = ["reply_id", "status", "n_nodes", "n_edges", "nodes_packed", "edges_packed"]
    assert _sorted(got, cols).equals(_sorted(want, cols))


def test_verified_near_dup_empty_candidates(ray_session):
    """No candidates at an extreme threshold -> empty dataset with the full
    pair schema (join path must not blow up on an empty left side)."""
    import ray.data as rd

    from text_to_graph_ray.functions.dedup import verified_near_dup_pairs

    docs = rd.from_items([{"doc_id": i, "text": f"totally unique document number {i} " + "x" * i} for i in range(8)])
    out = verified_near_dup_pairs(docs, threshold=0.99)
    # NOTE: Dataset.to_pandas() drops columns for 0-row datasets (Ray builds
    # the frame from batches); the schema contract lives on the Dataset
    assert out.schema().names == ["a", "b", "est_jaccard", "jaccard"]
    assert out.count() == 0


def test_minhash_signature_join_matches_ridealong(ray_session):
    """signature_join=True (ids-only band rows + signature hash join) must be
    value-identical to the default ride-along plan."""
    import ray.data as rd

    from text_to_graph_ray.functions.dedup import minhash_near_dup_pairs

    sf = "/root/testdata/sf0.001"
    docs = rd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    a = minhash_near_dup_pairs(docs, threshold=0.3).to_pandas()
    docs = rd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    b = minhash_near_dup_pairs(docs, threshold=0.3, signature_join=True).to_pandas()
    cols = ["a", "b", "est_jaccard"]
    assert len(a) > 0
    assert _sorted(a, cols).equals(_sorted(b, cols))


def test_survivors_distributed_matches_unionfind(ray_session):
    """cc_collect_max=0 forces the label-propagation path; it must equal the
    driver union-find path and the naive expected survivors."""
    import ray.data as rd

    from text_to_graph_ray.functions.dedup import near_dup_survivors

    sf = "/root/testdata/sf0.001"
    docs = rd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    a = near_dup_survivors(docs, threshold=0.5).to_pandas()
    docs = rd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    b = near_dup_survivors(docs, threshold=0.5, cc_collect_max=0).to_pandas()
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))
    assert len(a) > 0
