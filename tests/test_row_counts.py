"""Row counts come from metadata: parquet footers for what ``kg.run`` wrote,
Ray block metadata for materialized datasets. These tests pin the counts
against the tables themselves, the vectorized partition kernel against
``part_of``, the partition set ``kg.run`` reads off its own checkpoint, and
the named errors for a null file key and an empty input."""

import os
import re
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from text_to_graph_ray.config import PipelineConfig
from text_to_graph_ray.state.checkpoint import CheckpointStore, part_ids, part_of, require_file_keys

CFG = PipelineConfig(num_partitions=8)


def _pq_rows(d: str) -> int:
    return pq.read_table(d).num_rows


def _assert_counts_match(out: str, counters: dict) -> None:
    store = CheckpointStore(f"{out}/checkpoints", CFG.config_hash())
    rec_dir = store.stage_dir("records")
    for p, meta in store.counters("records").items():
        d = os.path.join(rec_dir, f"part_id={p}")
        assert meta["rows"] == (_pq_rows(d) if os.path.isdir(d) else 0), p
    assert store.manifest("merged", 0)["rows"] == _pq_rows(store.stage_dir("merged"))
    assert counters["nodes"] == _pq_rows(f"{out}/nodes")
    assert counters["edges"] == _pq_rows(f"{out}/edges")


def test_run_counts_equal_written_tables(ray_session, small_corpus, tmp_path):
    from text_to_graph_ray.pipelines import kg

    out = str(tmp_path / "out")
    r1 = kg.run(small_corpus["path"], out, CFG)
    assert r1["parts_computed"] == r1["parts_total"] > 1
    _assert_counts_match(out, r1)

    store = CheckpointStore(f"{out}/checkpoints", CFG.config_hash())
    rows1 = {p: m["rows"] for p, m in store.counters("records").items()}
    killed = sorted(rows1)[: len(rows1) // 2]
    # the killed partitions' data files stay behind, as after a crash before
    # the manifest write: the resume must replace them, not add to them
    store.invalidate_parts("records", killed)
    r2 = kg.run(small_corpus["path"], out, CFG)
    assert r2["parts_computed"] == len(killed)
    _assert_counts_match(out, r2)
    assert {p: m["rows"] for p, m in store.counters("records").items()} == rows1
    assert (r2["nodes"], r2["edges"]) == (r1["nodes"], r1["edges"])


# ---------------------------------------------------------------------------
# part_ids == part_of, row for row
# ---------------------------------------------------------------------------

_ALPHABET = st.sampled_from(["a", "b", "é", "日", "\x00", "|", "/", ".", " ", "🙂"])
_TEXT = st.text(alphabet=_ALPHABET, max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(_TEXT, _TEXT), max_size=30).flatmap(
        # duplicate some pairs so distinct keys map back to several rows
        lambda ps: st.lists(st.sampled_from(ps), max_size=10).map(lambda extra: ps + extra) if ps else st.just(ps)
    ),
    n=st.sampled_from([1, 7, 64]),
    cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=3),
)
def test_part_ids_equals_part_of(pairs, n, cuts):
    repos = [r for r, _ in pairs]
    paths = [p for _, p in pairs]
    # the same rows as multi-chunk ChunkedArrays, chunked at the drawn cuts
    bounds = sorted({0, len(pairs), *(min(c, len(pairs)) for c in cuts)})
    spans = list(zip(bounds, bounds[1:])) or [(0, 0)]
    repo_col = pa.chunked_array([pa.array(repos[a:b], type=pa.string()) for a, b in spans], type=pa.string())
    path_col = pa.chunked_array([pa.array(paths[a:b], type=pa.string()) for a, b in spans], type=pa.string())
    want = [part_of(r, p, n) for r, p in pairs]
    got = part_ids(repo_col, path_col, n)
    assert isinstance(got, pa.Array) and got.type == pa.int64()
    assert got.to_pylist() == want
    assert part_ids(pa.array(repos, type=pa.string()), pa.array(paths, type=pa.string()), n).to_pylist() == want


# ---------------------------------------------------------------------------
# block_rows == per-block num_rows
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(sizes=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8))
def test_block_rows_equals_block_tables(ray_session, sizes):
    import ray
    import ray.data as rd

    from text_to_graph_ray.util import block_rows

    tables = [pa.table({"x": pa.array(range(n), type=pa.int64())}) for n in sizes]
    # one block per table, empty ones included; a filter empties more blocks
    mds = rd.from_arrow(tables).map_batches(
        lambda b: b.filter(pc.not_equal(b.column("x"), 1)), batch_format="pyarrow", batch_size=None
    ).materialize()
    got = block_rows(mds)
    assert [n for _, n in got] == [t.num_rows for t in ray.get(mds.to_arrow_refs())]
    assert sum(n for _, n in got) == sum(n - (n > 1) for n in sizes)


# ---------------------------------------------------------------------------
# a null file key is a named error on both entry points
# ---------------------------------------------------------------------------


def _two_file_corpus(tmp_path, null_col: str) -> str:
    cols = {
        "repo": ["r1", "r2"],
        "path": ["a.py", "b.py"],
        "commit": ["c", "c"],
        "lang": ["python", "python"],
        "content": ["def f():\n    pass\n", "def g():\n    f()\n"],
    }
    cols[null_col] = [cols[null_col][0], None]
    p = str(tmp_path / f"null_{null_col}.parquet")
    pq.write_table(pa.table(cols), p)
    return p


# Ray re-raises a worker's ValueError wrapped; its text keeps the type name
@pytest.mark.parametrize("col", ["repo", "path"])
def test_null_file_key_named_error_run(ray_session, tmp_path, col):
    from text_to_graph_ray.pipelines import kg

    with pytest.raises(Exception, match=f"ValueError: input column '{col}' has 1 null value"):
        kg.run(_two_file_corpus(tmp_path, col), str(tmp_path / "out"), CFG)


@pytest.mark.parametrize("col", ["repo", "path"])
def test_null_file_key_named_error_graph_tables(ray_session, tmp_path, col):
    from text_to_graph_ray.pipelines import kg

    with pytest.raises(Exception, match=f"ValueError: input column '{col}' has 1 null value"):
        nodes, _ = kg.graph_tables(_two_file_corpus(tmp_path, col), CFG, which="nodes")
        nodes.count()


def test_part_ids_null_raises_value_error():
    with pytest.raises(ValueError, match="input column 'path' has 1 null value"):
        part_ids(pa.array(["r", "r"]), pa.array(["a", None]), 8)


def test_empty_repo_named_error_run(ray_session, tmp_path):
    """An empty ``repo`` would be packed as "" and unpacked as no repo at
    all (``repos=[]``, or ``['', 'r1']`` next to another repo), so it is a
    named error like a null."""
    from text_to_graph_ray.pipelines import kg

    p = str(tmp_path / "empty_repo.parquet")
    cols = {"repo": ["r1", ""], "path": ["a.py", "b.py"], "commit": ["c", "c"], "lang": ["python", "python"]}
    pq.write_table(pa.table({**cols, "content": ["def f():\n    g()\n"] * 2}), p)
    with pytest.raises(Exception, match="ValueError: input column 'repo' has 1 empty value"):
        kg.run(p, str(tmp_path / "out"), CFG)
    with pytest.raises(ValueError, match="input column 'repo' has 2 empty value"):
        require_file_keys(pa.chunked_array([["", "r"], [""]]), pa.chunked_array([["a", "b"], ["c"]]))


# ---------------------------------------------------------------------------
# the partition set comes from the checkpoint, not from a scan of the input
# ---------------------------------------------------------------------------


def test_noop_rerun_reads_nothing(ray_session, small_corpus, tmp_path, monkeypatch):
    from text_to_graph_ray.pipelines import kg

    out = str(tmp_path / "out")
    r1 = kg.run(small_corpus["path"], out, CFG)
    store = CheckpointStore(f"{out}/checkpoints", CFG.config_hash())
    assert store.manifest("graph", 0)["parts"] == r1["parts_total"]

    def no_read(*args, **kwargs):
        raise AssertionError("a no-op rerun read parquet")

    monkeypatch.setattr(kg, "read_parquet_clean", no_read)
    r2 = kg.run(small_corpus["path"], out, CFG)
    assert r2 == {**r1, "parts_skipped": r1["parts_total"], "parts_computed": 0}


_EDGE_FILES = [
    ("o/r", "src/empty.py", "python", ""),
    ("o/r", "src/null.py", "python", None),
    ("o/r", "README", None, "some text. more text."),
    ("o/r", "prog.cob", "cobol", "IDENTIFICATION DIVISION."),
    ("o/r", "src/pkg/mod.py", "python", "def f():\n    g()\n"),
]


@pytest.mark.parametrize(
    "cfg", [CFG, PipelineConfig.high_resolution(num_partitions=8)], ids=["single_pass", "two_pass"]
)
def test_every_file_yields_a_record(ray_session, cfg):
    """``kg.run`` takes the computed partitions from the directories its
    records write created, so every input file must yield a record."""
    import ray.data as rd

    from text_to_graph_ray.pipelines import kg

    cols = ["repo", "path", "lang", "content"]
    files = pa.table({c: pa.array([f[i] for f in _EDGE_FILES], type=pa.string()) for i, c in enumerate(cols)})
    records = kg.extract_chain(rd.from_arrow(files), cfg).to_pandas()
    assert set(zip(records["repo"], records["path"])) == {(f[0], f[1]) for f in _EDGE_FILES}


def test_graph_rebuild_recomputes_no_partition(ray_session, small_corpus, tmp_path):
    from text_to_graph_ray.pipelines import kg

    out = str(tmp_path / "out")
    r1 = kg.run(small_corpus["path"], out, CFG)
    store = CheckpointStore(f"{out}/checkpoints", CFG.config_hash())
    store.invalidate_parts("graph", [0])
    shutil.rmtree(f"{out}/nodes")
    r2 = kg.run(small_corpus["path"], out, CFG)
    clean = kg.run(small_corpus["path"], str(tmp_path / "clean"), CFG)
    assert r2 == {**clean, "parts_skipped": clean["parts_total"], "parts_computed": 0}
    assert r1 == clean
    _assert_counts_match(out, r2)


def test_empty_input_named_error(ray_session, tmp_path):
    from text_to_graph_ray.pipelines import kg

    p = str(tmp_path / "empty.parquet")
    cols = ["repo", "path", "commit", "lang", "content"]
    pq.write_table(pa.table({c: pa.array([], type=pa.string()) for c in cols}), p)
    with pytest.raises(ValueError, match=re.escape(f"input '{p}' has no rows")):
        kg.run(p, str(tmp_path / "out"), CFG)
    nodes, edges = kg.graph_tables(p, CFG)
    assert (nodes.count(), edges.count()) == (0, 0)
