"""Two-pass (L1 mentions -> L2 triples) mode + viewer sink + CLI entrypoint."""

import os

import pyarrow as pa


def test_extract_mentions_rows():
    from text_to_graph_ray.stages.extract import extract_records

    batch = pa.table(
        {
            "repo": ["r"],
            "path": ["src/m.py"],
            "content_sha256": ["h"],
            "chunk_index": [0],
            "lang": ["python"],
            "text": ["def g(x):\n    y = f(x)\n    return y\n"],
        }
    )
    out = extract_records(batch).to_pylist()
    mentions = {(r["a"], r["b"]) for r in out if r["kind"] == "node"}
    assert ("g", "Function") in mentions and ("f", "Function") in mentions
    assert ("r/src/m.py", "File") in mentions


def test_mention_consistency_filter_drops_unhinted_edges():
    from text_to_graph_ray.stages.extract import mention_consistency_filter

    rows = {
        "repo": ["r"] * 4,
        "path": ["p"] * 4,
        "content_sha256": ["h"] * 4,
        "chunk_index": [0] * 4,
        "ord": [0, 1, 2, 3],
        "kind": ["node", "node", "edge", "edge"],
        "a": ["A", "B", "A", "A"],
        "b": ["T", "T", "rel", "rel2"],
        "c": ["", "", "B", "GHOST"],  # GHOST not in the chunk's mention set
    }
    out = mention_consistency_filter(pa.table(rows))
    kinds = out.column("kind").to_pylist()
    cs = out.column("c").to_pylist()
    assert kinds.count("edge") == 1 and "GHOST" not in cs


def test_two_pass_pipeline_matches_single_pass(ray_session, small_corpus):
    """Our extractor emits every endpoint as a node record, so the L2 gate is
    a no-op on well-formed corpora: two-pass output == single-pass output
    (subset property of the reference's high-res mode, trivially tight)."""
    from text_to_graph_ray.config import PipelineConfig
    from text_to_graph_ray.pipelines import kg

    one = kg.graph_tables(small_corpus["path"], PipelineConfig(), which="edges")[1].to_pandas()
    two = kg.graph_tables(small_corpus["path"], PipelineConfig(two_pass=True), which="edges")[1].to_pandas()
    assert one.equals(two)


def test_viewer_html_roundtrip(tmp_path):
    import base64
    import json
    import zlib

    import pandas as pd

    from text_to_graph_ray.pipelines.viewer import write_graph_html

    nodes = pd.DataFrame({"entity_key": ["a"], "label": ["A"]})
    edges = pd.DataFrame({"src_key": ["a"], "pred": ["p"], "dst_key": ["a"]})
    path = write_graph_html(nodes, edges, str(tmp_path / "g.html"), title="t<>&")
    doc = open(path).read()
    assert "t&lt;&gt;&amp;" in doc
    b64 = doc.split('NODES_B64 = "')[1].split('"')[0]
    rows = json.loads(zlib.decompress(base64.b64decode(b64)))
    assert rows == [{"entity_key": "a", "label": "A"}]


def test_cli_run(ray_session, small_corpus, tmp_path):
    from text_to_graph_ray.run import main

    out = str(tmp_path / "out")
    rc = main(["--input", small_corpus["path"], "--out", out, "--partitions", "8", "--html", str(tmp_path / "g.html")])
    assert rc == 0
    assert os.path.isdir(f"{out}/nodes") and os.path.isdir(f"{out}/edges")
    assert os.path.exists(str(tmp_path / "g.html"))
