"""Score the tables ``kg.run`` wrote against the generator oracle.

Reads ``<out>/nodes`` and ``<out>/edges`` with pyarrow directly (never the
return value of ``kg.run``), so what is scored is what a user would read.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

EDGE_KEY = ["src_key", "pred", "dst_key"]


def _packed(col: pa.ChunkedArray) -> list[str]:
    """list<string> column -> the oracle's sorted '|'-joined form."""
    return ["|".join(sorted(v)) if v else "" for v in col.to_pylist()]


def read_graph(out_dir: str) -> tuple[pa.Table, pa.Table]:
    """The written (nodes, edges), lists packed as in the oracle, sorted."""
    nodes = pq.read_table(os.path.join(out_dir, "nodes"))
    edges = pq.read_table(os.path.join(out_dir, "edges"))
    nodes = pa.table(
        {
            "entity_id": nodes.column("entity_id").cast(pa.int64()),
            "entity_key": nodes.column("entity_key"),
            "label": nodes.column("label"),
            "types_packed": _packed(nodes.column("types")),
            "repos_packed": _packed(nodes.column("repos")),
        }
    ).sort_by("entity_key")
    edges = pa.table(
        {
            "src_key": edges.column("src_key"),
            "pred": edges.column("pred"),
            "dst_key": edges.column("dst_key"),
            "repos_packed": _packed(edges.column("repos")),
        }
    ).sort_by([(c, "ascending") for c in EDGE_KEY])
    return nodes, edges


def content_hash(nodes: pa.Table, edges: pa.Table) -> str:
    """Digest of the sorted nodes and edges content, every column."""
    h = hashlib.sha256()
    for t in (nodes, edges):
        for name in t.column_names:
            h.update(name.encode())
            for v in t.column(name).to_pylist():
                h.update(f"{v}\x1f".encode())
    return h.hexdigest()


def _pr(got: set, want: set) -> tuple[float, float]:
    hit = len(got & want)
    precision = hit / len(got) if got else float(not want)
    recall = hit / len(want) if want else 1.0
    return precision, recall


def score(nodes: pa.Table, edges: pa.Table, exp_nodes: pa.Table, exp_edges: pa.Table) -> dict:
    """Precision/recall of the edge triples and node keys, and whether every
    column (ids, labels, types, repos) matches the oracle exactly."""
    got_t = set(zip(*(edges.column(c).to_pylist() for c in EDGE_KEY)))
    want_t = set(zip(*(exp_edges.column(c).to_pylist() for c in EDGE_KEY)))
    tp, tr = _pr(got_t, want_t)
    np_, nr = _pr(set(nodes.column("entity_key").to_pylist()), set(exp_nodes.column("entity_key").to_pylist()))
    want_n = exp_nodes.select(nodes.column_names).sort_by("entity_key")
    want_e = exp_edges.select(edges.column_names).sort_by([(c, "ascending") for c in EDGE_KEY])
    exact = nodes.cast(want_n.schema).equals(want_n) and edges.cast(want_e.schema).equals(want_e)
    return {
        "triple_precision": tp,
        "triple_recall": tr,
        "node_precision": np_,
        "node_recall": nr,
        "exact": exact,
    }


def passes(s: dict) -> bool:
    return s["exact"] and all(s[k] == 1.0 for k in ("triple_precision", "triple_recall", "node_precision", "node_recall"))


def perturbed(edges: pa.Table) -> pa.Table:
    """The edges table with its first triple dropped and one spurious triple
    added — the oracle comparison must reject it."""
    fake = pa.table(
        {
            "src_key": ["kgbench_spurious_src"],
            "pred": ["calls"],
            "dst_key": ["kgbench_spurious_dst"],
            "repos_packed": [""],
        }
    ).cast(edges.schema)
    mask = pc.not_equal(pa.array(range(edges.num_rows)), 0)
    return pa.concat_tables([edges.filter(mask), fake])


def rejects_perturbation(nodes: pa.Table, edges: pa.Table, exp_nodes: pa.Table, exp_edges: pa.Table) -> bool:
    s = score(nodes, perturbed(edges), exp_nodes, exp_edges)
    return s["triple_precision"] < 1.0 and s["triple_recall"] < 1.0 and not passes(s)


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, names in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, n)) for n in names)
    return total


def file_stats(path: str) -> dict[str, tuple[int, int]]:
    """{file: (size, mtime_ns)} under ``path`` — diffed around a run to count
    what it wrote."""
    out = {}
    for root, _, names in os.walk(path):
        for n in names:
            p = os.path.join(root, n)
            st = os.stat(p)
            out[p] = (st.st_size, st.st_mtime_ns)
    return out
