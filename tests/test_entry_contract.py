"""The query contract of ``__ray_entry__``: which queries exist, which have an
exact oracle, and in what order. Builds no oracle input and starts no Ray job."""

import importlib.util
import json
import os

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import __ray_entry__ as E

# HyperLogLog registers cannot be replayed in SQL: the one rows-only query
ROWS_ONLY = {"stats_hll_distinct"}


@pytest.fixture
def oracles(monkeypatch, tmp_path):
    """``oracle_sql()`` with its input generators stubbed out: each returns
    an empty directory, which holds only the (empty) expected-nodes
    table whose footer the KG oracles size themselves from."""
    import text_to_graph_ray.expected as expected
    import text_to_graph_ray.fixtures as fixtures
    import text_to_graph_ray.sources.formats as formats

    d = str(tmp_path)
    pq.write_table(pa.table({"entity_key": pa.array([], type=pa.string())}), f"{d}/expected_nodes.parquet")
    monkeypatch.setattr(E, "_synth", lambda sf_dir: d)
    for mod, name in (
        (expected, "ensure_kg_scored_expected"),
        (expected, "ensure_doc_expected"),
        (expected, "ensure_conformance_expected"),
        (fixtures, "ensure_fixture"),
        (formats, "_ensure_converted"),
    ):
        monkeypatch.setattr(mod, name, lambda *a, **k: d)
    return E.oracle_sql()


def _tables_read(sql: str) -> set[str]:
    """Catalog tables a query reads: DuckDB's parse tree (no binding, so no
    input file needs to exist) gives every base-table reference; names a
    WITH clause defines are not catalog tables."""
    tree = json.loads(duckdb.execute("SELECT json_serialize_sql(?::VARCHAR)", [sql]).fetchone()[0])
    assert not tree["error"], tree
    refs, ctes = set(), set()

    def walk(node):
        if isinstance(node, dict):
            if node.get("type") == "BASE_TABLE":
                refs.add(node["table_name"])
            ctes.update(m["key"] for m in node.get("cte_map", {}).get("map", []))
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(tree)
    return refs - ctes


def test_no_events_or_rel_queries():
    assert [k for k in E.queries() if k.startswith(("events_", "rel_"))] == []


def test_no_graph_analytics_queries(oracles):
    assert [k for k in (*E.queries(), *oracles) if k.startswith("graph_")] == []


def test_no_vector_or_media_queries(oracles):
    embedding_dedup = {"dedup_embedding", "dedup_embedding_lsh", "dedup_semdedup"}
    keys = (*E.queries(), *oracles)
    assert [k for k in keys if k.startswith(("emb_", "ann_", "mm_")) or k in embedding_dedup] == []
    assert [k for k, sql in oracles.items() if "embeddings" in _tables_read(sql)] == []


def test_check_correctness_registers_exactly_the_tables_oracles_read(oracles):
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "check_correctness.py")
    spec = importlib.util.spec_from_file_location("check_correctness", path)
    cc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cc)
    read = set().union(*(_tables_read(sql) for sql in oracles.values()))
    assert read == set(cc.TABLES)


def test_every_query_but_the_rows_only_sketch_has_an_oracle(oracles):
    qs = set(E.queries())
    assert ROWS_ONLY <= qs
    assert qs - ROWS_ONLY == set(oracles)


def test_kg_queries_come_first():
    keys = list(E.queries())
    n_kg = sum(k.startswith("kg_") for k in keys)
    assert n_kg > 0
    assert all(k.startswith("kg_") for k in keys[:n_kg]), keys[:n_kg]
