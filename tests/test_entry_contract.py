"""The query contract of ``__ray_entry__``: which queries exist, which have an
exact oracle, and in what order; and that every public package name is
reachable from an entry point. Builds no oracle input and starts no Ray job."""

import ast
import importlib.util
import json
import os

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import __ray_entry__ as E

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# HyperLogLog registers cannot be replayed in SQL: the one rows-only query
ROWS_ONLY = {"stats_hll_distinct"}

# Public package names no entry point reaches, each with why it stays.
UNREACHABLE_OK = {
    **dict.fromkeys(
        ["build_bloom", "bloom_filter_by_keys", "pivot_wide", "melt", "merge_upsert", "latest_per_key",
         "set_op_rows", "write_composite_html", "unpack_payload"],
        "next cut: query-less operator kept with its tests",
    ),
    "bigram_repetition": "scalar reference oracle for text.bigram_rep_batch",
    **dict.fromkeys(
        ["parse_entity_list", "merge_chunk_graphs", "merge_documents", "apply_edge_mappings",
         "distinct_edge_labels"],
        "reference parser/merge semantics the conformance tests replay",
    ),
}


@pytest.fixture
def oracles(monkeypatch, tmp_path):
    """``oracle_sql()`` with its input generators stubbed out: each returns
    an empty directory, which holds only the (empty) expected-nodes
    table whose footer the KG oracles size themselves from."""
    import text_to_graph_ray.expected as expected
    import text_to_graph_ray.fixtures as fixtures

    d = str(tmp_path)
    pq.write_table(pa.table({"entity_key": pa.array([], type=pa.string())}), f"{d}/expected_nodes.parquet")
    monkeypatch.setattr(E, "_synth", lambda sf_dir: d)
    for mod, name in (
        (expected, "ensure_kg_scored_expected"),
        (expected, "ensure_doc_expected"),
        (expected, "ensure_conformance_expected"),
        (fixtures, "ensure_fixture"),
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


def test_no_text_queries(oracles):
    assert [k for k in (*E.queries(), *oracles) if k.startswith("text_")] == []


def test_no_docs_queries(oracles):
    assert [k for k in (*E.queries(), *oracles) if k.startswith("docs_")] == []


def test_no_vector_or_media_queries(oracles):
    embedding_dedup = {"dedup_embedding", "dedup_embedding_lsh", "dedup_semdedup"}
    keys = (*E.queries(), *oracles)
    assert [k for k in keys if k.startswith(("emb_", "ann_", "mm_")) or k in embedding_dedup] == []
    assert [k for k, sql in oracles.items() if "embeddings" in _tables_read(sql)] == []


def test_check_correctness_registers_exactly_the_tables_oracles_read(oracles):
    path = os.path.join(REPO, "scripts", "check_correctness.py")
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


def _refs(node, strings: bool) -> set[str]:
    """Every name a subtree could reach a package name by: Name ids,
    attribute names, import aliases, and, with ``strings``, string constants
    (the kgbench tracer wraps ``kg`` functions by name)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
            out.add(n.asname or n.name)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def _parse(path: str) -> ast.Module:
    with open(path) as f:
        return ast.parse(f.read(), path)


def test_every_public_name_is_reachable():
    """Name-level AST reachability from the entry points (``tests/`` is not
    one): a module-level def/class without a leading ``_`` that no root
    reaches, directly or through the package names it reaches, must be on
    UNREACHABLE_OK. ``expected.py`` is not exempt: its naive mirrors are
    reached through the expected-table builders ``oracle_sql()`` calls, so a
    mirror whose table no oracle builds any more fails here. String constants
    count only in the roots, where the kgbench tracer names ``kg`` functions;
    in package code a string such as a column name is not a reference, so a
    def that shares a column's name is not kept alive by it."""
    roots = [os.path.join(REPO, p) for p in ("__ray_entry__.py", "bench.py", "text_to_graph_ray/run.py")]
    for d in ("kgbench", "scripts"):
        roots += [os.path.join(REPO, d, f) for f in sorted(os.listdir(os.path.join(REPO, d))) if f.endswith(".py")]

    bodies: dict[str, list] = {}  # top-level name -> the statements that bind it
    public: set[str] = set()
    live: set[str] = set()
    for dirpath, _, files in os.walk(os.path.join(REPO, "text_to_graph_ray")):
        for f in (f for f in files if f.endswith(".py")):
            for node in _parse(os.path.join(dirpath, f)).body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                    if not node.name.startswith("_"):
                        public.add(node.name)
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    names = [node.target.id]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                else:  # other import-time code runs whenever the module loads
                    live |= _refs(node, strings=False)
                    continue
                for name in names:
                    bodies.setdefault(name, []).append(node)

    for path in roots:
        live |= _refs(_parse(path), strings=True)
    todo = list(live & bodies.keys())
    while todo:
        for node in bodies.pop(todo.pop(), []):
            new = _refs(node, strings=False) - live
            live |= new
            todo += [n for n in new if n in bodies]

    unreachable = public - live
    assert sorted(unreachable - UNREACHABLE_OK.keys()) == []
    assert sorted(UNREACHABLE_OK.keys() - public) == [], "allow-listed name no longer exists"
    assert sorted(UNREACHABLE_OK.keys() - unreachable) == [], "allow-listed name is reachable now"
