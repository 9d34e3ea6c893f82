"""Alias linking runs on the combiner partials, before the one
canonicalization exchange; these tests pin that plan against a naive mirror
that merges first, links the merged vocabulary and merges again, plus the
repo-separator guard of the merge kernel."""

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from text_to_graph_ray.config import PipelineConfig
from text_to_graph_ray.keys import close_reexports
from text_to_graph_ray.stages.canonicalize import merge_bucket

CFG = PipelineConfig(num_partitions=4)
MERGED_COLS = ["kind", "k1", "k2", "k3", "repos_packed"]

# dotted keys whose last segment has one (m.g, util.h), two (m.f: a.m and
# b.m both end in .m) or no matching definition
KEYS = ["f", "g", "h", "main", "m.f", "a.m.f", "b.m.f", "pkg.f", "x.g", "y.g", "m.g", "util.h", "q.h"]
DEFS = [("f", "a.m"), ("f", "b.m"), ("g", "m"), ("h", "util"), ("h", "q.r")]
# x.g <-> y.g is a cycle (closes min-label onto x.g)
REEXPORTS = [("pkg.f", "m.f"), ("x.g", "y.g"), ("y.g", "x.g"), ("q.h", "util.h")]
REPOS = ["r1", "r2", "r3"]


def _partials(nodes, edges, defs) -> pa.Table:
    """Partial rows in the merged-row schema, as ``combined_partials`` emits
    them: every node label is one whose own key is its ``k1``."""
    rows = (
        [("n", k, lbl, typ, repo) for k, lbl, typ, repo in nodes]
        + [("e", s, p, d, repo) for s, p, d, repo in edges]
        + [("d", name, mod, "", "") for name, mod in defs]
    )
    return pa.Table.from_pandas(pd.DataFrame(rows, columns=MERGED_COLS), preserve_index=False).replace_schema_metadata(None)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df[MERGED_COLS].sort_values(MERGED_COLS).reset_index(drop=True)


def _link_and_oracle(parts: pa.Table, rx: list):
    """(link_merged on the partials -> the exchange, as a DataFrame; the
    naive mirror merge -> MergedLinker -> merge over the same partials)."""
    import ray.data as rd

    from text_to_graph_ray.pipelines import kg
    from text_to_graph_ray.stages.linker import MergedLinker

    cfg = PipelineConfig(num_partitions=4, reexports=tuple(rx))
    got = kg._canonicalize(kg.link_merged(rd.from_arrow(parts).repartition(3).materialize(), cfg)).to_pandas()
    merged = merge_bucket(parts.to_pandas())
    is_def = pc.equal(merged.column("kind"), "d")
    linker = MergedLinker(defs_idx=merged.filter(is_def).select(["k1", "k2"]), reexports=close_reexports(dict(rx)))
    want = merge_bucket(linker(merged.filter(pc.invert(is_def))).drop_columns(["changed"]).to_pandas())
    return got, want.to_pandas()


def _assert_sink_order(df: pd.DataFrame) -> None:
    nodes = list(df.loc[df["kind"] == "n", "k1"])
    edges = list(df.loc[df["kind"] == "e", ["k1", "k2", "k3"]].itertuples(index=False, name=None))
    assert nodes == sorted(nodes) and len(set(nodes)) == len(nodes)
    assert edges == sorted(edges) and len(set(edges)) == len(edges)


def _with_twins(rows, twin_flags, cut):
    """Each flagged row gains a twin whose columns in ``cut`` are cut to
    their last segment — the key a resolved alias lands on — so rewritten
    rows often collide with rows that did not change."""
    out = list(rows)
    for row, twin in zip(rows, twin_flags):
        if twin:
            out.append(tuple(v.rsplit(".", 1)[-1] if i in cut else v for i, v in enumerate(row)))
    return out


node_rows = st.tuples(
    st.sampled_from(KEYS), st.booleans(), st.sampled_from(["function", "module", ""]), st.sampled_from(REPOS)
).map(lambda t: (t[0], t[0].upper() if t[1] else t[0], t[2], t[3]))
edge_rows = st.tuples(
    st.sampled_from(KEYS), st.sampled_from(["calls", "imports"]), st.sampled_from(KEYS), st.sampled_from(REPOS)
)


@settings(max_examples=20, deadline=None)
@given(
    nodes=st.lists(st.tuples(node_rows, st.booleans()), min_size=1, max_size=10),
    edges=st.lists(st.tuples(edge_rows, st.booleans()), max_size=10),
    defs=st.lists(st.sampled_from(DEFS), max_size=5),
    rx=st.lists(st.sampled_from(REEXPORTS), max_size=4),
)
def test_link_then_merge_equals_merge_link_merge(ray_session, nodes, edges, defs, rx):
    parts = _partials(
        _with_twins([r for r, _ in nodes], [t for _, t in nodes], {0, 1}),
        _with_twins([r for r, _ in edges], [t for _, t in edges], {0, 2}),
        defs,
    )
    got, want = _link_and_oracle(parts, rx)
    assert _sorted(got).equals(_sorted(want))
    _assert_sink_order(got)


def test_rekeyed_edge_collides_with_unchanged_edge(ray_session):
    """main->m.g re-keys onto main->g, which did not change: the two merge
    into one edge."""
    parts = _partials(
        nodes=[("main", "main", "function", "r1"), ("m.g", "m.g", "", "r1"), ("g", "g", "function", "r2")],
        edges=[("main", "calls", "m.g", "r1"), ("main", "calls", "g", "r2")],
        defs=[("g", "m")],
    )
    got, want = _link_and_oracle(parts, [])
    edges = got.query("kind == 'e'")
    assert list(zip(edges["k3"], edges["repos_packed"])) == [("g", "r1|r2")]
    assert _sorted(got).equals(_sorted(want))


def test_targets_present_but_nothing_changes(ray_session):
    """Every defined name is a key, but no dotted key resolves: the linked
    graph is the merged partials minus their def rows."""
    parts = _partials(
        nodes=[("f", "F", "function", "r1"), ("main", "main", "function", "r2"), ("m.f", "m.f", "", "r2")],
        edges=[("main", "calls", "f", "r2"), ("main", "calls", "m.f", "r1")],
        defs=[("f", "a.m"), ("f", "b.m")],
    )
    got, want = _link_and_oracle(parts, [])
    merged = merge_bucket(parts.to_pandas())
    nd = merged.filter(pc.invert(pc.equal(merged.column("kind"), "d"))).to_pandas()
    assert _sorted(got).equals(_sorted(nd))
    assert _sorted(want).equals(_sorted(nd))


def test_reexports_matching_nothing_keep_merged_schema(ray_session):
    """Re-exports that rewrite nothing still yield the merged schema, and
    the sinks read it."""
    import ray.data as rd

    from text_to_graph_ray.pipelines import kg

    parts = _partials(
        nodes=[("main", "main", "function", "r1"), ("g", "g", "function", "r1")],
        edges=[("main", "calls", "g", "r1")],
        defs=[],
    )
    cfg = PipelineConfig(num_partitions=4, reexports=(("zz.q", "yy.q"),))
    got = kg._canonicalize(kg.link_merged(rd.from_arrow(parts), cfg))
    assert got.schema().names == MERGED_COLS
    assert _sorted(got.to_pandas()).equals(_sorted(parts.to_pandas()))
    assert list(kg.nodes_from_merged(got).to_pandas()["entity_key"]) == ["g", "main"]
    assert kg.edges_from_merged(got).count() == 1


def test_pipe_in_repo_raises_named_error(ray_session, tmp_path):
    """'|' separates packed provenance, so a repo containing it would split
    into several provenance entries: the run fails naming the value."""
    from text_to_graph_ray.pipelines import kg

    p = str(tmp_path / "pipe.parquet")
    pq.write_table(
        pa.table(
            {
                "repo": ["ok/repo", "bad|repo"],
                "path": ["a.py", "b.py"],
                "commit": ["c", "c"],
                "lang": ["python", "python"],
                "content": ["def f():\n    pass\n", "def g():\n    f()\n"],
            }
        ),
        p,
    )
    with pytest.raises(Exception, match=r"'bad\|repo' contains '\|'"):
        kg.run(p, str(tmp_path / "out"), CFG)
