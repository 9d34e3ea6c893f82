"""The broadcast relink pass re-merges only the affected slice of the merged
vocabulary; these tests pin that slice rule against a full re-merge of the
same linker output, plus the repo-separator guard of the merge kernel."""

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


def _merged_vocabulary(nodes, edges, defs) -> pa.Table:
    """A valid merged graph (one row per merge identity): raw partial rows
    through the merge kernel."""
    rows = (
        [("n", k, lbl, typ, repo) for k, lbl, typ, repo in nodes]
        + [("e", s, p, d, repo) for s, p, d, repo in edges]
        + [("d", name, mod, "", "") for name, mod in defs]
    )
    return merge_bucket(pd.DataFrame(rows, columns=MERGED_COLS))


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df[MERGED_COLS].sort_values(MERGED_COLS).reset_index(drop=True)


def _relink_and_oracle(merged: pa.Table, reexports: dict):
    """(relink_merged output, _remerge_all over the same MergedLinker output)."""
    import ray.data as rd

    from text_to_graph_ray.pipelines import kg
    from text_to_graph_ray.stages.linker import MergedLinker

    is_def = pc.equal(merged.column("kind"), "d")
    defs = merged.filter(is_def).select(["k1", "k2"])
    ds = rd.from_arrow(merged).repartition(3)
    got = kg.relink_merged(ds, defs, CFG, reexports=reexports)
    linked = MergedLinker(defs_idx=defs, reexports=reexports)(merged.filter(pc.invert(is_def)))
    want = kg._remerge_all(rd.from_arrow(linked.drop_columns(["changed"])), CFG)
    return got, want


def _with_twins(rows, twin_flags, endpoints):
    """Each flagged row gains a twin whose endpoint keys are cut to their
    last segment — the key a resolved alias lands on — so re-keyed rows
    often collide with rows that did not change."""
    out = list(rows)
    for row, twin in zip(rows, twin_flags):
        if twin:
            out.append(tuple(v.rsplit(".", 1)[-1] if i in endpoints else v for i, v in enumerate(row)))
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
def test_relink_slice_equals_full_remerge(ray_session, nodes, edges, defs, rx):
    merged = _merged_vocabulary(
        _with_twins([r for r, _ in nodes], [t for _, t in nodes], {0}),
        _with_twins([r for r, _ in edges], [t for _, t in edges], {0, 2}),
        defs,
    )
    got, want = _relink_and_oracle(merged, close_reexports(dict(rx)))
    assert _sorted(got.to_pandas()).equals(_sorted(want.to_pandas()))


def test_rekeyed_edge_collides_with_unchanged_edge(ray_session):
    """main->m.g re-keys onto main->g, which did not change and is tagged
    only because its dst is a rewrite target: the two merge into one edge."""
    merged = _merged_vocabulary(
        nodes=[("main", "main", "function", "r1"), ("m.g", "m.g", "", "r1"), ("g", "g", "function", "r2")],
        edges=[("main", "calls", "m.g", "r1"), ("main", "calls", "g", "r2")],
        defs=[("g", "m")],
    )
    got, want = _relink_and_oracle(merged, {})
    edges = got.to_pandas().query("kind == 'e'")
    assert list(zip(edges["k3"], edges["repos_packed"])) == [("g", "r1|r2")]
    assert _sorted(got.to_pandas()).equals(_sorted(want.to_pandas()))


def test_targets_present_but_nothing_changes(ray_session):
    """Every defined name is a vocabulary key (so the slice is non-empty),
    but no dotted key resolves: the relinked graph is the input minus its
    def rows."""
    merged = _merged_vocabulary(
        nodes=[("f", "F", "function", "r1"), ("main", "main", "function", "r2"), ("m.f", "m.f", "", "r2")],
        edges=[("main", "calls", "f", "r2"), ("main", "calls", "m.f", "r1")],
        defs=[("f", "a.m"), ("f", "b.m")],
    )
    got, want = _relink_and_oracle(merged, {})
    nd = merged.filter(pc.invert(pc.equal(merged.column("kind"), "d"))).to_pandas()
    assert _sorted(got.to_pandas()).equals(_sorted(nd))
    assert _sorted(want.to_pandas()).equals(_sorted(nd))


def test_reexports_matching_nothing_keep_merged_schema(ray_session):
    """An empty affected slice still yields the merged schema, and the
    sinks read it."""
    from text_to_graph_ray.pipelines import kg

    merged = _merged_vocabulary(
        nodes=[("main", "main", "function", "r1"), ("g", "g", "function", "r1")],
        edges=[("main", "calls", "g", "r1")],
        defs=[],
    )
    got, want = _relink_and_oracle(merged, close_reexports({"zz.q": "yy.q"}))
    assert got.schema().names == MERGED_COLS
    assert _sorted(got.to_pandas()).equals(_sorted(merged.to_pandas()))
    assert _sorted(want.to_pandas()).equals(_sorted(merged.to_pandas()))
    assert sorted(kg.nodes_from_merged(got).to_pandas()["entity_key"]) == ["g", "main"]
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
