"""MergedLinker + NgramScorer unit behavior (no Ray needed — the defs table
is passed directly; the relink pass is covered by the pipeline tests)."""

import pyarrow as pa

from text_to_graph_ray.stages.linker import MergedLinker, NgramScorer


def _defs(pairs) -> pa.Table:
    return pa.table({"k1": pa.array([n for n, _ in pairs]), "k2": pa.array([m for _, m in pairs])})


def _merged(rows) -> pa.Table:
    """Merged-graph rows (kind, k1, k2, k3): an edge is (k1 pred k3), a node's
    k3 is its packed type set."""
    cols = ["kind", "k1", "k2", "k3"]
    return pa.table({c: pa.array([r[i] for r in rows], type=pa.string()) for i, c in enumerate(cols)})


def test_resolver_rewrites_dotted_alias():
    linker = MergedLinker(defs_idx=_defs([("helper", "src.pkg.mod")]))
    out = linker(_merged([("e", "g", "calls", "pkg.mod.helper"), ("n", "pkg.mod.helper", "helper", "function")]))
    assert out.column("k1").to_pylist() == ["g", "helper"]
    assert out.column("k3").to_pylist() == ["helper", "function"]  # a node's type set is never rewritten
    assert out.column("changed").to_pylist() == [True, True]


def test_resolver_leaves_unresolvable():
    linker = MergedLinker(defs_idx=_defs([("helper", "src.a.m"), ("helper", "src.b.m")]))
    out = linker(_merged([("e", "os.path", "calls", "m.helper")]))
    assert out.column("k1").to_pylist() == ["os.path"]
    assert out.column("k3").to_pylist() == ["m.helper"]  # ambiguous: untouched
    assert out.column("changed").to_pylist() == [False]


def test_resolver_memo_cache():
    linker = MergedLinker(defs_idx=_defs([("f", "m.x")]))
    linker(_merged([("e", "x.f", "calls", "x.f")]))
    assert linker.memo["x.f"] == "f"


def test_ngram_scorer_self_match_and_determinism():
    vocab = ["canonical_name", "other_entity", "third_thing"]
    s1 = NgramScorer(vocab)
    s2 = NgramScorer(vocab)
    b1 = s1.best(["canonical_name", "canonicl_name", "zzzz"])
    b2 = s2.best(["canonical_name", "canonicl_name", "zzzz"])
    assert b1 == b2  # crc32-hashed features: stable across instances/processes
    assert b1[0] == ("canonical_name", 1.0) or abs(b1[0][1] - 1.0) < 1e-5
    assert b1[1][0] == "canonical_name"  # near-miss typo still matches
    assert b1[2][0] is None  # garbage below threshold


def test_ngram_scorer_empty_vocab():
    s = NgramScorer([])
    assert s.best(["x"]) == [(None, 0.0)]
