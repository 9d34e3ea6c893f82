"""Unit coverage for the round-2 operator additions (sampling, degree
analytics, connected components)."""

import numpy as np
import pyarrow as pa


def test_stratified_sample_caps_skewed_stratum(ray_session):
    import ray.data as rd

    from text_to_graph_ray.functions.sample import stratified_sample

    rows = [{"doc_id": i, "lang": "hot"} for i in range(100)] + [{"doc_id": 100 + i, "lang": f"r{i}"} for i in range(5)]
    out = stratified_sample(rd.from_items(rows), key_col="lang", n_per_key=3).to_pandas()
    assert len(out[out["lang"] == "hot"]) == 3
    assert list(out[out["lang"] == "hot"]["doc_id"]) == [0, 1, 2]  # first-n by id, deterministic
    assert len(out) == 3 + 5


def test_mod_sample_deterministic_and_roughly_rate(ray_session):
    import ray.data as rd

    from text_to_graph_ray.functions.sample import mod_sample

    rows = [{"doc_id": i} for i in range(1000)]
    a = mod_sample(rd.from_items(rows), rate_pct=10, id_col="doc_id").to_pandas()
    b = mod_sample(rd.from_items(rows), rate_pct=10, id_col="doc_id").to_pandas()
    assert a.equals(b)
    assert 50 <= len(a) <= 150  # ~10% of 1000
    # supersetting: a 20% sample contains the 10% sample
    c = mod_sample(rd.from_items(rows), rate_pct=20, id_col="doc_id").to_pandas()
    assert set(a["doc_id"]).issubset(set(c["doc_id"]))


def test_degree_topk(ray_session):
    import ray.data as rd

    from text_to_graph_ray.pipelines.kg import degree_topk

    edges = rd.from_items(
        [
            {"src_key": "a", "pred": "x", "dst_key": "b"},
            {"src_key": "a", "pred": "x", "dst_key": "c"},
            {"src_key": "b", "pred": "x", "dst_key": "c"},
        ]
    )
    out = degree_topk(edges, k=2).to_pandas()
    assert list(out["entity_key"]) == ["a", "b"]  # a=2, b=2 tie -> key asc; c=2... all tie
    assert list(out["degree"]) == [2, 2]


def test_connected_components_string_ids_distributed(ray_session):
    """The distributed label-propagation path must handle STRING node ids
    (min = lexicographic) and match the driver union-find path exactly."""
    import ray.data as rd

    from text_to_graph_ray.functions.graph import connected_components

    edges = [
        {"a": "beta", "b": "alpha"},
        {"a": "beta", "b": "gamma"},   # {alpha,beta,gamma} -> alpha
        {"a": "zeta", "b": "eta"},     # {eta,zeta} -> eta
        {"a": "mu", "b": "mu"},        # self-loop singleton
    ]
    got_collect = connected_components(rd.from_items(edges)).to_pandas()
    got_dist = connected_components(rd.from_items(edges), collect_max=0).to_pandas()
    cols = ["node", "component"]
    a = got_collect[cols].sort_values(cols).reset_index(drop=True)
    b = got_dist[cols].sort_values(cols).reset_index(drop=True)
    assert a.equals(b)
    comp = dict(zip(a["node"], a["component"]))
    assert comp == {"alpha": "alpha", "beta": "alpha", "gamma": "alpha", "eta": "eta", "zeta": "eta", "mu": "mu"}


def test_connected_components_long_chain_converges(ray_session):
    """A long chain with non-monotone ids needs many propagation rounds —
    the distributed path must converge (not bail early on the signature)."""
    import ray.data as rd

    from text_to_graph_ray.functions.graph import connected_components

    # chain 10-9-...-1-0: the min (0) sits at one end, so full propagation
    # needs ~10 rounds (each round = one distributed join — keep the chain
    # short enough that the test stays ~a minute)
    edges = [{"a": i, "b": i + 1} for i in range(10)]
    out = connected_components(rd.from_items(edges), collect_max=0, max_rounds=32).to_pandas()
    assert set(out["component"]) == {0}
    assert len(out) == 11
