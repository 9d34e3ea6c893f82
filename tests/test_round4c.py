"""Round-4 part-4 tests: grouped continuous quantiles."""

import pyarrow as pa


def test_grouped_quantiles_cont_interpolation_and_nulls(ray_session):
    import ray.data as rd

    from text_to_graph_ray.functions.quantiles import grouped_quantiles_cont

    t = pa.table(
        {
            "g": pa.array(["a"] * 5 + ["b"] * 2),
            "v": pa.array([10.0, 20.0, 30.0, 40.0, None, 1.0, 2.0], type=pa.float64()),
        }
    )
    out = {(r["g"], r["q"]): r["value"] for r in grouped_quantiles_cont(
        rd.from_arrow(t).repartition(3), "g", "v", (0.25, 0.5)
    ).take_all()}
    # group a: values [10,20,30,40] (null dropped); q=.25 -> pos .75 -> 17.5
    assert out[("a", 0.25)] == 17.5
    assert out[("a", 0.5)] == 25.0
    assert out[("b", 0.5)] == 1.5
