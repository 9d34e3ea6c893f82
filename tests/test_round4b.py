"""Round-4 part-2 tests: fixed-width histogram, grouped quantile sketch,
grouped integer-exact moments."""

import numpy as np
import pyarrow as pa
import pytest


def test_histogram_exact_drops_nulls_and_closes_top_bin(ray_session):
    import ray.data as rd

    from text_to_graph_ray.functions.stats import histogram_fixed

    rng = np.random.default_rng(3)
    vals = rng.uniform(-5.0, 20.0, size=4000).tolist() + [None, None, -5.0, 20.0]
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, type=pa.float64())})).repartition(8)
    out = histogram_fixed(ds, "v", nbins=8).take_all()
    clean = np.array([v for v in vals if v is not None], dtype=np.float64)
    mn, mx = clean.min(), clean.max()
    w = (mx - mn) / 8.0
    bins = np.minimum(np.floor((clean - mn) / w), 7).astype(np.int64)
    ref = np.bincount(bins, minlength=8)
    got = {r["bin"]: r for r in out}
    assert sum(r["cnt"] for r in out) == clean.size  # nulls dropped
    for b in range(8):
        if ref[b]:
            assert got[b]["cnt"] == ref[b]
            assert got[b]["lo"] == mn + float(b) * w
    assert got[7]["cnt"] >= 1  # v == max lands in the closed top bin

    const = rd.from_arrow(pa.table({"v": pa.array([1.0] * 10)}))
    with pytest.raises(ValueError, match="degenerate range"):
        histogram_fixed(const, "v", nbins=4)


class TestGroupedQuantileSketch:
    def test_exact_below_k_per_group(self, ray_session):
        import ray.data as rd

        from text_to_graph_ray.functions.sketch import grouped_quantile_sketch

        rng = np.random.default_rng(5)
        keys, vals = [], []
        sizes = {"a": 700, "b": 120, "c": 1}
        for g, m in sizes.items():
            keys += [g] * m
            vals += rng.normal(size=m).tolist()
        # interleave some NULLs: dropped per group on both sides
        keys += ["a", "b"]
        vals += [None, None]
        ds = rd.from_arrow(pa.table({"g": pa.array(keys), "v": pa.array(vals, type=pa.float64())})).repartition(6)
        qs = (0.1, 0.5, 0.9)
        out = {(r["g"], r["q"]): r["value"] for r in grouped_quantile_sketch(ds, "g", "v", qs, k=4096).take_all()}
        arr = {g: np.sort([v for kk, v in zip(keys, vals) if kk == g and v is not None]) for g in sizes}
        for g, m in sizes.items():
            for q in qs:
                want = arr[g][max(1, int(np.ceil(q * m))) - 1]  # quantile_disc rank rule
                assert out[(g, q)] == want, (g, q)

    def test_estimate_regime_rank_error_per_group(self, ray_session):
        import ray.data as rd

        from text_to_graph_ray.functions.sketch import grouped_quantile_sketch

        rng = np.random.default_rng(9)
        n = 100_000
        tbl = pa.table(
            {
                "g": pa.array(["x"] * n + ["y"] * n),
                "v": pa.array(np.concatenate([rng.uniform(0, 1, n), rng.normal(10, 2, n)])),
            }
        )
        ds = rd.from_arrow(tbl).repartition(16)
        out = {(r["g"], r["q"]): r["value"] for r in grouped_quantile_sketch(ds, "g", "v", (0.5, 0.9), k=1024).take_all()}
        data = {"x": np.sort(tbl.column("v").to_numpy()[:n]), "y": np.sort(tbl.column("v").to_numpy()[n:])}
        for g in ("x", "y"):
            for q in (0.5, 0.9):
                got = out[(g, q)]
                rank = np.searchsorted(data[g], got) / n
                assert abs(rank - q) < 0.01, (g, q, rank)


def test_grouped_moments_matches_exact_reference(ray_session):
    import math

    import ray.data as rd

    from text_to_graph_ray.functions.stats import grouped_moments_int

    rng = np.random.default_rng(21)
    keys = rng.choice(["p", "q", "r"], size=3000).tolist() + ["solo", "pair", "pair"]
    vals = rng.integers(-2000, 2000, size=3000).tolist() + [7, 3, 3]
    ds = rd.from_arrow(
        pa.table({"g": pa.array(keys), "x": pa.array([float(v) for v in vals], type=pa.float64())})
    ).repartition(6)
    out = {r["g"]: r for r in grouped_moments_int(ds, "g", "x").to_pandas().to_dict("records")}
    by_g = {}
    for g, v in zip(keys, vals):
        by_g.setdefault(g, []).append(int(v))
    for g, xs in by_g.items():
        n, s1 = len(xs), sum(xs)
        s2, s3, s4 = sum(x * x for x in xs), sum(x**3 for x in xs), sum(x**4 for x in xs)
        a2 = n * s2 - s1 * s1
        r = out[g]
        assert r["n"] == n
        assert r["mean"] == float(s1) / float(n)
        if g == "solo":
            assert r["sd"] is None or (isinstance(r["sd"], float) and math.isnan(r["sd"]))
            continue
        if a2 == 0:  # constant group ("pair")
            assert r["sd"] == 0.0
            assert r["skew_pop"] is None or math.isnan(r["skew_pop"])
            continue
        a3 = n * n * s3 - 3 * n * s1 * s2 + 2 * s1**3
        a4 = n**3 * s4 - 4 * n * n * s1 * s3 + 6 * n * s1 * s1 * s2 - 3 * s1**4
        assert r["sd"] == math.sqrt(float(a2) / float(n * (n - 1)))
        rr = math.sqrt(float(a2))
        assert r["skew_pop"] == float(a3) / (rr * rr * rr)
        assert r["kurt_pop"] == float(a4) / (float(a2) * float(a2)) * (float(n) * float(n)) - 3.0

