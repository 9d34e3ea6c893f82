"""Distinct-count sketches (functions/sketch.py).

Everything here is deterministic — fixed data, fixed SipHash key — so the
error assertions pin exact reproducible numbers, not distributions."""

import numpy as np
import pyarrow as pa

import ray

from text_to_graph_ray.functions.sketch import hll_distinct, kmv_distinct


def _ds(values, parts=16, extra=None):
    cols = {"x": pa.array(values)}
    if extra is not None:
        cols["y"] = pa.array(extra)
    return ray.data.from_arrow(pa.table(cols)).repartition(parts)


class TestKMV:
    def test_exact_below_k(self, ray_session):
        """< k distinct values => the sketch IS the distinct set: exact."""
        rng = np.random.default_rng(5)
        vals = rng.integers(0, 3000, size=100_000)  # ~3000 distinct << k
        got = kmv_distinct(_ds(vals), "x", k=8192).to_pandas()
        assert got.loc[0, "n_distinct"] == len(np.unique(vals))

    def test_estimate_above_k(self, ray_session):
        rng = np.random.default_rng(5)
        vals = rng.integers(0, 150_000, size=200_000)
        true = len(np.unique(vals))
        est = kmv_distinct(_ds(vals), "x", k=1024).to_pandas().loc[0, "n_distinct"]
        assert abs(est - true) / true < 0.10  # std err ~3.1% at k=1024

    def test_partition_invariance(self, ray_session):
        """Union-merge is associative/commutative: the fold must not depend
        on how blocks split."""
        rng = np.random.default_rng(9)
        vals = rng.integers(0, 50_000, size=80_000)
        a = kmv_distinct(_ds(vals, parts=2), "x", k=512).to_pandas().loc[0, "n_distinct"]
        b = kmv_distinct(_ds(vals, parts=37), "x", k=512).to_pandas().loc[0, "n_distinct"]
        assert a == b

    def test_multi_column_sorted_output(self, ray_session):
        vals = np.arange(1000, dtype="int64")
        got = kmv_distinct(_ds(vals, extra=(vals % 7)), ["y", "x"]).to_pandas()
        assert list(got["col"]) == ["x", "y"]
        assert list(got["n_distinct"]) == [1000, 7]

    def test_string_column(self, ray_session):
        vals = [f"u{i % 321}" for i in range(5000)]
        got = kmv_distinct(_ds(vals), "x").to_pandas()
        assert got.loc[0, "n_distinct"] == 321


class TestHLL:
    def test_error_at_three_cardinalities(self, ray_session):
        """p=14 => std err ~0.81%; assert < 3% (≈3.7σ) at each scale. The
        smallest scale goes through the linear-counting correction."""
        rng = np.random.default_rng(11)
        for true_n in (100, 10_000, 200_000):
            vals = rng.choice(10_000_000, size=true_n, replace=False)
            vals = np.repeat(vals, 3)  # duplicates must not affect the estimate
            est = hll_distinct(_ds(vals), "x", p=14).to_pandas().loc[0, "n_distinct_est"]
            assert abs(est - true_n) / true_n < 0.03, (true_n, est)

    def test_partition_invariance(self, ray_session):
        rng = np.random.default_rng(13)
        vals = rng.integers(0, 60_000, size=100_000)
        a = hll_distinct(_ds(vals, parts=3), "x").to_pandas().loc[0, "n_distinct_est"]
        b = hll_distinct(_ds(vals, parts=29), "x").to_pandas().loc[0, "n_distinct_est"]
        assert a == b

    def test_rho_is_exact_clz(self, ray_session):
        from text_to_graph_ray.functions.sketch import _rho

        p = 14
        # crafted suffixes: w with exactly z leading zero bits after the shift
        for z in (0, 1, 7, 31, 49):
            h = np.array([np.uint64(1) << np.uint64(63 - p - z)], dtype=np.uint64)
            assert _rho(h, p)[0] == z + 1
        assert _rho(np.array([0], dtype=np.uint64), p)[0] == 64 - p + 1


class TestQuantileSketch:
    QS = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]

    def _disc(self, v, q):
        sv = np.sort(v)
        return sv[min(max(int(np.ceil(q * len(v))) - 1, 0), len(v) - 1)]

    def test_exact_below_k_any_partitioning(self, ray_session):
        from text_to_graph_ray.functions.sketch import quantile_sketch

        rng = np.random.default_rng(43)
        v = rng.normal(size=3000)
        want = [self._disc(v, q) for q in self.QS]
        for parts in (2, 8, 37):
            got = quantile_sketch(_ds(v, parts=parts), "x", self.QS, k=4096).to_pandas()
            assert list(got["value"]) == want, parts

    def test_rank_error_bound_estimate_regime(self, ray_session):
        """1M values through k=1024 summaries (lossy collapses everywhere):
        rank error must stay under 1% — measured ~0.02%, bound is loose on
        purpose (deterministic data+hash, but the margin documents the
        scheme's O(log(n/k)/k) class, not a lucky constant)."""
        from text_to_graph_ray.functions.sketch import quantile_sketch

        rng = np.random.default_rng(47)
        v = rng.normal(size=1_000_000)
        got = quantile_sketch(_ds(v, parts=32), "x", self.QS, k=1024).to_pandas()
        sv = np.sort(v)
        for q, est in zip(self.QS, got["value"]):
            rank = np.searchsorted(sv, est) / len(v)
            assert abs(rank - q) < 0.01, (q, rank)

    def test_nulls_dropped(self, ray_session):
        from text_to_graph_ray.functions.sketch import quantile_sketch

        vals = pa.array([1.0, None, 2.0, None, 3.0, 4.0, 5.0])
        ds = ray.data.from_arrow(pa.table({"x": vals}))
        got = quantile_sketch(ds, "x", [0.5], k=64).to_pandas()
        assert got.loc[0, "value"] == 3.0  # median of the 5 non-null values
