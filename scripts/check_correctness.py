"""Local stand-in for the driver's correctness gate: run every queries() entry
at sf0.01, run its oracle_sql() in DuckDB over the same parquet views, compare
row count + (column-name-sorted, order-insensitive) value hash.

Usage: python scripts/check_correctness.py [sf_dir]
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ["lineitem", "events", "documents"]


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def value_hash(df):
    import pandas as pd

    df = df.reindex(sorted(df.columns), axis=1)
    # dtype-sensitive like the driver's hasher: an int64 column and a float64
    # column with equal values must NOT collide (100000 vs 100000.0)
    rows = ["\x1f".join(df[c].dtype.kind for c in df.columns)]
    for t in df.itertuples(index=False):
        parts = []
        for v in t:
            if isinstance(v, float):
                parts.append(f"{v:.9g}")
            else:
                parts.append(str(v))
        rows.append("\x1f".join(parts))
    rows.sort()
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    # generator-derived oracles must describe THIS sf dir (driver default sf0.01)
    os.environ["GRAFT_ORACLE_SF"] = sf_dir
    import duckdb
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = e.queries()
    only = set(sys.argv[2:])
    if only:
        qs = {k: v for k, v in qs.items() if k in only}
    oracles = e.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as ex:
            print(f"FAIL  {name}: query raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok    {name}: rows={len(got)} cols={sorted(got.columns)} ({dt:.1f}s) [rows-only]")
            if len(got) == 0 and name not in ("dedup_minhash", "dedup_simhash"):
                print(f"WARN  {name}: zero rows")
            continue
        want = con.sql(oracles[name]).df()
        ok_rows = len(got) == len(want)
        ok_cols = sorted(got.columns) == sorted(want.columns)
        h_got, h_want = value_hash(got), value_hash(want)
        ok_hash = h_got == h_want
        status = "ok   " if (ok_rows and ok_cols and ok_hash) else "FAIL "
        if status.startswith("FAIL"):
            failures += 1
        print(f"{status} {name}: rows {len(got)}/{len(want)} cols_ok={ok_cols} hash_ok={ok_hash} ({dt:.1f}s)")
        if not ok_cols:
            print(f"      got  cols {sorted(got.columns)}\n      want cols {sorted(want.columns)}")
        if ok_cols and not ok_hash and len(got) < 50 and len(want) < 50:
            print("      GOT:\n", got.reindex(sorted(got.columns), axis=1).to_string())
            print("      WANT:\n", want.reindex(sorted(want.columns), axis=1).to_string())

    print(f"\n{'ALL OK' if failures == 0 else f'{failures} FAILURES'}")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
