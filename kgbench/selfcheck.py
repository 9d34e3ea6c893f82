"""Checks of the benchmark itself.

    python3 kgbench/selfcheck.py          # from the root of a checkout

1. The oracle comparison accepts the oracle's own tables and rejects an edges
   table with one triple dropped and one spurious triple added.
2. One traced run (``run.py --trace 1``) writes a span file in which every
   span has a name, start, end and parent, and in which the top-level spans of
   every ``kg.run`` cover at least 90% of it.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pyarrow as pa


def _as_written(exp_nodes: pa.Table, exp_edges: pa.Table) -> tuple[pa.Table, pa.Table]:
    """The oracle tables in the form ``oracle.read_graph`` returns."""
    nodes = exp_nodes.select(["entity_id", "entity_key", "label", "types_packed", "repos_packed"]).sort_by("entity_key")
    edges = exp_edges.select(["src_key", "pred", "dst_key", "repos_packed"]).sort_by(
        [("src_key", "ascending"), ("pred", "ascending"), ("dst_key", "ascending")]
    )
    return nodes, edges


def check_oracle(corpus: str) -> list[str]:
    import pyarrow.parquet as pq

    from kgbench import oracle

    exp_nodes = pq.read_table(os.path.join(corpus, "expected_nodes.parquet"))
    exp_edges = pq.read_table(os.path.join(corpus, "expected_edges.parquet"))
    nodes, edges = _as_written(exp_nodes, exp_edges)
    errors = []
    if not oracle.passes(oracle.score(nodes, edges, exp_nodes, exp_edges)):
        errors.append("oracle: the oracle's own tables do not pass")
    if not oracle.rejects_perturbation(nodes, edges, exp_nodes, exp_edges):
        errors.append("oracle: a perturbed edges table passes")
    return errors


def check_spans(path: str) -> list[str]:
    from kgbench.tracing import layer_metrics

    with open(path) as fh:
        spans = json.load(fh)["spans"]
    errors = []
    ids = {s.get("id") for s in spans}
    for s in spans:
        missing = [k for k in ("name", "start", "end", "parent") if k not in s]
        if missing:
            errors.append(f"span {s.get('id')}: missing {missing}")
        elif s["end"] is None or s["end"] < s["start"]:
            errors.append(f"span {s['id']} ({s['name']}): end {s['end']} before start {s['start']}")
        elif s["parent"] is not None and s["parent"] not in ids:
            errors.append(f"span {s['id']} ({s['name']}): unknown parent {s['parent']}")
    roots = [s for s in spans if s.get("name") == "kg.run"]
    if not roots:
        errors.append("spans: no kg.run span")
    for r in roots:
        m = layer_metrics(spans, r["id"])
        if m["kg.unattributed_s"] > 0.1 * m["kg.traced_run_s"]:
            errors.append(
                f"kg.run span {r['id']}: top-level spans cover {m['kg.traced_run_s'] - m['kg.unattributed_s']:.3f} "
                f"of {m['kg.traced_run_s']:.3f} s (under 90%)"
            )
    return errors


def main() -> int:
    sys.path.insert(0, os.getcwd())
    from kgbench import corpus
    from kgbench.run import ROOT

    errors = check_oracle(corpus.ensure(ROOT, "warm", 0))
    seed = 0
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
         "--workload", "synth", "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        errors.append(f"traced run exited {proc.returncode}: {proc.stderr[-2000:]}")
    else:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            errors.append("traced run: outputs not correct")
        errors += check_spans(os.path.join(ROOT, "spans", f"synth-s{seed}.json"))
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck:", "FAIL" if errors else "OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
