"""Spans around the layers of one ``kg.run``, recorded from outside the program.

``Tracer.install`` wraps the module-level functions ``kg.run`` reaches
(``merged_graph``, ``link_merged`` and its defs/relink calls, the node and
edge sinks, ``read_parquet_clean``, the checkpoint store,
``input_fingerprint``, ``gc_config_roots``) and the Ray Data actions that
execute lazy chains (``materialize``, ``write_parquet``, ``take_all``,
``count``, ``unique``, ``to_arrow_refs``, ``iter_batches``; the last returns
a lazy iterator, so its span covers only the start of execution). Each call
becomes a span with name, start, end and parent; ``uninstall`` restores the
originals. Executed logical plans are scanned for all-to-all operators (sort,
aggregate, repartition, shuffle, join) to count exchanges.

``layer_metrics`` folds one run's spans into the per-layer seconds and counts
that ``README.md`` defines.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

ACTIONS = ("materialize", "write_parquet", "take_all", "count", "unique", "to_arrow_refs", "iter_batches")

# wrapped kg-module functions -> span name
KG_FUNCS = {
    "merged_graph": "canonicalize.merge",
    "link_merged": "linker.link",
    "defs_table_from_merged": "linker.defs",
    "relink_merged": "linker.relink_broadcast",
    "relink_merged_distributed": "linker.relink_distributed",
    "nodes_from_merged": "kg.nodes_from_merged",
    "edges_from_merged": "kg.edges_from_merged",
    "read_parquet_clean": "kg.read_parquet_clean",
}
CHECKPOINT_FUNCS = {"input_fingerprint": "kg.input_fingerprint", "gc_config_roots": "checkpoint.gc"}
STORE_METHODS = ("__init__", "mark_done", "compact", "counters", "manifest", "clear_stage")

# top-level span -> reported layer (ray actions and mark_done are resolved
# by their path / stage in ``_layer_of``)
TOP_LAYER = {
    "kg.input_fingerprint": "kg.discover",
    "checkpoint.gc": "checkpoint.open",
    "checkpoint.__init__": "checkpoint.open",
    "checkpoint.counters": "checkpoint.open",
    "checkpoint.manifest": "checkpoint.open",
    "checkpoint.clear_stage": "checkpoint.open",
    "checkpoint.compact": "checkpoint.compact",
    "canonicalize.merge": "canonicalize.merge",
    "linker.link": "linker.link",
    "kg.nodes_from_merged": "kg.nodes_sink",
    "kg.edges_from_merged": "kg.edges_sink",
}
WRITE_LAYER = {"records": "extract.records", "merged": "checkpoint.merged", "nodes": "kg.nodes_sink", "edges": "kg.edges_sink"}
MARK_LAYER = {"records": "checkpoint.lineage", "merged": "checkpoint.merged", "graph": "checkpoint.compact"}
LAYERS = (
    "kg.discover",
    "checkpoint.open",
    "extract.records",
    "checkpoint.lineage",
    "canonicalize.merge",
    "linker.link",
    "checkpoint.merged",
    "kg.nodes_sink",
    "kg.edges_sink",
    "kg.final_count",
    "checkpoint.compact",
)


def _exchange_count(dag) -> int:
    from ray.data._internal.logical.operators.all_to_all_operator import AbstractAllToAll
    from ray.data._internal.logical.operators.join_operator import Join

    seen, stack, n = set(), [dag], 0
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        n += isinstance(op, (AbstractAllToAll, Join))
        stack.extend(op.input_dependencies)
    return n


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.exchanges = 0
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "run": self.run_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, attrs_of=None) -> None:
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with tracer.span(name, **(attrs_of(args, kwargs) if attrs_of else {})):
                return orig(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def _count_exchanges(self, owner, attr: str) -> None:
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def counted(plan, *args, **kwargs):
            if not plan.has_computed_output():
                tracer.exchanges += _exchange_count(plan._logical_plan.dag)
            return orig(plan, *args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, orig))

    def install(self) -> None:
        from ray.data import Dataset
        from ray.data._internal.plan import ExecutionPlan

        from text_to_graph_ray.pipelines import kg
        from text_to_graph_ray.state import checkpoint

        for fn, name in KG_FUNCS.items():
            attrs_of = None
            if fn == "read_parquet_clean":
                attrs_of = lambda a, kw: {"path": str(a[0]), "columns": kw.get("columns")}  # noqa: E731
            self._wrap(kg, fn, name, attrs_of)
        for fn, name in CHECKPOINT_FUNCS.items():
            self._wrap(checkpoint, fn, name)
        for m in STORE_METHODS:
            attrs_of = None
            if m == "mark_done":
                attrs_of = lambda a, kw: {"stage": a[1], "rows": kw.get("rows")}  # noqa: E731
            self._wrap(checkpoint.CheckpointStore, m, f"checkpoint.{m}", attrs_of)
        for action in ACTIONS:
            if action == "write_parquet":
                attrs_of = lambda a, kw: {"action": "write_parquet", "path": str(a[1] if len(a) > 1 else kw["path"])}  # noqa: E731
            else:
                attrs_of = lambda a, kw, _act=action: {"action": _act, "source": getattr(a[0], "_graft_source", None)}  # noqa: E731
            self._wrap(Dataset, action, f"ray.{action}", attrs_of)
        self._count_exchanges(ExecutionPlan, "execute")
        self._count_exchanges(ExecutionPlan, "execute_to_iterator")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def traced_run(self):
        """Trace one ``kg.run``: install, span it as ``kg.run``, uninstall.
        Spans of one run share its ``run`` id."""
        self.run_id = len(self.spans)
        self.exchanges = 0
        self.install()
        try:
            with self.span("kg.run") as rec:
                yield rec
        finally:
            self.uninstall()

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _read_layer(s: dict) -> str | None:
    """Building a read plan lists and samples files, so it costs real time;
    charge it to the layer that consumes the read."""
    cols = s["columns"] or []
    base = os.path.basename(s["path"].rstrip("/"))
    if cols == ["repo", "path"]:
        return "kg.discover"
    if "content" in cols:
        return "extract.records"
    if base == "records":
        return "checkpoint.lineage" if cols == ["part_id"] else "canonicalize.merge"
    return {"merged": "checkpoint.merged", "nodes": "kg.final_count", "edges": "kg.final_count"}.get(base)


def _layer_of(s: dict) -> str | None:
    action = s.get("action")
    if action == "write_parquet":
        return WRITE_LAYER.get(os.path.basename(s["path"].rstrip("/")))
    if action == "unique":
        return "kg.discover"
    if action == "take_all":
        return "checkpoint.lineage"
    if action == "count":
        src = os.path.basename(str(s.get("source") or "").rstrip("/"))
        return {"merged": "checkpoint.merged", "nodes": "kg.final_count", "edges": "kg.final_count"}.get(src)
    if s["name"] == "kg.read_parquet_clean":
        return _read_layer(s)
    if s["name"] == "checkpoint.mark_done":
        return MARK_LAYER.get(s["stage"])
    return TOP_LAYER.get(s["name"])


def layer_metrics(spans: list[dict], root_id: int) -> dict:
    """Per-layer seconds and counts of one traced run, keyed by metric name.
    ``root_id`` is the run's ``kg.run`` span; its children are the top-level
    spans. ``kg.unattributed_s`` is the part of the run that no top-level
    span of a known layer covers."""
    by_id = {s["id"]: s for s in spans}
    root = by_id[root_id]
    mine = [s for s in spans if s["run"] == root["run"] and s["id"] != root_id]

    def under_action(s: dict) -> bool:
        p = s["parent"]
        while p is not None and p != root_id:
            if "action" in by_id[p]:
                return True
            p = by_id[p]["parent"]
        return False

    top = [s for s in mine if s["parent"] == root_id]
    layers = defaultdict(float)
    for s in top:
        layer = _layer_of(s)
        if layer is not None:
            layers[layer] += _dur(s)
    run_s = _dur(root)
    defs_s = sum(_dur(s) for s in mine if s["name"] == "linker.defs")
    out = {f"{name}_s": layers[name] for name in LAYERS}
    out.update(
        {
            "kg.traced_run_s": run_s,
            "kg.unattributed_s": run_s - sum(layers.values()),
            "linker.defs_s": defs_s,
            "linker.relink_s": layers["linker.link"] - defs_s,
            "linker.broadcast_calls": sum(s["name"] == "linker.relink_broadcast" for s in mine),
            "linker.distributed_calls": sum(s["name"] == "linker.relink_distributed" for s in mine),
            "kg.ray_actions": sum("action" in s and not under_action(s) for s in mine),
            "extract.records_rows": sum(
                s.get("rows") or 0 for s in mine if s["name"] == "checkpoint.mark_done" and s["stage"] == "records"
            ),
            "canonicalize.merged_rows": sum(
                s.get("rows") or 0 for s in mine if s["name"] == "checkpoint.mark_done" and s["stage"] == "merged"
            ),
        }
    )
    return out
