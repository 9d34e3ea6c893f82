"""Benchmark of the KG job path: ``text_to_graph_ray.pipelines.kg.run``.

    python3 kgbench/run.py --workload synth --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It generates the workload's corpus and oracle
from ``--seed`` (cached under ``.kgbench/cache``), starts a local Ray session,
then for ``--seconds`` repeats fresh build -> resume of 8 invalidated
partitions -> no-op reruns, twice per cycle, calling
``kg.run`` back to back (one client, closed loop). Every call is checked: its
counters, the written ``nodes/`` and ``edges/`` against the oracle, and the
output's content hash. Reported times are net of CPU time the hypervisor
gave to other guests during the call (see ``ran_share``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced calls and prints the per-layer metrics (spans, counts, and kernel
rates from a single-threaded pass). The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the host facts, which are also written to ``.kgbench/results``. See
``kgbench/README.md`` for workloads, metrics and settings.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = ".kgbench"
NUM_CPUS = 2  # see README.md: at 1 logical CPU the linker actor stalls the next stage
OBJECT_STORE_BYTES = 512 << 20
SETUP_REPS = 2
NOOP_REPS = 3
# one cycle of the timed loop. Fresh builds and resumes vary by ~10% from
# call to call, so a cycle holds two of each: with one, the median of a run
# spread by 0.12-0.13 across seeds
CYCLE = ("fresh", "resume", "noop", "fresh", "resume", "noop")
NUM_PARTITIONS = 64
RESUME_PARTS = 8
MAX_TEMP_DIR_CHARS = 40  # Ray's socket paths append ~65 chars; AF_UNIX allows 107
# keep idle workers instead of killing them after 1 s: otherwise each call
# restarts worker processes at random points and run_s swings by ~30%
RAY_SYSTEM_CONFIG = {"idle_worker_killing_time_threshold_ms": 600_000, "num_workers_soft_limit": 6}

WORKLOADS = ("synth", "code")  # corpus families in corpus.py

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "triples_per_s": "1/s",
    "resume_s": "s",
    "noop_rerun_s": "s",
    "triple_precision": "ratio",
    "triple_recall": "ratio",
    "node_precision": "ratio",
    "node_recall": "ratio",
    "resume_exact": "bool",
    "ok_ops_frac": "ratio",
    "out_bytes_per_input_byte": "ratio",
    "driver_peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_rows_per_s"):
        return "rows/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


SPAN_METRICS = [
    "kg.traced_run_s",
    "kg.discover_s",
    "checkpoint.open_s",
    "extract.records_s",
    "extract.records_rows",
    "checkpoint.lineage_s",
    "checkpoint.merged_s",
    "checkpoint.compact_s",
    "checkpoint.bytes_written",
    "checkpoint.files_written",
    "canonicalize.merge_s",
    "canonicalize.merged_rows",
    "linker.link_s",
    "linker.defs_s",
    "linker.relink_s",
    "linker.broadcast_calls",
    "linker.distributed_calls",
    "kg.nodes_sink_s",
    "kg.edges_sink_s",
    "kg.final_count_s",
    "kg.unattributed_s",
    "kg.trace_overhead_s",
    "kg.ray_actions",
    "kg.exchange_ops",
]
KERNEL_METRICS = [
    "hashing.sha256_mb_per_s",
    "chunker.chunk_mb_per_s",
    "extract.extract_mb_per_s",
    "linker.keys_rows_per_s",
    "canonicalize.partials_rows_per_s",
    "canonicalize.combiner_ratio",
    "canonicalize.merge_rows_per_s",
    "linker.relink_rows_per_s",
    "linker.changed_frac",
]
# raw walls of the untraced calls, and the mean share of the CPU demand of a
# call that the hypervisor ran (see ``ran_share``)
WALL_METRICS = ["wall.run_s", "wall.resume_s", "wall.noop_rerun_s", "host.ran_frac"]
# spans of the fresh build, the same spans of the resume, kernels, then walls
PER_LAYER = SPAN_METRICS + [f"resume.{k}" for k in SPAN_METRICS] + KERNEL_METRICS + ["kg.engine_overhead_s"] + WALL_METRICS


# ---------------------------------------------------------------------------
# process facts
# ---------------------------------------------------------------------------


def process_age() -> float:
    """Seconds since this process started (kernel start time, clock ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    with open("/proc/uptime") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")


def cpu_ticks() -> list[int]:
    """Host-wide CPU tick counters from /proc/stat: user, nice, system, idle,
    iowait, irq, softirq, steal."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:9]]


def ran_share(before: list[int], after: list[int]) -> float:
    """Share of the VM's CPU demand between two ``cpu_ticks`` readings that
    the hypervisor actually ran: busy / (busy + steal). Steal accrues only
    while a virtual CPU wants to run, so 1 - share is the part of the demand
    that other guests took."""
    d = [b - a for a, b in zip(before, after)]
    busy = sum(d) - d[3] - d[4] - d[7]
    return busy / (busy + d[7]) if busy + d[7] > 0 else 1.0


def cpu_shares(before: list[int], after: list[int]) -> dict:
    """Share of host CPU time that was busy, and that the hypervisor stole,
    between two ``cpu_ticks`` readings."""
    d = [b - a for a, b in zip(before, after)]
    total = sum(d) or 1
    return {"host_busy_share": (total - d[3] - d[4] - d[7]) / total, "host_steal_share": d[7] / total}


def reset_peak_rss() -> None:
    """Reset VmHWM so the next reading is the peak since now (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def descendants(pid: int) -> set[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, todo = set(), [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def wait_ended(pids: set[int], timeout: float = 20.0) -> None:
    """Reap and wait for ``pids``; SIGKILL whatever outlives ``timeout``."""
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        live = {p for p in pids if _alive(p)}
        if not live:
            return
        if time.monotonic() > deadline and not killed:
            for p in live:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            killed = True
            deadline = time.monotonic() + 5.0
        elif time.monotonic() > deadline:
            raise RuntimeError(f"processes still running after SIGKILL: {sorted(live)}")
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# Ray session
# ---------------------------------------------------------------------------


def start_ray() -> None:
    import ray
    from ray.data import DataContext

    kwargs = {}
    temp_dir = os.path.abspath(os.path.join(ROOT, "ray"))
    if len(temp_dir) <= MAX_TEMP_DIR_CHARS:
        kwargs["_temp_dir"] = temp_dir
    else:
        print(f"kgbench: checkout path too long for Ray sockets; using Ray's default temp dir", file=sys.stderr)
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _system_config=RAY_SYSTEM_CONFIG,
        **kwargs,
    )
    DataContext.get_current().enable_progress_bars = False


def stop_ray() -> None:
    import ray

    started = descendants(os.getpid())
    ray.shutdown()
    wait_ended(started)


def warm_up(warm_input: str) -> None:
    """The set-up warm-up: a small extraction pass, so worker processes exist
    and have imported the stages."""
    from text_to_graph_ray.pipelines import kg

    kg.keyed_records(kg.records_dataset(warm_input)).materialize()


# ---------------------------------------------------------------------------
# checked kg.run calls
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, name: str, seed: int, corpus: str, work: str):
        import pyarrow.parquet as pq

        self.name, self.seed = name, seed
        self.input = os.path.join(corpus, "input", "repo_files.parquet")
        self.exp_nodes = pq.read_table(os.path.join(corpus, "expected_nodes.parquet"))
        self.exp_edges = pq.read_table(os.path.join(corpus, "expected_edges.parquet"))
        with open(os.path.join(corpus, "meta.json")) as fh:
            self.meta = json.load(fh)
        self.out = os.path.join(work, "out")
        self.rng = random.Random(f"{seed}:{name}:invalidate")
        self.attempted = 0
        self.failed = 0
        self.scores: list[dict] = []
        self.ref_hash: str | None = None
        self.perturbation_rejected: bool | None = None
        self.tracer = None  # set to a Tracer to trace the calls
        self.last_root: dict | None = None  # kg.run span of the last traced call
        self.last_rss_mb = 0.0  # driver peak RSS during the last kg.run
        self.last_net_s = 0.0  # wall of the last kg.run net of stolen CPU time
        self.ran_shares: list[float] = []  # ran_share of every call, in order
        self.samples: dict[str, dict] = {}  # every timed wall and net time, by metric

    def _expect(self, res: dict, computed: int) -> bool:
        ok = (
            res["parts_total"] == NUM_PARTITIONS
            and res["parts_computed"] == computed
            and res["parts_skipped"] == NUM_PARTITIONS - computed
            and res["nodes"] == self.meta["expected_nodes"]
            and res["edges"] == self.meta["expected_edges"]
        )
        if not ok:
            print(f"kgbench: unexpected counters {res} (want {computed} computed)", file=sys.stderr)
        return ok

    def _check_output(self) -> tuple[bool, str]:
        from kgbench import oracle

        nodes, edges = oracle.read_graph(self.out)
        s = oracle.score(nodes, edges, self.exp_nodes, self.exp_edges)
        self.scores.append(s)
        if self.perturbation_rejected is None:
            self.perturbation_rejected = oracle.rejects_perturbation(nodes, edges, self.exp_nodes, self.exp_edges)
        if not oracle.passes(s):
            print(f"kgbench: output differs from the oracle: {s}", file=sys.stderr)
        return oracle.passes(s), oracle.content_hash(nodes, edges)

    def call(self, computed: int, check_output: bool = True) -> tuple[bool, float, dict | None]:
        """One checked ``kg.run``; returns (ok, wall seconds, counters). The
        first checked output fixes the reference content hash that every
        later output must match."""
        from text_to_graph_ray.pipelines import kg

        self.attempted += 1
        res = None
        gc.collect()  # the previous call's garbage is not collected inside this one
        t = time.perf_counter()
        try:
            with self.tracer.traced_run() if self.tracer else contextlib.nullcontext() as root:
                reset_peak_rss()
                ticks = cpu_ticks()
                t = time.perf_counter()
                res = kg.run(self.input, self.out)
                wall = time.perf_counter() - t
                share = ran_share(ticks, cpu_ticks())
                self.last_net_s = wall * share
                self.ran_shares.append(share)
                self.last_rss_mb = peak_rss_mb()
            self.last_root = root
            ok = self._expect(res, computed)
            if check_output:
                passed, h = self._check_output()
                if self.ref_hash is None:
                    self.ref_hash = h
                if h != self.ref_hash:
                    print("kgbench: output content hash differs from the first build", file=sys.stderr)
                ok = ok and passed and h == self.ref_hash
        except Exception:
            traceback.print_exc()
            wall = self.last_net_s = time.perf_counter() - t
            ok = False
        self.failed += not ok
        return ok, wall, res

    def fresh(self) -> tuple[bool, float, dict | None, int]:
        """A build into an empty output dir. Returns (ok, s, counters,
        content bytes extracted)."""
        shutil.rmtree(self.out, ignore_errors=True)
        ok, wall, res = self.call(NUM_PARTITIONS)
        return ok, wall, res, self.meta["content_bytes"]

    def resume(self) -> tuple[bool, float, dict | None, int]:
        """Invalidate ``RESUME_PARTS`` seeded record partitions of the
        completed dir, then resume; same return as ``fresh``."""
        from text_to_graph_ray.config import DEFAULT_CONFIG
        from text_to_graph_ray.state.checkpoint import CheckpointStore

        parts = sorted(self.rng.sample(range(NUM_PARTITIONS), RESUME_PARTS))
        CheckpointStore(os.path.join(self.out, "checkpoints"), DEFAULT_CONFIG.config_hash()).invalidate_parts(
            "records", parts
        )
        ok, wall, res = self.call(RESUME_PARTS)
        return ok, wall, res, sum(self.meta["part_content_bytes"][p] for p in parts)

    def noop(self) -> tuple[list[float], list[float]]:
        """``NOOP_REPS`` reruns on the completed dir; the last is
        output-checked. Returns their wall and net seconds."""
        walls, nets = [], []
        for i in range(NOOP_REPS):
            _, wall, _ = self.call(0, check_output=i == NOOP_REPS - 1)
            walls.append(wall)
            nets.append(self.last_net_s)
        return walls, nets


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def records_rows(out: str) -> int:
    """Rows in the records checkpoint: what canonicalization reads."""
    import pyarrow.parquet as pq

    total = 0
    for root, _, names in os.walk(os.path.join(out, "checkpoints")):
        if "records" in root.split(os.sep):
            total += sum(pq.ParquetFile(os.path.join(root, n)).metadata.num_rows for n in names if n.endswith(".parquet"))
    return total


def measure_e2e(w: Workload, seconds: float) -> dict:
    """Cycles of ``CYCLE`` for ``seconds``. The first cycle always runs in
    full; after it, a step starts only if it is expected (from its last
    duration) to end within ``seconds``. Times are net of stolen CPU time
    (see ``ran_share``); raw walls go to the host facts."""
    from kgbench import oracle

    net = {"run_s": [], "resume_s": [], "noop_rerun_s": []}
    wall = {k: [] for k in net}
    tps, out_ratio, rss = [], [], []
    took: dict[str, float] = {}
    exact = True
    deadline = time.perf_counter() + seconds
    for n, step in enumerate(itertools.cycle(CYCLE)):
        if n >= len(CYCLE) and time.perf_counter() + took[step] > deadline:
            break
        t = time.perf_counter()
        fails = w.failed
        if step == "noop":
            walls, nets = w.noop()
            wall["noop_rerun_s"] += walls
            net["noop_rerun_s"] += nets
        else:
            _, dt, res, _ = w.fresh() if step == "fresh" else w.resume()
            key = "run_s" if step == "fresh" else "resume_s"
            wall[key].append(dt)
            net[key].append(w.last_net_s)
            rss.append(w.last_rss_mb)
            if step == "fresh":
                tps.append((res or {}).get("edges", 0) / w.last_net_s)
                out_ratio.append(oracle.dir_bytes(w.out) / w.meta["parquet_bytes"])
        if step != "fresh":
            exact = exact and w.failed == fails
        took[step] = time.perf_counter() - t
    w.samples = {"wall": wall, "net": net}
    return {
        **{k: statistics.median(v) for k, v in net.items()},
        "triples_per_s": statistics.median(tps),
        "resume_exact": 1.0 if exact else 0.0,
        "out_bytes_per_input_byte": statistics.median(out_ratio),
        "driver_peak_rss_mb": max(rss),
    }


def _traced_call(tracer, w: Workload, step) -> tuple[float, dict]:
    from kgbench import oracle
    from kgbench.tracing import layer_metrics

    ck = os.path.join(w.out, "checkpoints")
    before = oracle.file_stats(ck) if step == w.resume else {}
    w.tracer = tracer
    try:
        _, wall, _, content = step()
    finally:
        w.tracer = None
    written = {p: v for p, v in oracle.file_stats(ck).items() if before.get(p) != v}
    m = layer_metrics(tracer.spans, w.last_root["id"])
    m["kg.exchange_ops"] = tracer.exchanges
    m["checkpoint.bytes_written"] = sum(size for size, _ in written.values())
    m["checkpoint.files_written"] = len(written)
    m["_content"] = content
    m["_all_records"] = records_rows(w.out)
    return wall, m


def _medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def measure_layers(w: Workload, seconds: float, spans_path: str) -> dict:
    """Alternate untraced and traced reps (fresh build -> resume -> no-op
    reruns); per-layer figures come from the traced calls."""
    from kgbench.kernels import implied_kernel_seconds, kernel_rates
    from kgbench.tracing import Tracer

    tracer = Tracer()
    walls = {(step, traced): [] for step in ("fresh", "resume") for traced in (False, True)}
    noop_walls = []
    layers = {"fresh": [], "resume": []}
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < 2 or time.perf_counter() < deadline:
        for name, step in (("fresh", w.fresh), ("resume", w.resume)):
            if rep % 2:
                wall, m = _traced_call(tracer, w, step)
                layers[name].append(m)
            else:
                wall = step()[1]
            walls[(name, bool(rep % 2))].append(wall)
        noop_walls += w.noop()[0]
        rep += 1
    tracer.dump(spans_path)

    out = {}
    for name, prefix in (("fresh", ""), ("resume", "resume.")):
        m = _medians(layers[name])
        m["kg.trace_overhead_s"] = statistics.median(walls[(name, True)]) - statistics.median(walls[(name, False)])
        if m["kg.unattributed_s"] > 0.1 * m["kg.traced_run_s"]:
            print(f"kgbench: {prefix}kg.unattributed_s exceeds 10% of the traced run", file=sys.stderr)
        out.update({prefix + k: v for k, v in m.items()})
    out.update(kernel_rates(w.input))
    out["kg.engine_overhead_s"] = statistics.median(walls[("fresh", False)]) - implied_kernel_seconds(
        out, out["_content"], out["_all_records"], out["canonicalize.merged_rows"]
    )
    out["wall.run_s"] = statistics.median(walls[("fresh", False)])
    out["wall.resume_s"] = statistics.median(walls[("resume", False)])
    out["wall.noop_rerun_s"] = statistics.median(noop_walls)
    out["host.ran_frac"] = statistics.mean(w.ran_shares)
    return out


def host_facts(w: Workload, load_before: float, ticks_before: list[int], setup_runs: list[float], setup_nets: list[float], warm_s: float) -> dict:
    import pyarrow
    import ray

    return {
        "workload": w.name,
        "seed": w.seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        **cpu_shares(ticks_before, cpu_ticks()),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "ray_init_num_cpus": NUM_CPUS,
        "ray_system_config": RAY_SYSTEM_CONFIG,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "setup_runs_s": setup_runs,
        "setup_net_s": setup_nets,
        "call_ran_shares": w.ran_shares,
        "first_build_s": warm_s,
        "samples": w.samples,
        "corpus": {k: w.meta[k] for k in ("family", "files", "content_bytes", "parquet_bytes", "expected_nodes", "expected_edges")},
        "note": (
            "kg_pipeline_wall in BENCH_r0x.json timed graph_tables().count() at 32 CPUs: "
            "no sink, checkpoint or manifest. It is a different quantity; do not compare it with run_s."
        ),
    }


def ensure_corpus(family: str, seed: int) -> str:
    from kgbench.corpus import corpus_dir

    cached = corpus_dir(ROOT, family, seed)
    if os.path.exists(os.path.join(cached, "meta.json")):
        return cached
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.py"),
         "--family", family, "--seed", str(seed), "--root", ROOT],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"corpus generation failed for {family} seed {seed}")
    return proc.stdout.strip().splitlines()[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kg.run benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.getcwd())
    try:
        import ray  # noqa: F401

        from text_to_graph_ray.pipelines import kg  # noqa: F401
    except ImportError as exc:
        print(f"kgbench: cannot import the program from {os.getcwd()}: {exc}", file=sys.stderr)
        return 2
    import_s = process_age()
    load_before = os.getloadavg()[0]
    ticks_before = cpu_ticks()
    # Ray workers import the program from the checkout too
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (os.getcwd(), os.environ.get("PYTHONPATH")) if p)

    corpus = ensure_corpus(args.workload, args.seed)
    warm = os.path.join(ensure_corpus("warm", 0), "input", "repo_files.parquet")
    work = os.path.join(ROOT, "work", f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    w = Workload(args.workload, args.seed, corpus, work)

    setup_runs, setup_nets, warm_s = [], [], float("nan")
    try:
        for i in range(SETUP_REPS):
            ticks = cpu_ticks()
            t = time.perf_counter()
            start_ray()
            warm_up(warm)
            setup_runs.append(time.perf_counter() - t)
            setup_nets.append(setup_runs[-1] * ran_share(ticks, cpu_ticks()))
            if i < SETUP_REPS - 1:
                stop_ray()
        # untimed first build: later calls skip its one-off costs (first
        # exchange, first actor pool, first write)
        warm_s = w.fresh()[1]
        if args.trace:
            metrics = measure_layers(w, args.seconds, os.path.join(ROOT, "spans", f"{args.workload}-s{args.seed}.json"))
            units = {k: layer_unit(k) for k in PER_LAYER}
        else:
            metrics = measure_e2e(w, args.seconds)
            metrics["setup_s"] = import_s + statistics.median(setup_nets)
            for k in ("triple_precision", "triple_recall", "node_precision", "node_recall"):
                metrics[k] = min(s[k] for s in w.scores)
            metrics["ok_ops_frac"] = 1 - w.failed / w.attempted
            units = E2E_UNITS
    finally:
        stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(os.path.join(ROOT, "ray"), ignore_errors=True)  # session logs

    correct = w.failed == 0 and w.perturbation_rejected is True
    if w.perturbation_rejected is not True:
        print("kgbench: the oracle comparison accepted a perturbed edges table", file=sys.stderr)
    host = host_facts(w, load_before, ticks_before, setup_runs, setup_nets, warm_s)
    result = {
        "correct": correct,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    os.makedirs(os.path.join(ROOT, "results"), exist_ok=True)
    with open(os.path.join(ROOT, "results", f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump({"host": host, **result}, fh)
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
