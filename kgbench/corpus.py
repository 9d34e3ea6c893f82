"""Seeded benchmark inputs and their oracles.

Two corpus families, each generated from ``--seed`` alone:

* ``synth``: ``synth.build_corpus(n, seed)`` (4 languages, a giant repo with a
  quarter of the files, alias importers and the fixture edge cases).
* ``code``: call-heavy Python files in the shape of ``synth._scaling_file``
  (8 functions of 250 call lines, targets repeating), generated here together
  with the raw triples each file yields.

Both feed their raw triples to ``synth.expected_tables(..., link=True)``, which
gives the expected canonical edges and nodes. A corpus is written once per
(family, size, seed, generator version) under ``<root>/cache`` and reused.
Run as a script, it builds one corpus and prints its directory; the benchmark
calls it in a child process so the driver's peak memory measures the job, not
the generator.

    python3 kgbench/corpus.py --family code --seed 3 --root .kgbench
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys

GENERATOR_VERSION = 2
NUM_PARTITIONS = 64  # PipelineConfig.num_partitions default: every one must hold a file

# files per corpus; see README.md for why these are smaller than the paper shapes
SIZES = {"synth": 600, "code": 300, "warm": 60}
CODE_FUNCS = 8
CODE_BODY_LINES = 250
COLUMNS = ["repo", "path", "commit", "lang", "content"]


def corpus_dir(root: str, family: str, seed: int) -> str:
    return os.path.join(root, "cache", f"{family}-g{GENERATOR_VERSION}-n{SIZES[family]}-s{seed}")


def _code_file(repo: str, path: str, gid: int, n_files: int, rng: random.Random):
    """One ``_scaling_file``-shaped module and the raw triples it yields: each
    function calls ``log``, its neighbour, two seeded cross-file functions and
    ``os.path`` over and over, so most call edges repeat."""
    from text_to_graph_ray.keys import T_FILE, T_FN, T_MOD, containment_triples

    file_ent = f"{repo}/{path}"
    triples = containment_triples(repo, path)
    triples.append((file_ent, T_FILE, "imports", "os", T_MOD))
    lines = ['"""synthetic module."""', "import os"]
    for k in range(CODE_FUNCS):
        fn = f"fn_{gid}_{k}"
        pool = [
            "log",
            f"fn_{gid}_{(k + 1) % CODE_FUNCS}",
            f"fn_{rng.randrange(n_files)}_{rng.randrange(CODE_FUNCS)}",
            f"fn_{rng.randrange(n_files)}_0",
            "os.path",
        ]
        lines += ["", f"def {fn}(x):", "    y0 = log(x)"]
        for i in range(1, CODE_BODY_LINES):
            lines.append(f"    y{i} = {pool[i % len(pool)]}(y{i - 1})")
        lines.append(f"    return y{CODE_BODY_LINES - 1}")
        triples.append((file_ent, T_FILE, "defines", fn, T_FN))
        triples += [(fn, T_FN, "calls", tgt, T_FN) for tgt in pool]
    return "\n".join(lines) + "\n", triples


def _covers_all_parts(files) -> bool:
    from text_to_graph_ray.state.checkpoint import part_of

    return len({part_of(f["repo"], f["path"], NUM_PARTITIONS) for f in files}) == NUM_PARTITIONS


def build_code(n_files: int, seed: int):
    """(file_rows, raw_triples) for the code family: exactly ``n_files``
    files, the first ``NUM_PARTITIONS`` of which draw their repo (from a
    wider range than the rest, so a match always exists) until they land in
    checkpoint partition ``gid``: every partition holds one and the corpus
    size does not depend on the seed."""
    from text_to_graph_ray.state.checkpoint import part_of
    from text_to_graph_ray.synth import _commit_for

    files, tbf = [], {}
    for gid in range(n_files):
        rng = random.Random(f"{seed}:code:{gid}")
        path = f"src/pkg{gid % 7}/mod_{gid}.py"
        repo = f"org{gid % 40}/repo{rng.randrange(400)}"
        while gid < NUM_PARTITIONS and part_of(repo, path, NUM_PARTITIONS) != gid:
            repo = f"org{gid % 40}/repo{rng.randrange(1 << 20)}"
        content, tr = _code_file(repo, path, gid, n_files, rng)
        files.append({"repo": repo, "path": path, "commit": _commit_for(repo), "lang": "python", "content": content})
        tbf[(repo, path)] = tr
    return files, tbf


def build_synth(n_files: int, seed: int):
    """``synth.build_corpus`` at the first size >= ``n_files`` whose files
    cover every checkpoint partition."""
    from text_to_graph_ray.synth import build_corpus

    n = n_files
    while True:
        files, tbf = build_corpus(n, seed=seed)
        if _covers_all_parts(files):
            return files, tbf
        n += 1


def _write(out: str, family: str, seed: int) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from text_to_graph_ray.state.checkpoint import part_of
    from text_to_graph_ray.synth import expected_tables

    if family == "warm":  # warm-up input only: no partition coverage needed
        from text_to_graph_ray.synth import build_corpus

        files, tbf = build_corpus(SIZES[family], seed=seed)
    else:
        files, tbf = (build_synth if family == "synth" else build_code)(SIZES[family], seed)
    os.makedirs(os.path.join(out, "input"))
    input_path = os.path.join(out, "input", "repo_files.parquet")
    # small row groups so the read splits into many tasks, as synth does
    pq.write_table(pa.table({c: [f[c] for f in files] for c in COLUMNS}), input_path, row_group_size=128)
    edges, nodes = expected_tables(tbf, link=True)
    pq.write_table(pa.Table.from_pylist(edges), os.path.join(out, "expected_edges.parquet"))
    pq.write_table(pa.Table.from_pylist(nodes), os.path.join(out, "expected_nodes.parquet"))
    part_bytes = [0] * NUM_PARTITIONS
    for f in files:
        part_bytes[part_of(f["repo"], f["path"], NUM_PARTITIONS)] += len(f["content"].encode("utf-8"))
    meta = {
        "family": family,
        "seed": seed,
        "generator_version": GENERATOR_VERSION,
        "files": len(files),
        "content_bytes": sum(part_bytes),
        "part_content_bytes": part_bytes,
        "parquet_bytes": os.path.getsize(input_path),
        "expected_nodes": len(nodes),
        "expected_edges": len(edges),
    }
    with open(os.path.join(out, "meta.json"), "w") as fh:
        json.dump(meta, fh)


def ensure(root: str, family: str, seed: int) -> str:
    """Build the corpus unless cached; returns its directory. Writes into a
    temporary sibling and renames, so an interrupted build is never reused."""
    out = corpus_dir(root, family, seed)
    if os.path.exists(os.path.join(out, "meta.json")):
        return out
    tmp = f"{out}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        _write(tmp, family, seed)
        shutil.rmtree(out, ignore_errors=True)
        os.replace(tmp, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--family", choices=sorted(SIZES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args(argv)
    print(ensure(args.root, args.family, args.seed))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.getcwd())
    sys.exit(main())
