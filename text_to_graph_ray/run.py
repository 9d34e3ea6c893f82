"""Job entrypoint for ``ray job submit`` / CLI use:

    ray job submit -- python -m text_to_graph_ray.run \
        --input /data/repo_files --out /data/kg_out --chunk-size 1000

Owns its Ray session (guarded init so it also works when a session already
exists — e.g. under the job driver)."""

from __future__ import annotations

from text_to_graph_ray.util import read_parquet_clean

import argparse
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Ray-Data-native KG construction over a repo_files parquet table")
    ap.add_argument("--input", required=True, help="parquet file/dir with (repo, path, commit, lang, content)")
    ap.add_argument("--out", required=True, help="output prefix (nodes/, edges/, checkpoints/ written under it)")
    ap.add_argument("--chunk-size", type=int, default=1000)
    ap.add_argument("--padding", choices=["none", "chars", "chunks"], default="none")
    ap.add_argument("--two-pass", action="store_true", help="L1 mentions -> L2 triples (reference high-resolution mode)")
    ap.add_argument("--no-link", action="store_true", help="disable alias linking")
    ap.add_argument("--no-resume", action="store_true", help="ignore existing checkpoints")
    ap.add_argument("--partitions", type=int, default=64)
    ap.add_argument("--num-cpus", type=int, default=0, help="ray.init num_cpus (0 = let ray decide)")
    ap.add_argument("--html", help="also write a viewer HTML to this path")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "ignore_reinit_error": True, "logging_level": "ERROR"}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(address="local", **kwargs)

    from text_to_graph_ray.config import PipelineConfig
    from text_to_graph_ray.pipelines import kg

    cfg = PipelineConfig(
        chunk_size=args.chunk_size,
        padding_mode=args.padding,
        two_pass=args.two_pass,
        link_aliases=not args.no_link,
        num_partitions=args.partitions,
    )
    counters = kg.run(args.input, args.out, cfg, resume=not args.no_resume)
    print(json.dumps(counters))

    if args.html:
        from text_to_graph_ray.pipelines.viewer import write_graph_html

        nodes = read_parquet_clean(f"{args.out}/nodes").to_pandas()
        edges = read_parquet_clean(f"{args.out}/edges").to_pandas()
        write_graph_html(nodes, edges, args.html)

    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
