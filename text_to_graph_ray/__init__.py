"""text_to_graph_ray — a Ray-Data-native knowledge-graph construction engine.

Re-expresses the query/data-processing semantics of the reference repo
``nobody-qwert/text-to-graph`` (LLM-driven triple extraction over documents,
entity canonicalization, graph materialize) as deterministic, testable Ray
Data stages over Parquet tables of source-code repositories. The job,
``pipelines.kg.run``, is:

    read_parquet(repo_files)                      # (repo, path, lang, content), read once;
                                                  #   rows of done partitions dropped
      -> map_batches(add_sha256)                  # per-row invariant column
      -> map_batches(chunk_files)                 # code-aware chunking + context padding
      -> map_batches(extract_records)             # per-lang deterministic extraction
      -> write_parquet(records/part_id=k/)        # checkpoint + per-partition manifests
      -> map_batches(_plain_keys, combined_partials)  # entity keys + per-batch combiner
      -> link_merged                              # stateless alias-linking pass over the
                                                  #   partials (broadcast pruned defs)
      -> sort(k1, kind, g2, g3)                   # the ONE exchange, in final sink order,
         -> map_batches(merge_bucket)             #   merged once per block
      -> write_parquet(merged/)                   # second checkpoint level (same result)
      -> split + dense ids -> write_parquet(nodes/, edges/)   # no sort

Nothing here calls ``ray.init()``; callers (bench.py, tests, CLI) own the
Ray session.
"""

from text_to_graph_ray.config import PipelineConfig

__all__ = ["PipelineConfig"]
__version__ = "0.1.0"
