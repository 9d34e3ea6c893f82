"""Large-scale training-data operations: deduplication (exact / MinHash-LSH /
SimHash / n-gram Jaccard / connected-component survivors), text quality and
language signals, deterministic sampling, sketches and statistics, semi/anti
filters and lookup joins, and the graph operators the kg_* queries use."""
