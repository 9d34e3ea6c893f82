"""Pipeline configuration — the cache/checkpoint identity.

Mirrors the reference's ``Configurations`` table semantics
(/root/reference/graph_extractor/src/sqlite_support.py:50-60, config.py:191-229):
the tuple of extraction-relevant knobs is hashed into ``config_hash`` and that
hash keys every checkpoint partition, so a changed config never reuses stale
cached stage output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class PipelineConfig:
    # chunking (reference: config.py:191-208 — 1000 "normal" / 300 "high")
    chunk_size: int = 1000          # target tokens per chunk
    max_factor: float = 1.1         # hard cap = chunk_size * max_factor
    min_factor: float = 0.5         # chunks below chunk_size * min_factor merge
    # context padding (reference: graph_generator.py:194-199, 247-288)
    # "chars" (L0-style overlap) | "chunks" (L2-style ±1 chunk) | "none".
    # Default "none": the deterministic extractors read `text` only, so
    # padding would double the chunk stream's bytes for nothing; switch to
    # "chars"/"chunks" for the two-pass mention-hint mode.
    padding_mode: str = "none"
    overlap_chars: int = 100        # L0 overlap coefficient (reference config.py:204)
    # token counting (reference gpt.py:27-34: tiktoken encoding_for_model
    # when available, len(text.split()) fallback). "whitespace" is the
    # default — deterministic and dependency-free; "tiktoken" resolves the
    # model encoding ONCE PER WORKER PROCESS (not per call like the
    # reference) and falls back to whitespace when the package is absent.
    tokenizer: str = "whitespace"   # "whitespace" | "tiktoken"
    tokenizer_model: str = "gpt-4o-mini"
    # extraction
    two_pass: bool = False          # L1 mentions then L2 triples vs single-pass L0
    # entity linking
    link_aliases: bool = True       # union-find alias merge of dotted/bare names
    # user-declared re-export aliases ((alias_key, target_key) pairs, e.g.
    # ("pkg.fn", "mod.fn") for a package __init__ re-export). CHAINED aliases
    # are supported: the map is closed transitively (min-label on cycles) on
    # the driver before linking, and the def rule composes after the closed
    # hop — "pkg.fn" -> "mod.fn" -> "fn" resolves in one linker pass.
    reexports: tuple = field(default_factory=tuple)
    # physical
    num_partitions: int = 64        # checkpoint/shuffle partition count
    batch_size: int = 1024          # rows per map_batches call on file-level stages
    stop_entities: tuple = field(default_factory=tuple)  # entity keys dropped pre-shuffle

    @property
    def max_tokens(self) -> int:
        return int(self.chunk_size * self.max_factor)

    @property
    def min_tokens(self) -> int:
        return int(self.chunk_size * self.min_factor)

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def high_resolution(cls, **overrides) -> "PipelineConfig":
        """The reference's "high" resolution preset (config.py:191-208):
        300-token chunks, ±1-chunk context padding, two-pass extraction.
        With the deterministic extractors the GRAPH is invariant to the
        preset (blocks never split a definition; the mention gate is exact) —
        asserted by the kg_triples_hires driver oracle."""
        kw = {"chunk_size": 300, "padding_mode": "chunks", "two_pass": True}
        kw.update(overrides)
        return cls(**kw)


DEFAULT_CONFIG = PipelineConfig()
