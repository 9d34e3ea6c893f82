"""Deterministic per-language triple extraction (the reference's LLM stage,
made testable).

The reference sends each chunk to an LLM with prompt templates
(/root/reference/graph_extractor/src/prompts.py:3-83) and parses the CSV reply
(response_parser.py:10-144). Here the "prompt" is a fixed per-language rule set
(BASELINE.json north rule): imports, call edges, class/function definitions and
repo-path containment, emitted directly as Arrow rows — no text round-trip, no
parser. The reference parser's *semantics* (chunk-local edge dedup
response_parser.py:102, orphan-free output response_parser.py:178-207) hold by
construction and are asserted in tests.

Output is a single flat "records" table: one row per node mention
(kind="node": a=label, b=type) and per edge (kind="edge": a=src_label, b=pred,
c=dst_label), keyed by (repo, path, content_sha256, chunk_index, ord). One pass
over the chunk stream feeds both canonicalization (node records) and triple
assembly (edge records).

Stateless: regexes are compiled at module import, once per worker process
(reference re-resolved its tokenizer per call — gpt.py:27-34; we don't).
"""

from __future__ import annotations

import re

import pyarrow as pa

from text_to_graph_ray.keys import (
    T_CLS,
    T_CONCEPT,
    T_FILE,
    T_FN,
    T_MOD,
    containment_triples,
)

_PY_IMPORT = re.compile(r"^import ([\w.]+)\s*$", re.UNICODE)
_PY_FROM = re.compile(r"^from ([\w.]+) import (.+)$", re.UNICODE)
_PY_DEF = re.compile(r"^def (\w+)\s*\(", re.UNICODE)
_PY_CLASS = re.compile(r"^class (\w+)", re.UNICODE)
_PY_METHOD = re.compile(r"^\s+def (\w+)\s*\(", re.UNICODE)
# The one unanchored scan: an identifier (dots allowed) not preceded by an
# identifier character or a dot, then optional whitespace and "(". Both forms
# open on the first-character class, so `re` can skip ahead to candidates,
# and test the lookbehind only after it; the possessive run gives nothing
# back, which is exact because `\s*\(` never matches a `[\w.]` character.
# `\s` stays Unicode in both, so "\x1c"-"\x1f" still count as whitespace.
_CALL_ASCII = re.compile(r"([A-Za-z_](?<![A-Za-z0-9_.][A-Za-z_])[A-Za-z0-9_.]*+)\s*\(")
_CALL = re.compile(r"([^\W\d](?<![\w.].)[\w.]*+)\s*\(", re.UNICODE)


def _call_re(s: str) -> re.Pattern:
    """The call-scan pattern for ``s``: ``str.isascii`` reads a flag, so the
    choice costs O(1), and the ASCII class scans about 3x faster."""
    return _CALL_ASCII if s.isascii() else _CALL


_PY_KEYWORDS = {"if", "elif", "while", "for", "return", "print", "super", "isinstance", "len", "range", "str", "int", "float", "list", "dict", "set", "tuple", "type"}

_JS_REQUIRE = re.compile(r"require\('([\w./@-]+)'\)")
_JS_IMPORT = re.compile(r"^import .* from '([\w./@-]+)';?$")
_JS_FUNC = re.compile(r"^function (\w+)\s*\(")
_JS_CLASS = re.compile(r"^class (\w+)")
_JS_METHOD = re.compile(r"^  (\w+)\s*\([^)]*\)\s*\{$")
_JS_KEYWORDS = {"require", "if", "for", "while", "return", "function", "switch", "catch", "console.log"}

_JAVA_IMPORT = re.compile(r"^import ([\w.]+);")
_JAVA_CLASS = re.compile(r"^(?:public |final |abstract )*class (\w+)")
_JAVA_METHOD = re.compile(r"^\s{4}[\w<>\[\]]+ (\w+)\s*\([^)]*\)\s*\{$")
_JAVA_KEYWORDS = {"if", "for", "while", "return", "new", "switch", "catch"}

_GO_IMPORT = re.compile(r'^import "([\w./-]+)"')
_GO_BLOCK_IMPORT = re.compile(r'^(?:\w+ |\. |_ )?"([\w./-]+)"$')  # optional alias / dot / blank import
_GO_FUNC = re.compile(r"^func (\w+)\s*\(")
_GO_METHOD = re.compile(r"^func \(\w+ \*?(\w+)\) (\w+)\s*\(")
_GO_TYPE = re.compile(r"^type (\w+) struct")
_GO_KEYWORDS = {
    "if", "for", "return", "len", "make", "append", "switch", "range", "go", "defer",
    "panic", "recover", "print", "println", "new", "cap", "copy", "delete",
    "string", "int", "int64", "float64", "byte",
}

_TEXT_REL = re.compile(r"^([A-Z]\w*) (uses|contains|relates to) ([A-Z]\w*)\.$", re.UNICODE)


def _extract_python(file_ent, lines, node, edge):
    scope = None        # enclosing def/method name for call attribution
    class_ctx = None
    # Call-scan batching (the measured hot path): consecutive body lines of
    # one scope are scanned with a SINGLE finditer over a "\x00"-joined
    # buffer. "\x00" is neither \w nor \s, so the identifier lookbehind and
    # the `\s*\(` tail can never match across the join — per-line semantics
    # are preserved bit-for-bit while the per-line regex overhead disappears.
    buf: list[str] = []

    seen_calls: set = set()  # (scope, target) — calls emit once per file

    def flush():
        if buf and scope:
            # findall (C, one group -> plain strings) + order-preserving
            # dict.fromkeys dedup: edge() then runs once per DISTINCT
            # (scope, target) pair per file instead of once per occurrence
            # (~30x fewer Python calls on call-heavy code). First-occurrence
            # order is preserved, and the chunk-global keep-first dedup in
            # extract_records drops exactly these duplicates anyway, so the
            # emitted record sequence is unchanged.
            body = "\x00".join(buf)
            for tgt in dict.fromkeys(_call_re(body).findall(body)):
                if tgt not in _PY_KEYWORDS and not tgt.startswith("self.") and (scope, tgt) not in seen_calls:
                    seen_calls.add((scope, tgt))
                    edge(scope, T_FN, "calls", tgt, T_FN)
        buf.clear()

    for line in lines:
        if not line:
            continue  # blank line: scope-preserving no-op; keep the buffer intact
        # indented lines match nothing below (all anchored at col 0) except
        # the class-method rule — fast-path them into the call buffer
        if line[:1].isspace():
            if class_ctx and (m := _PY_METHOD.match(line)):
                flush()
                meth = m.group(1)
                edge(class_ctx, T_CLS, "defines", meth, T_FN)
                scope = meth
            elif scope:
                buf.append(line)
            continue
        flush()
        if m := _PY_IMPORT.match(line):
            edge(file_ent, T_FILE, "imports", m.group(1), T_MOD)
        elif m := _PY_FROM.match(line):
            mod = m.group(1)
            edge(file_ent, T_FILE, "imports", mod, T_MOD)
            for name in m.group(2).split(","):
                name = name.strip().split(" as ")[0]
                if name:
                    edge(file_ent, T_FILE, "imports", f"{mod}.{name}", T_MOD)
        elif m := _PY_DEF.match(line):
            fn = m.group(1)
            edge(file_ent, T_FILE, "defines", fn, T_FN)
            scope, class_ctx = fn, None
        elif m := _PY_CLASS.match(line):
            cls = m.group(1)
            edge(file_ent, T_FILE, "defines", cls, T_CLS)
            class_ctx, scope = cls, None
        elif line.strip():
            scope, class_ctx = None, None  # other top-level statement
    flush()


def _extract_js(file_ent, lines, node, edge):
    scope = None
    class_ctx = None
    for line in lines:
        if m := _JS_REQUIRE.search(line):
            edge(file_ent, T_FILE, "imports", m.group(1), T_MOD)
        elif m := _JS_IMPORT.match(line):
            edge(file_ent, T_FILE, "imports", m.group(1), T_MOD)
        elif m := _JS_FUNC.match(line):
            fn = m.group(1)
            edge(file_ent, T_FILE, "defines", fn, T_FN)
            scope, class_ctx = fn, None
        elif m := _JS_CLASS.match(line):
            cls = m.group(1)
            edge(file_ent, T_FILE, "defines", cls, T_CLS)
            class_ctx, scope = cls, None
        elif class_ctx and (m := _JS_METHOD.match(line)):
            meth = m.group(1)
            edge(class_ctx, T_CLS, "defines", meth, T_FN)
            scope = meth
        elif line.startswith("}"):
            scope, class_ctx = None, None
        elif class_ctx and line.strip() == "}":
            scope = None  # method body closed
        elif line[:1].isspace() and scope:
            for m in _call_re(line).finditer(line):
                tgt = m.group(1)
                if tgt not in _JS_KEYWORDS:
                    edge(scope, T_FN, "calls", tgt, T_FN)


def _extract_java(file_ent, lines, node, edge):
    scope = None
    class_ctx = None
    for line in lines:
        if m := _JAVA_IMPORT.match(line):
            edge(file_ent, T_FILE, "imports", m.group(1), T_MOD)
        elif m := _JAVA_CLASS.match(line):
            cls = m.group(1)
            edge(file_ent, T_FILE, "defines", cls, T_CLS)
            class_ctx, scope = cls, None
        elif class_ctx and (m := _JAVA_METHOD.match(line)):
            meth = m.group(1)
            edge(class_ctx, T_CLS, "defines", meth, T_FN)
            scope = meth
        elif scope and line.startswith(" " * 8):
            for m in _call_re(line).finditer(line):
                tgt = m.group(1)
                if tgt not in _JAVA_KEYWORDS:
                    edge(scope, T_FN, "calls", tgt, T_FN)


def _extract_go(file_ent, lines, node, edge):
    scope = None
    in_import_block = False
    for line in lines:
        if in_import_block:  # grouped form: import ( "a" \n alias "b" ... )
            stripped = line.strip()
            if stripped == ")":
                in_import_block = False
            elif m := _GO_BLOCK_IMPORT.match(stripped):
                edge(file_ent, T_FILE, "imports", m.group(1), T_MOD)
            continue
        if line.strip() == "import (":
            in_import_block = True
            scope = None
        elif m := _GO_IMPORT.match(line):
            edge(file_ent, T_FILE, "imports", m.group(1), T_MOD)
        elif m := _GO_METHOD.match(line):  # before _GO_FUNC: both start with "func"
            typ, meth = m.group(1), m.group(2)
            edge(typ, T_CLS, "defines", meth, T_FN)
            scope = meth
        elif m := _GO_FUNC.match(line):
            fn = m.group(1)
            edge(file_ent, T_FILE, "defines", fn, T_FN)
            scope = fn
        elif m := _GO_TYPE.match(line):
            edge(file_ent, T_FILE, "defines", m.group(1), T_CLS)
            scope = None
        elif line[:1].isspace():
            if scope:
                for m in _call_re(line).finditer(line):
                    tgt = m.group(1)
                    if tgt not in _GO_KEYWORDS:
                        edge(scope, T_FN, "calls", tgt, T_FN)
        elif line.strip():
            scope = None  # '}', package clause, comments — top-level reset


def _extract_text(file_ent, lines, node, edge):
    for line in lines:
        if m := _TEXT_REL.match(line.strip()):
            edge(m.group(1), T_CONCEPT, m.group(2), m.group(3), T_CONCEPT)


def _module_of(path: str) -> str:
    return path.rsplit(".", 1)[0].replace("/", ".")


_EXTRACTORS = {
    "python": _extract_python,
    "javascript": _extract_js,
    "java": _extract_java,
    "go": _extract_go,
    "text": _extract_text,
}

RECORD_FIELDS = [
    ("repo", pa.string()),
    ("path", pa.string()),
    ("content_sha256", pa.string()),
    ("chunk_index", pa.int64()),
    ("ord", pa.int64()),
    ("kind", pa.string()),   # "node" | "edge"
    ("a", pa.string()),      # node: label | edge: src_label
    ("b", pa.string()),      # node: type  | edge: pred
    ("c", pa.string()),      # node: ""    | edge: dst_label
]


def mention_consistency_filter(batch: pa.Table) -> pa.Table:
    """L2 semantics (reference graph_generator.py:160-212): the triple pass is
    seeded with the chunk's L1 mention list; edges whose endpoints are not in
    that chunk's mention set are dropped. Chunk-local — no join, no shuffle
    (the mention set is re-derived from the node records riding the same
    batch, which is exact because extraction emits every endpoint as a node
    record)."""
    kinds = batch.column("kind").to_pylist()
    repos = batch.column("repo").to_pylist()
    paths = batch.column("path").to_pylist()
    idxs = batch.column("chunk_index").to_pylist()
    a = batch.column("a").to_pylist()
    c = batch.column("c").to_pylist()

    mentions: dict[tuple, set] = {}
    for kind, r, p, i, label in zip(kinds, repos, paths, idxs, a):
        if kind == "node":
            mentions.setdefault((r, p, i), set()).add(label)
    keep = []
    for kind, r, p, i, s, d in zip(kinds, repos, paths, idxs, a, c):
        if kind != "edge":
            keep.append(True)
        else:
            m = mentions.get((r, p, i), set())
            keep.append(s in m and d in m)
    return batch.filter(pa.array(keep))


def extract_records(batch: pa.Table) -> pa.Table:
    """chunk rows -> flat node/edge records; chunk-local edge dedup keep-first
    (response_parser.py:102 semantics); nodes emitted only as edge endpoints so
    the output is orphan-free by construction (response_parser.py:178-207)."""
    out: dict[str, list] = {name: [] for name, _ in RECORD_FIELDS}

    repos = batch.column("repo").to_pylist()
    paths = batch.column("path").to_pylist()
    shas = batch.column("content_sha256").to_pylist()
    idxs = batch.column("chunk_index").to_pylist()
    langs = batch.column("lang").to_pylist()
    texts = batch.column("text").to_pylist()

    for repo, path, sha, cidx, lang, text in zip(repos, paths, shas, idxs, langs, texts):
        ordc = 0
        seen_edges: set = set()
        seen_nodes: set = set()

        def emit(kind, a, b, c):
            nonlocal ordc
            out["repo"].append(repo)
            out["path"].append(path)
            out["content_sha256"].append(sha)
            out["chunk_index"].append(cidx)
            out["ord"].append(ordc)
            out["kind"].append(kind)
            out["a"].append(a)
            out["b"].append(b)
            out["c"].append(c)
            ordc += 1

        def node(label, typ):
            key = (label, typ)
            if key not in seen_nodes:
                seen_nodes.add(key)
                emit("node", label, typ, "")

        def edge(src, src_t, pred, dst, dst_t):
            node(src, src_t)
            node(dst, dst_t)
            key = (src, pred.lower(), dst)
            if key not in seen_edges:  # chunk-local keep-first dedup
                seen_edges.add(key)
                emit("edge", src, pred, dst)
                if pred == "defines":
                    # definition-site record: (name, defining module path) —
                    # rides the same stream so the linking index can be read
                    # off the merged graph without a second extraction pass
                    emit("def", dst, _module_of(path), "")

        if cidx == 0:  # repo-path containment emitted once per file
            for (s, st, p, d, dt) in containment_triples(repo, path):
                edge(s, st, p, d, dt)

        extractor = _EXTRACTORS.get(lang, _extract_text)
        file_ent = f"{repo}/{path}"
        extractor(file_ent, (text or "").split("\n"), node, edge)

    return pa.table({name: pa.array(out[name], type=typ) for name, typ in RECORD_FIELDS})
