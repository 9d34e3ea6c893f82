"""Property tests: engine kernels == naive reference implementations
(expected.py) on arbitrary inputs — not just the fixed test corpora. These
are the pure-python halves of the oracle pairs, so hypothesis can hammer them
cheaply (no Ray involved)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),  # any unicode except surrogates
    max_size=400,
)
word_texts = st.lists(
    st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=1000), min_size=1, max_size=12),
    max_size=60,
).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(word_texts)
def test_minhash_signature_matches_naive(t):
    from text_to_graph_ray.expected import _minhash_params, naive_minhash_sig
    from text_to_graph_ray.functions.dedup import MinHasher

    eng = MinHasher().signature(t)
    a, b = _minhash_params(64, 42)
    ref = naive_minhash_sig(t, a, b)
    assert (np.asarray(eng, dtype=np.uint64) == ref).all()


@settings(max_examples=150, deadline=None)
@given(word_texts)
def test_simhash_matches_naive(t):
    from text_to_graph_ray.expected import naive_simhash64
    from text_to_graph_ray.functions.dedup import simhash64

    assert simhash64(t) == naive_simhash64(t)


@settings(max_examples=150, deadline=None)
@given(texts)
def test_langid_and_quality_match_naive(t):
    from text_to_graph_ray.expected import naive_lang, naive_quality
    from text_to_graph_ray.functions.text import detect_lang, quality_score
    import pyarrow as pa

    assert detect_lang(t) == naive_lang(t)
    b = pa.table({"doc_id": pa.array([0], type=pa.int64()), "text": pa.array([t], type=pa.string())})
    q = quality_score(b)
    got = (
        q.column("mean_tok_len")[0].as_py(),
        q.column("stop_ratio")[0].as_py(),
        q.column("alpha_ratio")[0].as_py(),
        q.column("quality")[0].as_py(),
    )
    assert got == naive_quality(t)


_PY_LINES = st.lists(
    st.one_of(
        st.just("import os"),
        st.just("from a.b import c, d as e"),
        st.builds("def {}(x):".format, st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)),
        st.builds("class {}:".format, st.from_regex(r"[A-Z][a-zA-Z0-9_]{0,8}", fullmatch=True)),
        st.builds("    def {}(self):".format, st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)),
        st.builds("    y = {}(x)".format, st.from_regex(r"[a-z_][a-z0-9_.]{0,10}", fullmatch=True)),
        st.builds("    z = {}({}( x ))".format, st.from_regex(r"[a-z_]{1,6}", fullmatch=True), st.from_regex(r"[a-z_.]{1,8}", fullmatch=True)),
        st.just("    return y"),
        st.just(""),
        st.just("x = 1"),
        st.just("    foo ("),  # paren on same line after space
        st.just("bar"),
        st.just("    ("),  # lone paren line: must NOT join with a prior identifier
    ),
    max_size=40,
)


def _reference_extract_python(file_ent, lines, edge):
    """The pre-optimization PER-LINE reference semantics, kept verbatim as the
    spec for the batched call-scan (scanning each body line separately)."""
    from text_to_graph_ray.stages.extract import (
        _CALL,
        _PY_CLASS,
        _PY_DEF,
        _PY_FROM,
        _PY_IMPORT,
        _PY_KEYWORDS,
        _PY_METHOD,
    )

    scope = None
    class_ctx = None
    for line in lines:
        if m := _PY_IMPORT.match(line):
            edge(file_ent, "F", "imports", m.group(1), "M")
        elif m := _PY_FROM.match(line):
            mod = m.group(1)
            edge(file_ent, "F", "imports", mod, "M")
            for name in m.group(2).split(","):
                name = name.strip().split(" as ")[0]
                if name:
                    edge(file_ent, "F", "imports", f"{mod}.{name}", "M")
        elif m := _PY_DEF.match(line):
            fn = m.group(1)
            edge(file_ent, "F", "defines", fn, "Fn")
            scope, class_ctx = fn, None
        elif m := _PY_CLASS.match(line):
            cls = m.group(1)
            edge(file_ent, "F", "defines", cls, "C")
            class_ctx, scope = cls, None
        elif class_ctx and (m := _PY_METHOD.match(line)):
            meth = m.group(1)
            edge(class_ctx, "C", "defines", meth, "Fn")
            scope = meth
        elif line[:1].isspace():
            if scope:
                for m in _CALL.finditer(line):
                    tgt = m.group(1)
                    if tgt not in _PY_KEYWORDS and not tgt.startswith("self."):
                        edge(scope, "Fn", "calls", tgt, "Fn")
        elif line.strip():
            scope, class_ctx = None, None


@settings(max_examples=200, deadline=None)
@given(_PY_LINES)
def test_batched_call_scan_matches_per_line_reference(lines):
    """The NUL-join batched scan must emit the exact same edge sequence as
    the per-line reference on arbitrary python-shaped inputs."""
    from text_to_graph_ray.stages.extract import _extract_python

    got, raw = [], []
    _extract_python("f", lines, lambda *a: None, lambda s, st_, p, d, dt: got.append((s, p, d)))
    _reference_extract_python("f", lines, lambda s, st_, p, d, dt: raw.append((s, p, d)))
    # contract: "calls" edges emit once per (scope, target) per file, first
    # occurrence (extract_records' chunk-global keep-first dedup drops the
    # repeats anyway); all other edges emit per occurrence
    seen, want = set(), []
    for e in raw:
        if e[1] == "calls":
            if e in seen:
                continue
            seen.add(e)
        want.append(e)
    assert got == want


@settings(max_examples=80, deadline=None)
@given(st.lists(word_texts, min_size=2, max_size=12))
def test_pairwise_jaccard_matches_naive(docs):
    from text_to_graph_ray.expected import naive_word_jaccard
    from text_to_graph_ray.functions.dedup import exact_jaccard

    for i in range(len(docs) - 1):
        assert exact_jaccard(docs[i], docs[i + 1]) == naive_word_jaccard(docs[i], docs[i + 1])
