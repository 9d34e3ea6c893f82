"""Property tests: engine kernels == naive reference implementations
(expected.py) on arbitrary inputs — not just the fixed test corpora. These
are the pure-python halves of the oracle pairs, so hypothesis can hammer them
cheaply (no Ray involved)."""

import re
from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
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


# The call scan as it was before the first-character rewrite: the oracle for
# both dispatch branches of ``extract._call_re``.
_OLD_CALL = re.compile(r"(?<![\w.])([^\W\d][\w.]*)\s*\(", re.UNICODE)

_ASCII_ALPHABET = "abzAZ_019.() \t\n\v\f\r\x00\x1c\x1d\x1e\x1f"
_ASCII_WORDS = ["(", " (", ".", "a", "_b1", "x.y", "9z"]
_NON_ASCII = "éßİ٣\u3000"
_NON_ASCII_WORDS = ["é", "ßx", "İ.a", "٣", "\u3000("]


def _call_texts(alphabet, words):
    """Single characters of ``alphabet`` mixed with call-shaped words, so that
    identifiers, dots, whitespace and parens meet often."""
    return st.lists(st.one_of(st.sampled_from(alphabet), st.sampled_from(words)), max_size=30).map("".join)


def _scan(pattern, s):
    return [(m.start(1), m.end(), m.group(1)) for m in pattern.finditer(s)]


@settings(max_examples=400, deadline=None)
@given(st.one_of(_call_texts(_ASCII_ALPHABET, _ASCII_WORDS), st.text(alphabet=st.characters(max_codepoint=127))))
def test_ascii_call_pattern_matches_old_pattern(s):
    from text_to_graph_ray.stages.extract import _CALL_ASCII, _call_re

    assert _call_re(s) is _CALL_ASCII
    assert _scan(_CALL_ASCII, s) == _scan(_OLD_CALL, s)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        _call_texts(_ASCII_ALPHABET + _NON_ASCII, _ASCII_WORDS + _NON_ASCII_WORDS),
        st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
    )
)
def test_unicode_call_pattern_matches_old_pattern(s):
    from text_to_graph_ray.stages.extract import _CALL

    assert _scan(_CALL, s) == _scan(_OLD_CALL, s)


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
        # non-ASCII identifiers and text: a scope body that holds one of these
        # lines takes the Unicode branch of the dispatcher, an all-ASCII one
        # the ASCII branch
        st.builds("def {}(x):".format, st.from_regex(r"[a-zéß_][a-z0-9_éß٣]{0,8}", fullmatch=True)),
        st.builds("    y = {}(x)".format, st.from_regex(r"[a-zéİ_][a-z0-9_.ß٣]{0,10}", fullmatch=True)),
        st.builds("    {}".format, st.text(alphabet="ab_.9( é٣\u3000\x1c", max_size=20)),
        st.just("    s = 'naïve'  # ünïcode comment"),
        st.just("    x٣ = f(1)\u3000(2)"),
    ),
    max_size=40,
)


def _reference_extract_python(file_ent, lines, edge):
    """The pre-optimization PER-LINE reference semantics, kept verbatim as the
    spec for the batched call-scan (scanning each body line separately)."""
    from text_to_graph_ray.stages.extract import (
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
                for m in _OLD_CALL.finditer(line):
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


def _old_call_scan():
    """Force every extractor's call scan onto the oracle pattern."""
    from text_to_graph_ray.stages import extract

    return mock.patch.object(extract, "_call_re", lambda s: _OLD_CALL)


def _lines(structure, indent):
    body = _call_texts(_ASCII_ALPHABET.replace("\n", "") + _NON_ASCII, _ASCII_WORDS + _NON_ASCII_WORDS)
    return st.lists(st.one_of(st.sampled_from(structure), body.map(lambda t: indent + t)), max_size=30)


_LANG_LINES = {
    "javascript": _lines(["function f(a) {", "function é(a) {", "class C {", "  m(a) {", "  }", "}", "x = 1"], "    "),
    "java": _lines(["public class A {", "    void m() {", "    int ß() {", "    }", "}"], "        "),
    "go": _lines(["func f() {", "func (s *T) m() {", "type T struct {", "import (", '"fmt"', ")", "}", "x := 1"], "\t"),
}


@pytest.mark.parametrize("lang", sorted(_LANG_LINES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_call_scan_dispatch_matches_old_pattern_per_language(lang, data):
    """JS, Java and Go scan each body line through the dispatcher: either
    branch must give the edges the old pattern gives."""
    from text_to_graph_ray.stages.extract import _EXTRACTORS

    lines = data.draw(_LANG_LINES[lang])
    got, want = [], []
    _EXTRACTORS[lang]("f", lines, lambda *a: None, lambda *e: got.append(e))
    with _old_call_scan():
        _EXTRACTORS[lang]("f", lines, lambda *a: None, lambda *e: want.append(e))
    assert got == want


def test_extract_records_equal_under_old_call_pattern():
    """The stage pin: chunk + extract over the synth corpus, call-heavy
    ``_scaling_file`` modules and non-ASCII files gives the same records
    table with the dispatcher as with the old pattern everywhere."""
    from text_to_graph_ray.stages.chunker import chunk_files
    from text_to_graph_ray.stages.extract import extract_records
    from text_to_graph_ray.stages.hashing import add_sha256
    from text_to_graph_ray.synth import _scaling_file, build_corpus

    files, _ = build_corpus(48, seed=7)
    rows = [{k: f[k] for k in ("repo", "path", "lang", "content")} for f in files]
    for gid in range(4):
        path = f"scale/m{gid}.py"
        rows.append({"repo": "org9/scale", "path": path, "lang": "python", "content": _scaling_file("org9/scale", path, gid, 4)})
    rows += [
        {"repo": "org9/uni", "path": "u.py", "lang": "python", "content": "def café(x):\n    y = naïve(x)\n    return ß٣.f (y)\n"},
        {"repo": "org9/uni", "path": "m.go", "lang": "go", "content": 'package m\n\nfunc f() {\n\tg(1)\n\tλ(2)\n}\n'},
    ]
    t = pa.Table.from_pylist(rows)
    assert sum(not r["content"].isascii() for r in rows) >= 2

    got = extract_records(chunk_files(add_sha256(t)))
    with _old_call_scan():
        want = extract_records(chunk_files(add_sha256(t)))
    assert got.num_rows > 1000
    assert got.equals(want)


@settings(max_examples=80, deadline=None)
@given(st.lists(word_texts, min_size=2, max_size=12))
def test_pairwise_jaccard_matches_naive(docs):
    from text_to_graph_ray.expected import naive_word_jaccard
    from text_to_graph_ray.functions.dedup import exact_jaccard

    for i in range(len(docs) - 1):
        assert exact_jaccard(docs[i], docs[i + 1]) == naive_word_jaccard(docs[i], docs[i + 1])
