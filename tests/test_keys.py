from hypothesis import example, given, settings
from hypothesis import strategies as st

from text_to_graph_ray.keys import (
    containment_triples,
    entity_key,
    module_path,
    resolve_alias,
    sanitize,
)


def test_sanitize_reference_semantics():
    # graph_utils.py:9-10: '|' -> '_', strip
    assert sanitize(" a|b ") == "a_b"
    assert sanitize("x") == "x"
    assert sanitize("  spaced  ") == "spaced"


def test_entity_key_lowercases():
    assert entity_key("AAAA") == entity_key("aaaa") == "aaaa"
    assert entity_key(" Mixed|Case ") == "mixed_case"


def test_containment_chain():
    trs = containment_triples("acme/web", "src/util/io.py")
    labels = [(s, p, d) for s, _, p, d, _ in trs]
    assert labels == [
        ("acme/web", "contains", "acme/web/src"),
        ("acme/web/src", "contains", "acme/web/src/util"),
        ("acme/web/src/util", "contains", "acme/web/src/util/io.py"),
    ]


def test_containment_flat_file():
    trs = containment_triples("acme/web", "README.md")
    assert [(s, p, d) for s, _, p, d, _ in trs] == [("acme/web", "contains", "acme/web/README.md")]


def test_module_path():
    assert module_path("src/pkg/mod.py") == "src.pkg.mod"
    assert module_path("a.js") == "a"


def test_resolve_alias_unique_suffix():
    idx = {"helper": {"src.pkg3.mod7"}}
    assert resolve_alias("pkg3.mod7.helper", idx) == "helper"
    assert resolve_alias("mod7.helper", idx) == "helper"
    assert resolve_alias("src.pkg3.mod7.helper", idx) == "helper"


def test_resolve_alias_no_match_or_ambiguous():
    idx = {"helper": {"src.a.m1", "src.b.m1"}}
    assert resolve_alias("m1.helper", idx) is None  # two candidate modules: ambiguous
    assert resolve_alias("os.path", {}) is None
    assert resolve_alias("nodots", idx) is None
    # dot-boundary: 'xmod7' must not match suffix 'mod7'
    idx2 = {"f": {"src.xmod7"}}
    assert resolve_alias("mod7.f", idx2) is None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(alphabet=st.characters(blacklist_categories=("Cs",)))), max_size=20))
@example(["İ", "Iİ", "ΑΣ", "Σ", " x|Y ", None, ""])
def test_entity_key_array_matches_entity_key(labels):
    """The vectorized key over a record column equals ``entity_key`` per
    label, so a mention's key is always its label's own key."""
    import pyarrow as pa

    from text_to_graph_ray.stages.linker import entity_key_array

    got = entity_key_array(pa.array(labels, type=pa.string())).to_pylist()
    assert got == [None if x is None else entity_key(x) for x in labels]
