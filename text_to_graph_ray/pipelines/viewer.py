"""HTML graph-viewer sink (reference S6, /root/reference/graph_extractor/src/
create_graph_viewer.py:12-44): the final (small) node/edge tables are embedded
into a standalone HTML file — zlib-compressed + base64, decompressed client
side, mirroring the reference's payload packing. Driver-side only; never part
of the distributed path (the tables are the pipeline's output, already
aggregated)."""

from __future__ import annotations

import base64
import html
import json
import zlib


def _pack(obj) -> str:
    # default=list: parquet list columns surface as numpy arrays in pandas
    payload = json.dumps(obj, default=lambda o: list(o))
    return base64.b64encode(zlib.compress(payload.encode("utf-8"))).decode("ascii")


_TEMPLATE = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{title}</title>
<style>
 body {{ font-family: sans-serif; margin: 1.5rem; }}
 table {{ border-collapse: collapse; margin: 1rem 0; }}
 td, th {{ border: 1px solid #999; padding: 2px 8px; font-size: 13px; }}
 h2 {{ margin-bottom: 0; }}
</style></head>
<body>
<h1>{title}</h1>
<p id="summary"></p>
{docs_section}<h2>Nodes</h2><table id="nodes"></table>
<h2>Edges</h2><table id="edges"></table>
<script src="https://cdn.jsdelivr.net/npm/pako@2/dist/pako.min.js"></script>
<script>
const NODES_B64 = "{nodes_b64}";
const EDGES_B64 = "{edges_b64}";
const META_B64 = "{meta_b64}";
function unpack(b64) {{
  const bin = atob(b64);
  const arr = Uint8Array.from(bin, c => c.charCodeAt(0));
  return JSON.parse(new TextDecoder().decode(pako.inflate(arr)));
}}
function fill(id, rows) {{
  const t = document.getElementById(id);
  if (!rows.length) return;
  const cols = Object.keys(rows[0]);
  // cell values come from arbitrary corpus content: build cells with
  // textContent (never innerHTML) so a crafted label can't inject script
  const hr = document.createElement("tr");
  for (const c of cols) {{ const th = document.createElement("th"); th.textContent = c; hr.appendChild(th); }}
  t.appendChild(hr);
  for (const r of rows.slice(0, 2000)) {{
    const tr = document.createElement("tr");
    for (const c of cols) {{ const td = document.createElement("td"); td.textContent = String(r[c]); tr.appendChild(td); }}
    t.appendChild(tr);
  }}
}}
const nodes = unpack(NODES_B64), edges = unpack(EDGES_B64), meta = unpack(META_B64);
document.getElementById("summary").textContent = (meta.length ? meta.length + " documents, " : "") +
  nodes.length + " nodes, " + edges.length + " edges (first 2000 shown)";
fill("meta", meta); fill("nodes", nodes); fill("edges", edges);
</script>
</body></html>
"""


def _write_viewer(out_path: str, title: str, nodes_df, edges_df, meta: list) -> str:
    """Fill the one viewer template; the Documents table appears only when
    ``meta`` has rows."""
    doc = _TEMPLATE.format(
        title=html.escape(title),
        docs_section='<h2>Documents</h2><table id="meta"></table>\n' if meta else "",
        nodes_b64=_pack(nodes_df.to_dict(orient="records")),
        edges_b64=_pack(edges_df.to_dict(orient="records")),
        meta_b64=_pack(meta),
    )
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(doc)
    return out_path


def write_graph_html(nodes_df, edges_df, out_path: str, title: str = "graph") -> str:
    """nodes_df/edges_df: small pandas DataFrames (the aggregated output)."""
    return _write_viewer(out_path, title, nodes_df, edges_df, [])


def write_composite_html(doc_graphs, out_path: str, title: str = "composite graph", doc_shas=None) -> str:
    """Composite MULTI-document viewer (reference flow: graph_generator.py:
    424-460 accumulates per-document graphs, merge_all_document_graphs packs
    provenance into labels as "label|d1|d2" per graph_utils.py:215-245, and
    create_graph_viewer.py:37-44 injects nodes+edges+metadata payloads).

    ``doc_graphs`` = [(doc_name, nodes [(id,label,type)], edges
    [(src,tgt,label)])] — per-document graphs in reference emit format (e.g.
    from conformance.parse_subgraph / the engine's per-document splits).
    Merging + provenance packing is conformance.merge_documents (the
    oracle-tested reference-semantics kernel); metadata rows mirror the
    reference's {index, filename, sha256} JSON (graph_generator.py:391-395,
    sha provided by the caller when document bytes are at hand)."""
    import pandas as pd

    from text_to_graph_ray.stages.conformance import merge_documents

    nodes, edges = merge_documents(doc_graphs)
    nodes_df = pd.DataFrame(nodes, columns=["id", "label", "type"])
    edges_df = pd.DataFrame(edges, columns=["source", "target", "label"])
    meta = [
        {"index": i, "filename": str(name), "sha256": (doc_shas[i] if doc_shas else "")}
        for i, (name, _n, _e) in enumerate(doc_graphs)
    ]
    return _write_viewer(out_path, title, nodes_df, edges_df, meta)


def unpack_payload(html_text: str, marker: str) -> list:
    """Test/debug helper: extract + decode one of the b64 payloads
    (``NODES_B64`` / ``EDGES_B64`` / ``META_B64``) from an emitted viewer
    HTML — the round-trip the reference's obfuscated JS performs client-side."""
    import re

    m = re.search(rf'{marker} = "([^"]*)"', html_text)
    if not m:
        raise ValueError(f"no {marker} payload found")
    return json.loads(zlib.decompress(base64.b64decode(m.group(1))).decode("utf-8"))
