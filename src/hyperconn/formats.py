"""Text and JSON documents for hypergraphs and facet-listed complexes.

Text format: one edge per line, whitespace-separated labels, with an
optional leading header line "vertices: a b c" declaring the full vertex
set (needed exactly when isolated vertices exist).  Blank lines and lines
starting with # are ignored.  JSON format mirrors HypergraphDocument.
A label appears once in the vertex list and once per edge.  Documents are
canonical from construction, so the emitters print them as stored.

Labels are strings in documents.  When every label is an integer written
the way Python prints it (``str(int(x)) == x``: no sign but "-", no
leading zeros, no underscores) the in-memory hypergraph uses those
integers as vertex ids, so documents written by hand with numeric labels
round-trip through results without a translation table; otherwise ids are
1, 2, ... along the document's labels.  Either way ids increase in the one
order documents print labels in, so sorting ids sorts labels.  The mapping
is returned alongside.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .complexes import SimplicialComplex
from .errors import ParseError, ValidationError
from .hypergraph import Hypergraph

__all__ = [
    "HypergraphDocument",
    "parse_text",
    "emit_text",
    "parse_json",
    "emit_json",
    "document_to_hypergraph",
    "hypergraph_to_document",
    "document_to_complex",
    "complex_to_document",
    "load_hypergraph",
    "load_complex",
]


@dataclass(frozen=True)
class HypergraphDocument:
    """Serialized form: a name, unique labels, and edges as label lists.

    The given labels are validated, then stored sorted, with the edges
    deduplicated and sorted, so input order never shows."""

    name: str = ""
    vertices: tuple = ()
    edges: tuple = ()

    def __post_init__(self):
        labels = list(self.vertices)
        if len(set(labels)) != len(labels):
            dup = sorted({x for x in labels if labels.count(x) > 1})
            raise ValidationError(f"duplicate labels: {dup}")
        declared = set(labels)
        for e in self.edges:
            if len(set(e)) != len(e):
                raise ValidationError(f"repeated label in edge {list(e)}")
            for x in e:
                if x not in declared:
                    raise ValidationError(f"edge label {x!r} not in the vertex list")
        edges = {tuple(sorted(e, key=_label_key)) for e in self.edges}
        object.__setattr__(self, "vertices", tuple(sorted(labels, key=_label_key)))
        object.__setattr__(
            self,
            "edges",
            tuple(sorted(edges, key=lambda t: (len(t), tuple(map(_label_key, t))))),
        )


def _is_int_label(x: str) -> bool:
    try:
        int(x)
        return True
    except (TypeError, ValueError):
        return False


def _label_key(x: str):
    # numeric labels sort numerically among themselves, others after;
    # the label itself breaks ties such as "1" and "01"
    if _is_int_label(x):
        return (0, int(x), str(x))
    return (1, 0, str(x))


def parse_text(text: str, name: str = "") -> HypergraphDocument:
    """Parse the line-oriented format; ParseError carries the line number."""
    declared: list | None = None
    edges = []
    mentioned = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().startswith("vertices:"):
            if declared is not None:
                raise ParseError("second vertices: header", lineno)
            if edges:
                raise ParseError("vertices: header must come before edges", lineno)
            declared = line.split(":", 1)[1].split()
            if len(set(declared)) != len(declared):
                raise ParseError("duplicate label in vertices: header", lineno)
            continue
        labels = line.split()
        if len(set(labels)) != len(labels):
            raise ParseError(f"repeated label in edge {labels}", lineno)
        if declared is not None:
            for x in labels:
                if x not in declared:
                    raise ParseError(f"label {x!r} not in vertices: header", lineno)
        edges.append(tuple(labels))
        mentioned.extend(labels)
    vertices = declared if declared is not None else set(mentioned)
    return HypergraphDocument(name, vertices, edges)


def emit_text(doc: HypergraphDocument) -> str:
    """Canonical text: sorted labels and edges, vertices: header exactly
    when some label lies in no edge."""
    used = {x for e in doc.edges for x in e}
    lines = []
    if set(doc.vertices) != used:
        lines.append("vertices: " + " ".join(doc.vertices))
    for e in doc.edges:
        lines.append(" ".join(e))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_json(text: str, name: str = "") -> HypergraphDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from exc
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in data:
        if key not in ("name", "vertices", "edges"):
            raise ParseError(f"unknown field {key!r}")
    doc_name = data.get("name", name)
    if not isinstance(doc_name, str):
        raise ParseError("name must be a string")
    verts = data.get("vertices")
    edges = data.get("edges", [])
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise ParseError("edges must be a list of lists")
    str_edges = [tuple(map(_json_label, e)) for e in edges]
    if verts is None:
        verts = {x for e in str_edges for x in e}
    elif isinstance(verts, list):
        verts = list(map(_json_label, verts))
    else:
        raise ParseError("vertices must be a list")
    return HypergraphDocument(doc_name, verts, str_edges)


def _json_label(x) -> str:
    # a bool is an int to Python, but true is no integer label
    if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
        return str(x)
    raise ParseError(f"label {json.dumps(x)} is not a string or an integer")


def emit_json(doc: HypergraphDocument) -> str:
    payload = {
        "name": doc.name,
        "vertices": list(doc.vertices),
        "edges": [list(e) for e in doc.edges],
    }
    return json.dumps(payload, indent=2) + "\n"


def _label_ids(doc: HypergraphDocument) -> tuple[dict, list]:
    """The label -> id mapping of a document and its edges as id sets."""
    canonical = all(_is_int_label(x) and str(int(x)) == x for x in doc.vertices)
    ids = map(int, doc.vertices) if canonical else range(1, len(doc.vertices) + 1)
    mapping = dict(zip(doc.vertices, ids))
    return mapping, [frozenset(mapping[x] for x in e) for e in doc.edges]


def document_to_hypergraph(doc: HypergraphDocument) -> tuple[Hypergraph, dict]:
    """Build the hypergraph and return it with the label -> id mapping."""
    mapping, edges = _label_ids(doc)
    return Hypergraph(mapping.values(), edges), mapping


def hypergraph_to_document(H: Hypergraph, name: str = "") -> HypergraphDocument:
    return HypergraphDocument(
        name,
        [str(v) for v in H.vertices],
        [[str(v) for v in e] for e in H.edges],
    )


def document_to_complex(doc: HypergraphDocument) -> tuple[SimplicialComplex, dict]:
    """Read the edge lines as the facet list of a complex; singleton
    facets are legal here, unlike hypergraph edges."""
    mapping, facets = _label_ids(doc)
    used = {v for f in facets for v in f}
    facets += [frozenset([v]) for v in mapping.values() if v not in used]
    return SimplicialComplex(facets), mapping


def complex_to_document(delta: SimplicialComplex, name: str = "") -> HypergraphDocument:
    return HypergraphDocument(
        name,
        [str(v) for v in delta.vertices],
        [[str(v) for v in f] for f in delta.facets],
    )


def _read(path: str) -> HypergraphDocument:
    """Document from a path or stdin ("-"), either read as UTF-8.  A file
    is JSON when its name ends in .json, stdin when its text starts with a
    brace."""
    name = "stdin" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
            is_json = text.lstrip().startswith("{")
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            is_json = path.endswith(".json")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    return (parse_json if is_json else parse_text)(text, name=name)


def load_hypergraph(path: str) -> tuple[Hypergraph, dict]:
    """Parse a file, or stdin for "-", to a hypergraph."""
    return document_to_hypergraph(_read(path))


def load_complex(path: str) -> tuple[SimplicialComplex, dict]:
    """Parse a file, or stdin for "-", to a facet-listed simplicial complex."""
    return document_to_complex(_read(path))
