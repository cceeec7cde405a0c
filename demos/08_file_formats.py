"""Reading and writing hypergraphs in the text and JSON formats.

The text format is one edge per line with an optional vertex header for
isolated vertices.  Labels may be arbitrary strings: integer labels written
in canonical form (7, not 07) keep their values as vertex ids, and any
other label set gets ids 1, 2, ... in the order the document lists its
labels (integer-like ones numerically, then the rest), so ids and labels
sort alike.  The JSON format mirrors the same document and both
round-trip exactly.
"""

from hyperconn import (
    document_to_hypergraph,
    emit_json,
    emit_text,
    hypergraph_to_document,
    parse_text,
    psi,
)

text = """\
vertices: a b c d e
a b
b c
c d
"""

print("input text document:")
for line in text.splitlines():
    print(f"  {line}")

doc = parse_text(text)
H, labels = document_to_hypergraph(doc)
print()
print(f"parsed: vertices {sorted(H.vertices)} with label map {labels}")
print(f"connectivity value: {psi(H)}")

print()
print("canonical re-emission keeps the header only when isolated vertices exist:")
out = emit_text(hypergraph_to_document(H))
for line in out.splitlines():
    print(f"  {line}")

print()
print("the same document as JSON:")
for line in emit_json(doc).splitlines():
    print(f"  {line}")
