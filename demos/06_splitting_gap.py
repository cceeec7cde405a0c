"""A family showing the splitting construction is not tight.

build_counterexample_family(k) gives, for each k >= 3, a hypergraph that
is not uniform (pairs and triples from an acyclic block, one edge of size
k, and pairs joining the block to it; the k = 3 member has edge sizes 2
and 3).  It is properly splitted, yet its connectivity value rises by one
when a common apex vertex joins all its edges.  Contrast with splitting edges, where the
value is preserved.
"""

from hyperconn import (
    Hypergraph,
    build_counterexample_family,
    properly_splitted_witness,
    psi,
)

H = build_counterexample_family(3)
sizes = sorted({len(E) for E in H.edges})
print(f"the k=3 member: {len(H.vertices)} vertices, {len(H.edges)} edges "
      f"of sizes {sizes}")
witness = properly_splitted_witness(H)
print(f"  properly splitted: {witness is not None}")
print(f"  split order found: {len(witness.edge_sequence())} steps")

value = psi(H)
print(f"  connectivity value: {value}")

apex = max(H.vertices) + 1
joined = Hypergraph(
    set(H.vertices) | {apex},
    [set(E) | {apex} for E in H.edges],
)
value_joined = psi(joined)
print(f"  after joining an apex vertex to every edge: {value_joined}")
print()
print(f"the jump {value} -> {value_joined} shows the splitting bound can be strict.")
