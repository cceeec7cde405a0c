"""Command-line interface.

Commands read a hypergraph (or facet list) from a file or stdin, run one
computation, and print a small plain-text report.  Exit codes: 0 success
(also when the reader closes standard output early), 2 parse or
validation problem, 3 resource budget exceeded, 4 theorem violation found
by the verification harness.
"""

from __future__ import annotations

import argparse
import os
import sys

from .chains import (
    find_splitting_vertex,
    is_properly_connected,
    is_triangulated,
    shortest_chain,
)
from .complexes import SimplicialComplex, independence_complex
from .domination import epsilon, k_bound
from .errors import EdgeNotPresent, ParseError, ResourceError, ValidationError
from .extnat import fmt
from .fixtures import FIXTURE_NAMES, fixture
from .formats import (
    complex_to_document,
    emit_json,
    emit_text,
    hypergraph_to_document,
    load_complex,
    load_hypergraph,
)
from .homology import conn_h, reduced_homology
from .homotopy import (
    homotopy_type_triangulated,
    max_dimension_bound,
    properly_splitted_witness,
)
from .psi import degree_bound, psi, psi_witness

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4


def _load(path: str, as_complex: bool = False):
    """(object, label -> id mapping, id -> label inverse) from a path or "-"."""
    obj, mapping = (load_complex if as_complex else load_hypergraph)(path)
    return obj, mapping, {i: label for label, i in mapping.items()}


def _fmt_edge(edge, inverse) -> str:
    return "{" + " ".join(inverse[v] for v in sorted(edge)) + "}"


def _cmd_psi(args) -> int:
    H, _, inverse = _load(args.file)
    value, edge = psi_witness(H)
    print(f"psi = {fmt(value)}")
    if edge is not None:
        print(f"argmax edge: {_fmt_edge(edge, inverse)}")
    return EXIT_OK


def _cmd_homology(args) -> int:
    obj, _, _ = _load(args.file, args.complex)
    delta = obj if args.complex else independence_complex(obj)
    prof = reduced_homology(delta)
    print(prof.describe())
    print(f"connectivity: {fmt(prof.connectivity())}")
    return EXIT_OK


def _cmd_conn(args) -> int:
    H, _, _ = _load(args.file)
    # conn_h comes first: its vertex cap is checked before psi can run long
    rows = [
        ("conn_h", conn_h(independence_complex(H))),
        ("psi", psi(H)),
        ("k", k_bound(H)),
        ("epsilon", epsilon(H)),
        ("degree-bound", degree_bound(H)),
    ]
    for name, v in rows:
        print(f"{name:<13} {fmt(v)}")
    return EXIT_OK


def _parse_edge(spec: str, H, mapping, inverse) -> frozenset:
    """The edge of H named by comma- or space-separated labels."""
    labels = [p for p in spec.replace(",", " ").split() if p]
    missing = [p for p in labels if p not in mapping]
    if missing:
        raise ParseError(f"unknown vertex label(s): {' '.join(missing)}")
    F = frozenset(mapping[p] for p in labels)
    if not H.has_edge(F):
        raise EdgeNotPresent(f"{_fmt_edge(F, inverse)} is not an edge")
    return F


def _cmd_distance(args) -> int:
    H, mapping, inverse = _load(args.file)
    F = _parse_edge(args.edge_a, H, mapping, inverse)
    G = _parse_edge(args.edge_b, H, mapping, inverse)
    chain = shortest_chain(H, F, G)
    if chain is None:
        print("distance = inf")
        return EXIT_OK
    print(f"distance = {chain.length}")
    parts = [_fmt_edge(chain.edges[0], inverse)]
    for x, e in zip(chain.pivots, chain.edges[1:]):
        parts.append(f"-[{inverse[x]}]-")
        parts.append(_fmt_edge(e, inverse))
    print("chain: " + " ".join(parts))
    return EXIT_OK


def _cmd_check(args) -> int:
    H, mapping, inverse = _load(args.file)
    if args.properly_connected:
        print("properly-connected: " + ("yes" if is_properly_connected(H) else "no"))
    elif args.triangulated:
        print("triangulated: " + ("yes" if is_triangulated(H) else "no"))
    elif args.properly_splitted:
        w = properly_splitted_witness(H)
        if w is None and H.edges:
            print("properly-splitted: no")
        else:
            # an edgeless input is properly splitted by an empty sequence
            seq = [_fmt_edge(e, inverse) for e in w.edge_sequence()] if w else []
            print("properly-splitted: yes")
            print(" ".join(["edge sequence:", *seq]))
    else:
        z = find_splitting_vertex(H, _parse_edge(args.splitting_edge, H, mapping, inverse))
        if z is not None:
            print("splitting-edge: yes")
            print(f"splitting vertex: {inverse[z]}")
        else:
            print("splitting-edge: no")
    return EXIT_OK


def _cmd_homotopy_type(args) -> int:
    H, _, _ = _load(args.file)
    t = homotopy_type_triangulated(H)
    print(t.describe())
    if H.edges:
        print(f"dimension bound: {max_dimension_bound(H)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify as verify_mod

    suites = None
    if args.suite and "all" not in args.suite:
        suites = args.suite
    report = verify_mod.run(
        seed=args.seed,
        samples=args.samples,
        max_vertices=args.max_vertices,
        suites=suites,
        workers=args.workers,
    )
    if args.json:
        print(report.to_json())
    else:
        for line in report.format_lines():
            print(line)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_fixture(args) -> int:
    obj = fixture(args.name)
    if isinstance(obj, SimplicialComplex):
        doc = complex_to_document(obj, name=args.name)
    else:
        doc = hypergraph_to_document(obj, name=args.name)
    if args.emit == "json":
        print(emit_json(doc))
    else:
        sys.stdout.write(emit_text(doc))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hyperconn",
        description="Connectivity bounds, homology, and chain structure of "
        "hypergraph independence complexes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="recursive connectivity bound with witness")
    p.add_argument("file", help="hypergraph file, or - for stdin")
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("homology", help="reduced homology table")
    p.add_argument("file")
    p.add_argument(
        "--complex",
        action="store_true",
        help="treat the edge list as the facet list of a complex",
    )
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("conn", help="all connectivity bounds in one table")
    p.add_argument("file")
    p.set_defaults(func=_cmd_conn)

    p = sub.add_parser("distance", help="proper-chain distance between edges")
    p.add_argument("file")
    p.add_argument("edge_a", help="edge as comma- or space-separated labels")
    p.add_argument("edge_b")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("check", help="structural predicates with witnesses")
    p.add_argument("file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--properly-connected", action="store_true")
    g.add_argument("--triangulated", action="store_true")
    g.add_argument("--properly-splitted", action="store_true")
    g.add_argument("--splitting-edge", metavar="EDGE")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("homotopy-type", help="wedge decomposition, when defined")
    p.add_argument("file")
    p.set_defaults(func=_cmd_homotopy_type)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name, repeatable; 'all' or omitted for all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vertices", type=int, default=8)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fixture", help="print a named fixture")
    p.add_argument("name", help="one of: " + ", ".join(FIXTURE_NAMES))
    p.add_argument("--emit", choices=["json", "text"], default="text")
    p.set_defaults(func=_cmd_fixture)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output, having read all it wanted;
        # point it at devnull so the interpreter's last flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        bounds = getattr(exc, "bounds", None)
        if bounds is not None:
            print(f"psi in [{fmt(bounds[0])}, {fmt(bounds[1])}]", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print("resource limit: recursion depth exceeded", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
