"""Text and JSON interchange formats."""

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from hyperconn import (
    EdgeTooSmall,
    Hypergraph,
    HypergraphDocument,
    ParseError,
    SimplicialComplex,
    ValidationError,
    complex_to_document,
    document_to_complex,
    document_to_hypergraph,
    emit_json,
    emit_text,
    hypergraph_to_document,
    load_complex,
    load_hypergraph,
    parse_json,
    parse_text,
)


class TestParseText:
    def test_plain_edges(self):
        doc = parse_text("1 2\n2 3\n")
        H, _ = document_to_hypergraph(doc)
        assert H == Hypergraph([1, 2, 3], [{1, 2}, {2, 3}])

    def test_header_declares_isolated(self):
        doc = parse_text("vertices: 1 2 3 4\n1 2\n")
        H, _ = document_to_hypergraph(doc)
        assert H.vertices == {1, 2, 3, 4}
        assert H.isolated_vertices() == {3, 4}

    def test_singleton_edge_rejected(self):
        with pytest.raises(EdgeTooSmall):
            document_to_hypergraph(parse_text("1\n"))

    def test_empty_input(self):
        doc = parse_text("")
        H, _ = document_to_hypergraph(doc)
        assert H.order == 0 and H.edges == ()

    def test_header_only(self):
        H, _ = document_to_hypergraph(parse_text("vertices: 5 6\n"))
        assert H.vertices == {5, 6} and H.edges == ()

    def test_comments_or_blank_lines(self):
        H, _ = document_to_hypergraph(parse_text("\n1 2\n\n"))
        assert len(H.edges) == 1

    def test_late_header_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_text("1 2\nvertices: 1 2 3\n")
        assert "line 2" in str(e.value)

    def test_duplicate_header_rejected(self):
        with pytest.raises(ParseError):
            parse_text("vertices: 1 2\nvertices: 3 4\n")

    def test_duplicate_label_in_edge(self):
        with pytest.raises(ParseError):
            parse_text("1 1 2\n")


class TestEmitText:
    def test_canonical_and_round_trip(self):
        doc = parse_text("2 10\n1 2\n")
        text = emit_text(doc)
        assert text == "1 2\n2 10\n"
        assert parse_text(text) == parse_text(text)

    def test_integer_spellings_sort_by_label(self):
        # "1" and "01" share an integer value; the label breaks the tie
        assert emit_text(parse_text("1 01\n10 1_0\n")) == "01 1\n10 1_0\n"

    def test_construction_order_never_shows(self):
        text = "vertices: 2 10 a b c\n2 10\na c\n"
        edges = (("c", "a"), ("10", "2"), ("a", "c"))
        doc = HypergraphDocument("", ("c", "10", "b", "2", "a"), edges)
        assert doc == parse_text(text)
        assert emit_text(doc) == text

    def test_header_only_when_needed(self):
        H = Hypergraph([1, 2, 3], [{1, 2}])
        text = emit_text(hypergraph_to_document(H))
        assert text.startswith("vertices: 1 2 3\n")
        no_iso = emit_text(hypergraph_to_document(Hypergraph([1, 2], [{1, 2}])))
        assert "vertices" not in no_iso


class TestJson:
    def test_round_trip(self):
        doc = parse_text("vertices: 1 2 3\n1 2\n")
        again = parse_json(emit_json(doc))
        assert again.vertices == doc.vertices and again.edges == doc.edges

    def test_mirror_shape(self):
        payload = json.loads(emit_json(parse_text("1 2\n")))
        assert set(payload) == {"name", "vertices", "edges"}

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError):
            parse_json('{"vertices": [], "edges": [], "extra": 1, "name": ""}')

    def test_missing_fields_default(self):
        doc = parse_json('{"edges": [["1", "2"]]}')
        assert doc.vertices == ("1", "2")

    def test_wrong_types_rejected(self):
        with pytest.raises(ParseError):
            parse_json('{"edges": "oops"}')
        with pytest.raises(ParseError):
            parse_json('{"vertices": 3, "edges": []}')

    def test_non_json_rejected(self):
        with pytest.raises(ParseError):
            parse_json("not json at all")

    @pytest.mark.parametrize(
        "text",
        ['{"vertices": ["a", "a", "b"], "edges": [["a", "b"]]}', '{"edges": [["a", "b", "a"]]}'],
    )
    def test_repeated_labels_rejected(self, text):
        # the text format rejects the same repeats
        with pytest.raises(ValidationError):
            parse_json(text)


class TestMapping:
    def test_integer_labels_map_to_themselves(self):
        H, mapping = document_to_hypergraph(parse_text("7 9\n"))
        assert mapping == {"7": 7, "9": 9}
        assert H.vertices == {7, 9}

    @pytest.mark.parametrize(
        "text, order",
        [("1 2\n01 3\n", 4), ("1 2\n1_0 3\n10 4\n", 6), ("+1 2\n1 3\n", 4)],
    )
    def test_integer_spellings_stay_distinct(self, text, order):
        doc = parse_text(text)
        H, mapping = document_to_hypergraph(doc)
        assert H.order == order and len(set(mapping.values())) == order
        assert mapping == {x: i for i, x in enumerate(doc.vertices, start=1)}
        delta, _ = document_to_complex(parse_text(text))
        assert len(delta.vertices) == order

    @pytest.mark.parametrize(
        "labels, integer_ids",
        [
            (st.integers(-30, 30).map(str), True),
            (st.sampled_from(["01", "007", "1_0", "+1", "-0", "+10", "2_0"]), False),
            (st.text("abxyz_", min_size=1, max_size=3), False),
            (
                st.one_of(
                    st.integers(-30, 30).map(str),
                    st.sampled_from(["01", "1_0", "+1", "-0"]),
                    st.text("ab9_", min_size=1, max_size=3),
                ),
                False,
            ),
        ],
        ids=["canonical", "spellings", "symbolic", "mixed"],
    )
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_ids_follow_document_order(self, labels, integer_ids, data):
        # sorting ids must sort labels the way documents print them
        doc = HypergraphDocument("", tuple(data.draw(st.sets(labels, max_size=8))), ())
        for _, mapping in (document_to_hypergraph(doc), document_to_complex(doc)):
            ids = [mapping[x] for x in doc.vertices]
            assert all(a < b for a, b in zip(ids, ids[1:]))
            if integer_ids:
                assert ids == [int(x) for x in doc.vertices]

    def test_symbolic_labels_densified(self):
        H, mapping = document_to_hypergraph(parse_text("a b\nb c\n"))
        assert sorted(mapping) == ["a", "b", "c"]
        assert H.order == 3
        assert len(H.edges) == 2

    def test_complex_documents(self):
        delta = SimplicialComplex([{1, 2, 3}, {3, 4}])
        doc = complex_to_document(delta)
        back, _ = document_to_complex(doc)
        assert back == delta

    def test_complex_allows_singletons(self):
        delta, _ = document_to_complex(
            HypergraphDocument(name="", vertices=("1", "2"), edges=(("1",),))
        )
        assert delta.has_face({1}) and delta.vertices == {1, 2}


class TestLoad:
    def test_text_and_json_paths(self, tmp_path):
        t = tmp_path / "h.txt"
        t.write_text("1 2\n")
        H, _ = load_hypergraph(str(t))
        assert len(H.edges) == 1
        j = tmp_path / "h.json"
        j.write_text(emit_json(parse_text("1 2\n2 3\n")))
        H2, _ = load_hypergraph(str(j))
        assert len(H2.edges) == 2

    def test_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin(b'{"edges": [["a", "b"]]}'))
        H, mapping = load_hypergraph("-")
        assert sorted(mapping) == ["a", "b"] and len(H.edges) == 1
        monkeypatch.setattr("sys.stdin", _stdin(b"1 2 3\n"))
        delta, _ = load_complex("-")
        assert delta.dim == 2

    def test_non_utf8_is_parse_error(self, tmp_path, monkeypatch):
        t = tmp_path / "h.txt"
        t.write_bytes(b"\xff1 2\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            load_hypergraph(str(t))
        monkeypatch.setattr("sys.stdin", _stdin(b"\xff1 2\n"))
        with pytest.raises(ParseError, match="not UTF-8"):
            load_hypergraph("-")

    def test_load_complex(self, tmp_path):
        t = tmp_path / "c.txt"
        t.write_text("1 2 3\n")
        delta, _ = load_complex(str(t))
        assert delta.dim == 2


def _stdin(data: bytes):
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


documents = st.builds(
    lambda n, extra: _doc_from(n, extra),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2),
)


def _doc_from(n, extra):
    import random

    rng = random.Random(n * 31 + extra)
    edges = []
    for _ in range(rng.randint(0, 5)):
        if n >= 2:
            k = rng.randint(2, min(3, n))
            edges.append(frozenset(rng.sample(range(1, n + 1), k)))
    try:
        H = Hypergraph(range(1, n + 1), _minimalize(edges))
    except ValidationError:
        H = Hypergraph(range(1, n + 1), [])
    return hypergraph_to_document(H)


def _minimalize(edges):
    return [e for e in set(edges) if not any(f < e for f in set(edges))]


class TestPropertyRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(documents)
    def test_text_round_trip(self, doc):
        again = parse_text(emit_text(doc))
        assert again.vertices == doc.vertices and again.edges == doc.edges

    @settings(max_examples=60, deadline=None)
    @given(documents)
    def test_json_round_trip(self, doc):
        again = parse_json(emit_json(doc))
        assert again.vertices == doc.vertices and again.edges == doc.edges

    @settings(max_examples=60, deadline=None)
    @given(documents)
    def test_hypergraph_survives(self, doc):
        H1, _ = document_to_hypergraph(doc)
        H2, _ = document_to_hypergraph(parse_text(emit_text(doc)))
        assert H1 == H2
