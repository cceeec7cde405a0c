"""Command line interface: outputs and exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import hyperconn
from hyperconn.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.txt"
    p.write_text("1 2\n1 4\n2 3\n3 4\n")
    return str(p)


@pytest.fixture
def p4_file(tmp_path):
    p = tmp_path / "p4.txt"
    p.write_text("1 2\n2 3\n3 4\n")
    return str(p)


class TestPsi:
    def test_c4(self, capsys, c4_file):
        code, out, _ = run(capsys, "psi", c4_file)
        assert code == 0
        assert "psi = 1" in out
        assert "argmax edge" in out

    def test_infinite(self, capsys, p4_file):
        code, out, _ = run(capsys, "psi", p4_file)
        assert code == 0
        assert "psi = inf" in out

    def test_empty_input(self, capsys, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("")
        code, out, _ = run(capsys, "psi", str(p))
        assert code == 0 and "psi = 0" in out


class TestLabels:
    @pytest.mark.parametrize(
        "text, value", [("1 2\n01 3\n", "2"), ("1 2\n1_0 3\n10 4\n", "3")]
    )
    def test_integer_spellings_are_distinct_vertices(self, capsys, tmp_path, text, value):
        p = tmp_path / "h.txt"
        p.write_text(text)
        code, out, _ = run(capsys, "psi", str(p))
        assert code == 0
        assert out.splitlines()[0] == f"psi = {value}"

    def test_witness_is_first_in_document_order(self, capsys, tmp_path):
        # the document lists 9 before 10, so its first argmax edge is {9 a}
        p = tmp_path / "h.txt"
        p.write_text("9 a\n10 b\n")
        code, out, _ = run(capsys, "psi", str(p))
        assert code == 0
        assert out == "psi = 2\nargmax edge: {9 a}\n"


class TestHomology:
    def test_independence_table(self, capsys, c4_file):
        code, out, _ = run(capsys, "homology", c4_file)
        assert code == 0
        assert "dim 0: betti 1" in out

    def test_complex_mode(self, capsys, tmp_path):
        p = tmp_path / "s1.txt"
        p.write_text("1 2\n2 3\n1 3\n")
        code, out, _ = run(capsys, "homology", str(p), "--complex")
        assert code == 0
        assert "dim 1: betti 1" in out


class TestConn:
    def test_table(self, capsys, c4_file):
        code, out, _ = run(capsys, "conn", c4_file)
        assert code == 0
        for key in ("conn_h", "psi", "k", "epsilon", "degree-bound"):
            assert key in out

    def test_vertex_cap_checked_before_psi(self, capsys, tmp_path, monkeypatch):
        def no_psi(*args, **kwargs):
            raise AssertionError("psi ran before the vertex cap check")

        monkeypatch.setattr("hyperconn.cli.psi", no_psi)
        p = tmp_path / "c60.txt"
        p.write_text("".join(f"{i} {i % 60 + 1}\n" for i in range(1, 61)))
        code, out, err = run(capsys, "conn", str(p))
        assert code == 3 and out == ""
        assert err == "resource limit: 60 vertices exceeds the enumeration cap\n"


class TestDistance:
    def test_adjacent(self, capsys, c4_file):
        code, out, _ = run(capsys, "distance", c4_file, "1,2", "2,3")
        assert code == 0
        assert "distance = 1" in out
        assert "chain:" in out

    def test_infinite(self, capsys, tmp_path):
        p = tmp_path / "two.txt"
        p.write_text("1 2\n3 4\n")
        code, out, _ = run(capsys, "distance", str(p), "1,2", "3,4")
        assert code == 0
        assert "distance = inf" in out

    def test_unknown_label(self, capsys, c4_file):
        code, _, err = run(capsys, "distance", c4_file, "1,9", "2,3")
        assert code == 2
        assert "unknown vertex" in err


# a non-edge given on the command line is named by the labels the user wrote
NON_EDGE_CASES = [
    pytest.param("vertices: a b c d e\na b\nb c\nc d\n", "a c", "a b", "{a c}",
                 id="symbolic"),
    pytest.param("1 2\n01 3\n", "2,3", "1 2", "{2 3}", id="spellings"),
]


class TestNonEdge:
    @pytest.mark.parametrize("text, spec, edge, named", NON_EDGE_CASES)
    def test_distance(self, capsys, tmp_path, text, spec, edge, named):
        p = tmp_path / "h.txt"
        p.write_text(text)
        for a, b in [(spec, edge), (edge, spec)]:
            code, out, err = run(capsys, "distance", str(p), a, b)
            assert code == 2 and out == ""
            assert err == f"error: {named} is not an edge\n"

    @pytest.mark.parametrize("text, spec, edge, named", NON_EDGE_CASES)
    def test_splitting_edge(self, capsys, tmp_path, text, spec, edge, named):
        p = tmp_path / "h.txt"
        p.write_text(text)
        code, out, err = run(capsys, "check", str(p), "--splitting-edge", spec)
        assert code == 2 and out == ""
        assert err == f"error: {named} is not an edge\n"


class TestCheck:
    def test_flags(self, capsys, p4_file):
        for flag, expect in [
            ("--properly-connected", "properly-connected: yes"),
            ("--triangulated", "triangulated: yes"),
            ("--properly-splitted", "properly-splitted: yes"),
        ]:
            code, out, _ = run(capsys, "check", p4_file, flag)
            assert code == 0 and expect in out

    def test_splitting_edge(self, capsys, p4_file):
        code, out, _ = run(capsys, "check", p4_file, "--splitting-edge", "1,2")
        assert code == 0
        assert "splitting-edge: yes" in out
        assert "splitting vertex: 1" in out

    @pytest.mark.parametrize("text", ["vertices: 1 2\n", ""])
    def test_edgeless_is_properly_splitted(self, capsys, tmp_path, text):
        p = tmp_path / "edgeless.txt"
        p.write_text(text)
        code, out, err = run(capsys, "check", str(p), "--properly-splitted")
        assert code == 0
        assert out == "properly-splitted: yes\nedge sequence:\n"
        assert "Traceback" not in err

    def test_negative_verdict(self, capsys, tmp_path):
        p = tmp_path / "c5.txt"
        p.write_text("1 2\n2 3\n3 4\n4 5\n1 5\n")
        code, out, _ = run(capsys, "check", str(p), "--splitting-edge", "1,2")
        assert code == 0
        assert "splitting-edge: no" in out


class TestHomotopyType:
    def test_contractible(self, capsys, p4_file):
        code, out, _ = run(capsys, "homotopy-type", p4_file)
        assert code == 0
        assert "contractible" in out
        assert "dimension bound" in out

    def test_not_triangulated_rejected(self, capsys, tmp_path):
        p = tmp_path / "c5.txt"
        p.write_text("1 2\n2 3\n3 4\n4 5\n1 5\n")
        code, _, err = run(capsys, "homotopy-type", str(p))
        assert code == 2
        assert err


class TestFixtureCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "fixture", "c4")
        assert code == 0
        assert out == "1 2\n1 4\n2 3\n3 4\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "fixture", "lutz-acyclic", "--emit", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["vertices"]) == 10
        assert len(payload["edges"]) == 31

    def test_unknown(self, capsys):
        code, _, err = run(capsys, "fixture", "nope")
        assert code == 2 and "no fixture" in err


class TestExitCodes:
    def test_reader_closing_early_exits_0(self, tmp_path):
        # the reader takes 10 bytes of an 8,008-edge document and closes the
        # pipe: a closed standard output is not an input error
        package_root = os.path.dirname(os.path.dirname(hyperconn.__file__))
        env = dict(os.environ, PYTHONPATH=package_root)
        argv = ["fixture", "complete(16,6)", "--emit", "json"]
        err = tmp_path / "stderr"
        with open(err, "wb") as fh:
            proc = subprocess.Popen(
                [sys.executable, "-m", "hyperconn.cli", *argv],
                stdout=subprocess.PIPE,
                stderr=fh,
                env=env,
            )
            assert proc.stdout.read(10) == b'{\n  "name"'
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
        assert err.read_bytes() == b""

    def test_parse_error(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1\n")
        code, _, err = run(capsys, "psi", str(p))
        assert code == 2 and err

    def test_non_utf8_file(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"\xff1 2\n")
        code, out, err = run(capsys, "psi", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "psi", "/no/such/file.txt")
        assert code == 2

    def test_budget_exit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERCONN_PSI_BUDGET", "2")
        p = tmp_path / "k6.txt"
        lines = [
            f"{a} {b}\n" for a in range(1, 7) for b in range(a + 1, 7)
        ]
        p.write_text("".join(lines))
        code, _, err = run(capsys, "psi", str(p))
        assert code == 3
        assert "resource" in err.lower() or "budget" in err.lower()

    def test_budget_exit_reports_bounds(self, capsys, tmp_path, monkeypatch):
        # complete(6, 2): the cutoff comes before any root child is settled
        monkeypatch.setenv("HYPERCONN_PSI_BUDGET", "2")
        p = tmp_path / "k6.txt"
        p.write_text("".join(f"{a} {b}\n" for a in range(1, 7) for b in range(a + 1, 7)))
        code, out, err = run(capsys, "psi", str(p))
        assert code == 3 and out == ""
        assert err == "resource limit: psi node budget 2 exhausted\npsi in [0, inf]\n"

    def test_deep_recursion_exits_3(self, capsys, tmp_path):
        p = tmp_path / "p400.txt"
        p.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 400)))
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 200)
        try:
            code, out, err = run(capsys, "psi", str(p))
        finally:
            sys.setrecursionlimit(limit)
        assert code == 3 and out == ""
        assert err == "resource limit: recursion depth exceeded\n"

    def test_verify_ok_exit(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "fixtures", "--seed", "1"
        )
        assert code == 0
        assert "overall PASS" in out

    def test_verify_violation_exit(self, capsys, monkeypatch):
        import hyperconn.verify as verify

        real = verify._SUITES["fixtures"]
        monkeypatch.setitem(
            verify._SUITES,
            "fixtures",
            (real[0], lambda p: {"ok": False, "checks": 1, "detail": "forced"}),
        )
        code, out, _ = run(capsys, "verify", "--suite", "fixtures")
        assert code == 4
        assert "FAIL" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "fixtures", "--suite", "no-such-suite"],
            ["--suite", "conn-bound", "--max-vertices", "2"],
            ["--suite", "domination", "--max-vertices", "2"],
            ["--suite", "structural", "--max-vertices", "1"],
            ["--suite", "mayer-vietoris", "--max-vertices", "1"],
            ["--samples", "-3"],
            ["--workers", "0"],
            ["--workers", "-2"],
        ],
    )
    def test_verify_bad_arguments(self, capsys, argv):
        code, out, err = run(capsys, "verify", "--samples", "3", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "suite",
        ["conn-bound", "domination", "all", "properly-connected", "triangulated-homotopy"],
    )
    def test_verify_too_few_vertices_names_suite_and_flag(self, capsys, suite):
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--max-vertices", "2",
            "--samples", "3",
        )
        assert code == 2
        named = "conn-bound" if suite == "all" else suite
        assert named in err and "--max-vertices >= 3" in err

    @pytest.mark.parametrize("suite", ["conn-bound", "domination", "triangulated-homotopy"])
    def test_verify_graph_classes_alone_need_no_third_vertex(self, capsys, suite):
        code, out, _ = run(
            capsys, "verify", "--suite", suite, "--max-vertices", "2",
            "--samples", "0",
        )
        assert code == 0 and "overall PASS" in out

    def test_verify_properly_connected_without_draws(self, capsys):
        # the graph class alone, as in the test above; its one instance on
        # at most two vertices is the edge 1 2
        code, out, _ = run(
            capsys, "verify", "--suite", "properly-connected", "--max-vertices", "2",
            "--samples", "0",
        )
        assert code == 0 and "instances=1 checks=4 failures=0" in out
        code, out, err = run(
            capsys, "verify", "--suite", "properly-connected", "--max-vertices", "2",
            "--samples", "1",
        )
        assert code == 2 and out == "" and "--max-vertices >= 3" in err

    def test_verify_json_output(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "splitting-family", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True


# each limit variable with a command that reads it
LIMIT_COMMANDS = {
    "HYPERCONN_VERTEX_CAP": ["homology"],
    "HYPERCONN_PSI_BUDGET": ["psi"],
    "HYPERCONN_TRIANGULATED_CAP": ["check", "--triangulated"],
}

# a value of each limit too low for the command on the 3-vertex path: the
# caps are below its vertex count, and a zero budget stops the first node
LIMIT_TOO_LOW = {
    "HYPERCONN_VERTEX_CAP": "2",
    "HYPERCONN_PSI_BUDGET": "0",
    "HYPERCONN_TRIANGULATED_CAP": "2",
}


@pytest.fixture(scope="module")
def p3_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("env") / "p3.txt"
    p.write_text("1 2\n2 3\n")
    return str(p)


class TestEnvironmentLimits:
    @pytest.mark.parametrize("var", sorted(LIMIT_COMMANDS))
    @pytest.mark.parametrize("raw", ["abc", "-5", "1.5", ""])
    def test_bad_value_is_input_error(self, capsys, monkeypatch, p3_file, var, raw):
        monkeypatch.setenv(var, raw)
        command = LIMIT_COMMANDS[var]
        code, _, err = run(capsys, command[0], p3_file, *command[1:])
        assert code == 2
        assert var in err

    @pytest.mark.parametrize("var", sorted(LIMIT_COMMANDS))
    def test_limit_too_low_exits_3(self, capsys, monkeypatch, p3_file, var):
        monkeypatch.setenv(var, LIMIT_TOO_LOW[var])
        command = LIMIT_COMMANDS[var]
        code, out, err = run(capsys, command[0], p3_file, *command[1:])
        assert code == 3 and out == ""
        assert err.startswith("resource limit: ") and "Traceback" not in err

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.integers(-3, 10**6).map(str),
                st.text(
                    st.characters(
                        blacklist_categories=("Cs",), blacklist_characters="\x00"
                    ),
                    max_size=12,
                ),
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_any_environment_exits_cleanly(self, p3_file, values):
        with pytest.MonkeyPatch.context() as mp:
            for var, raw in zip(sorted(LIMIT_COMMANDS), values):
                if raw is None:
                    mp.delenv(var, raising=False)
                else:
                    mp.setenv(var, raw)
            for command in (["psi"], ["conn"], ["check", "--triangulated"]):
                argv = [command[0], p3_file, *command[1:]]
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 2, 3, 4), (argv, values)
                assert "Traceback" not in err.getvalue()


# tokens that collide as integers, carry separators the text format does not
# split on, or open a header, a comment or JSON; plus bytes that are not UTF-8
INPUT_TOKENS = [b"1", b"01", b"1_0", b"10", b"a", b"b,c", b"vertices:", b"#", b"{"]
RAW_BYTES = [b"\xff", b"\xfe", b"\xc3", b"\x00", b"\r"]
INPUT_COMMANDS = (["psi"], ["conn"], ["homology"], ["check", "--properly-connected"])


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


class TestAnyInput:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.lists(st.sampled_from(INPUT_TOKENS + RAW_BYTES), max_size=4).map(b" ".join),
            max_size=6,
        ).map(b"\n".join)
    )
    def test_any_file_exits_cleanly(self, input_dir, data):
        path = input_dir / "input.txt"
        path.write_bytes(data)
        for command in INPUT_COMMANDS:
            for source in (str(path), "-"):
                argv = [command[0], source, *command[1:]]
                err = io.StringIO()
                stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(sys, "stdin", stdin)
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                        code = main(argv)
                assert code in (0, 2, 3, 4), (argv, data)
                assert "Traceback" not in err.getvalue()
