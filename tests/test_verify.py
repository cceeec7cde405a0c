"""The verification harness itself: determinism, replay, aggregation."""

import json
import random

import pytest

import hyperconn.verify as verify
from hyperconn import ValidationError, document_to_hypergraph, parse_json


@pytest.fixture
def serial_pool(monkeypatch):
    """Stand-in for the process pool; returns the pool sizes requested."""
    sizes = []

    class SerialPool:
        """Records the requested pool size and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", SerialPool)
    return sizes


class TestDeterminism:
    def test_same_seed_same_report(self):
        names = ["ground-truth", "structural"]
        a = verify.run(seed=3, samples=8, max_vertices=6, suites=names)
        b = verify.run(seed=3, samples=8, max_vertices=6, suites=names)
        assert a.to_json() == b.to_json()

    def test_worker_count_does_not_change_report(self):
        # 20 instances per suite fill three chunks, so workers=3 pools them
        names = ["structural", "mayer-vietoris"]
        a = verify.run(seed=4, samples=20, max_vertices=6, suites=names)
        b = verify.run(seed=4, samples=20, max_vertices=6, suites=names, workers=3)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("cpus, started", [(2, 2), (None, 1)])
    def test_pool_size_is_clamped_to_cpus(self, serial_pool, monkeypatch, cpus, started):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        args = dict(seed=4, samples=20, max_vertices=6)
        many = verify.run_suite("structural", workers=10**6, **args)
        assert serial_pool == [started]
        assert many.to_dict() == verify.run_suite("structural", **args).to_dict()

    def test_single_chunk_suite_starts_no_pool(self, serial_pool):
        args = dict(seed=4, samples=8, max_vertices=6)
        two = verify.run_suite("structural", workers=2, **args)
        assert serial_pool == []
        assert two.to_dict() == verify.run_suite("structural", **args).to_dict()

    def test_seed_changes_instances(self):
        a = verify.run_suite("structural", seed=1, samples=8, max_vertices=6)
        b = verify.run_suite("structural", seed=2, samples=8, max_vertices=6)
        assert a.instances == b.instances
        # payload streams differ even though tallies agree
        ra = verify._SUITES["structural"][0](
            __import__("random").Random("1:structural"), 8, 6
        )
        rb = verify._SUITES["structural"][0](
            __import__("random").Random("2:structural"), 8, 6
        )
        assert ra != rb

    def test_timing_excluded_from_canonical_form(self):
        r = verify.run_suite("fixtures", seed=0, samples=1, max_vertices=6)
        assert "elapsed" not in json.dumps(r.to_dict())


class TestAggregation:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            verify.run_suite("no-such-suite")

    def test_unknown_suite_rejected_before_any_runs(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(verify, "run_suite", no_run)
        with pytest.raises(ValidationError):
            verify.run(suites=["fixtures", "no-such-suite"])

    def test_all_suite_names_runnable(self):
        assert set(verify.SUITE_NAMES) == set(verify._SUITES)

    def test_report_shape(self):
        r = verify.run(seed=0, samples=2, max_vertices=5,
                       suites=["fixtures", "splitting-family"])
        d = r.to_dict()
        assert d["seed"] == 0 and d["ok"] is True
        assert [s["name"] for s in d["suites"]] == ["fixtures", "splitting-family"]
        lines = r.format_lines()
        assert lines[-1].startswith("overall PASS")


class TestReplay:
    def test_passing_payload_replays_clean(self):
        out = verify.replay(
            {"suite": "ground-truth",
             "payload": {"instance": {"vertices": [1, 2, 3, 4], "edges": [[1, 2], [3, 4]]},
                         "expect": "2"}}
        )
        assert out["ok"] and out["detail"] is None

    @pytest.mark.parametrize(
        "instance",
        [
            "1 2\n3 4\n",  # the text instance of an older report
            ["1 2", "3 4"],
            {"edges": [[1, 2]]},
            {"name": "", "vertices": [1, 2], "edges": [[1, 2]]},
            {"vertices": 3, "edges": []},
            {"vertices": [1, 2], "edges": [[1, [2]]]},
        ],
    )
    def test_other_instances_raise_validation_error(self, instance):
        with pytest.raises(ValidationError, match="not a vertices/edges document"):
            verify.replay(
                {"suite": "ground-truth", "payload": {"instance": instance, "expect": "2"}}
            )

    def test_recorded_failure_replays_to_same_failure(self, monkeypatch):
        # break one check, capture the emitted counterexample, restore the
        # real check, then re-break and replay: identical failure detail
        real = verify._SUITES["ground-truth"]

        def broken(payload):
            out = real[1](payload)
            return {"ok": False, "checks": out["checks"], "detail": "forced"}

        monkeypatch.setitem(verify._SUITES, "ground-truth", (real[0], broken))
        r = verify.run_suite("ground-truth", seed=9, samples=3, max_vertices=5)
        assert not r.ok and r.first_failure is not None
        replayed = verify.replay(r.first_failure)
        assert replayed["detail"] == r.first_failure["detail"] == "forced"

    def test_failure_payload_is_serializable(self, monkeypatch):
        real = verify._SUITES["ground-truth"]
        monkeypatch.setitem(
            verify._SUITES,
            "ground-truth",
            (real[0], lambda p: {"ok": False, "checks": 1, "detail": "x"}),
        )
        r = verify.run_suite("ground-truth", seed=9, samples=3, max_vertices=5)
        json.dumps(r.to_dict())  # must not raise
        assert r.failures == r.instances


class TestInstances:
    @pytest.mark.parametrize("name", verify.SUITE_NAMES)
    def test_instance_is_the_json_document_the_cli_reads(self, name):
        # every hypergraph a generator stores, both halves of a join too,
        # parses back through the JSON reader to the hypergraph its check builds
        payloads = verify._SUITES[name][0](random.Random(f"1:{name}"), 6, 6)
        docs = [p[k] for p in payloads for k in ("instance", "c1", "c2") if k in p]
        assert docs or name in ("fixtures", "splitting-family")
        for doc in docs:
            H = verify._hypergraph(doc)
            assert doc == {"vertices": sorted(H.vertices),
                           "edges": [sorted(e) for e in H.edges]}
            assert document_to_hypergraph(parse_json(json.dumps(doc)))[0] == H
