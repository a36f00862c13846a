"""Snapshot images: capture, carriers, publisher, CLI, and integration seams.

The property suite (``tests/property/test_property_snapshot.py``) establishes
that the fused kernels agree with the object walk; these tests pin the
subsystem's *contracts*: what capture refuses, what the executor records,
what pickling drops, how the publisher refcounts shared-memory epochs, that a
worker process can attach a published image and serve correct answers without
re-preprocessing (the acceptance smoke), and the ``repro snapshot`` CLI
round-trip.
"""

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Database, LexDirectAccess, LexOrder, Relation, parse_query
from repro.exceptions import NotAnAnswerError, OutOfBoundsError

np = pytest.importorskip("numpy")

from repro.core.access import validate_ranks  # noqa: E402
from repro.core.snapshot import (  # noqa: E402
    InstanceSnapshot,
    SnapshotPublisher,
    _encode_values,
    capture,
    installed,
    serving_stats,
    shm_name,
)

QUERY = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
ORDER = LexOrder(("x", "y", "z"))


def small_database():
    return Database([
        Relation("R", ("x", "y"), [(1, 5), (1, 2), (2, 2), (3, 5), (6, 2)]),
        Relation("S", ("y", "z"), [(5, 3), (5, 4), (2, 5), (2, 9), (7, 1)]),
    ])


def db_json(tmp_path) -> str:
    path = tmp_path / "db.json"
    path.write_text(json.dumps({
        "relations": {
            "R": {"attributes": ["x", "y"],
                  "rows": [[1, 5], [1, 2], [2, 2], [3, 5], [6, 2]]},
            "S": {"attributes": ["y", "z"],
                  "rows": [[5, 3], [5, 4], [2, 5], [2, 9], [7, 1]]},
        }
    }))
    return str(path)


def object_walk(access):
    """All answers via the object walk (image and batch index stripped)."""
    instance = access._instance
    saved = instance._snapshot_image
    instance._snapshot_image = None
    instance._batch_index = None
    try:
        return [access.access(k) for k in range(access.count)]
    finally:
        instance._snapshot_image = saved
        del instance._batch_index


# ----------------------------------------------------------------------
# validate_ranks: the vectorized NumPy path (satellite)
# ----------------------------------------------------------------------
class TestValidateRanksNumpy:
    def test_integer_array_is_returned_as_is(self):
        ranks = np.array([0, 2, 1], dtype=np.int64)
        assert validate_ranks(ranks, 3) is ranks

    def test_unsigned_dtypes_pass(self):
        ranks = np.array([0, 1], dtype=np.uint32)
        assert validate_ranks(ranks, 2) is ranks

    def test_bool_array_is_rejected(self):
        with pytest.raises(TypeError, match="not bool"):
            validate_ranks(np.array([True, False]), 2)

    def test_float_array_is_rejected_naming_the_dtype(self):
        with pytest.raises(TypeError, match="float64"):
            validate_ranks(np.array([0.0, 1.0]), 2)

    def test_out_of_bounds_is_reported(self):
        with pytest.raises(OutOfBoundsError):
            validate_ranks(np.array([0, 5], dtype=np.int64), 3)
        with pytest.raises(OutOfBoundsError):
            validate_ranks(np.array([-1, 0], dtype=np.int64), 3)

    def test_batch_access_serves_numpy_ranks(self):
        access = LexDirectAccess(QUERY, small_database(), ORDER)
        expected = [access.access(k) for k in range(access.count)]
        ranks = np.arange(access.count, dtype=np.int64)
        assert access.batch_access(ranks) == expected


# ----------------------------------------------------------------------
# The descending inverted-access fix (satellite): no linear bucket scan
# ----------------------------------------------------------------------
class TestDescendingInverted:
    @pytest.mark.parametrize("descending", [("x",), ("y",), ("x", "y", "z")])
    def test_object_walk_inverted_on_descending_layers(self, descending):
        order = LexOrder(("x", "y", "z"), descending)
        access = LexDirectAccess(QUERY, small_database(), order)
        answers = object_walk(access)
        instance = access._instance
        saved = instance._snapshot_image
        instance._snapshot_image = None
        try:
            for k, answer in enumerate(answers):
                assert access.inverted_access(answer) == k
            with pytest.raises(NotAnAnswerError):
                access.inverted_access((10 ** 6, 10 ** 6, 10 ** 6))
        finally:
            instance._snapshot_image = saved


# ----------------------------------------------------------------------
# Exactness-preserving dictionary encoding
# ----------------------------------------------------------------------
class TestExactEncoding:
    def test_equal_but_distinguishable_values_get_distinct_codes(self):
        values = [True, 1, 0.0, -0.0, 1.0]
        codes, domain = _encode_values(values)
        assert len(domain) == 5
        decoded = [domain[code] for code in codes]
        assert [repr(v) for v in decoded] == [repr(v) for v in values]
        assert [type(v) for v in decoded] == [type(v) for v in values]

    def test_repeated_values_share_one_code(self):
        codes, domain = _encode_values(["a", "b", "a", "a"])
        assert len(domain) == 2
        assert codes.tolist() == [0, 1, 0, 0]

    def test_unhashable_values_raise(self):
        with pytest.raises(TypeError):
            _encode_values([[1], [2]])


# ----------------------------------------------------------------------
# Capture / install / executor integration
# ----------------------------------------------------------------------
class TestCaptureAndExecutor:
    def test_executor_installs_an_image_and_records_the_stage(self):
        access = LexDirectAccess(QUERY, small_database(), ORDER)
        assert access._instance._snapshot_image is not None
        assert any(s.name == "snapshot" for s in access.report.stages)

    def test_empty_result_has_no_image(self):
        empty = Database([
            Relation("R", ("x", "y"), [(1, 2)]),
            Relation("S", ("y", "z"), [(9, 9)]),
        ])
        access = LexDirectAccess(QUERY, empty, ORDER)
        assert access.count == 0
        assert capture(access._instance, fingerprint="t") is None

    def test_pickling_an_instance_drops_the_image(self):
        access = LexDirectAccess(QUERY, small_database(), ORDER)
        instance = access._instance
        assert instance._snapshot_image is not None
        assert installed(instance) is not None
        clone = pickle.loads(pickle.dumps(instance))
        assert getattr(clone, "_snapshot_image", None) is None
        assert installed(clone) is None

    def test_serving_stats_reports_the_installed_carrier(self):
        access = LexDirectAccess(QUERY, small_database(), ORDER)
        stats = serving_stats(access._instance)
        assert stats is not None and stats["carrier"] == "memory"
        access._instance._snapshot_image = None
        assert serving_stats(access._instance) is None

    def test_pickling_a_sharded_instance_drops_the_image(self):
        access = LexDirectAccess(QUERY, small_database(), ORDER, shards=3)
        instance = access._instance
        assert installed(instance) is not None
        clone = pickle.loads(pickle.dumps(instance))
        assert installed(clone) is None
        assert all(
            getattr(shard, "_snapshot_image", None) is None for shard in clone.shards
        )
        assert clone.count == instance.count

    def test_sharded_build_installs_one_image_per_shard(self):
        access = LexDirectAccess(QUERY, small_database(), ORDER, shards=3)
        instance = access._instance
        assert instance.is_sharded
        for shard in instance.shards:
            if shard.count:
                assert shard._snapshot_image is not None
        stats = serving_stats(instance)
        assert stats is not None and stats["carrier"] == "memory"


# ----------------------------------------------------------------------
# Byte layout / file carrier
# ----------------------------------------------------------------------
class TestByteLayout:
    def test_round_trip_preserves_answers_and_metadata(self, tmp_path):
        access = LexDirectAccess(QUERY, small_database(), ORDER)
        expected = object_walk(access)
        snapshot = capture(access._instance, fingerprint="abc123", epoch=4)
        path = tmp_path / "image.rsnp"
        size = snapshot.save(str(path))
        assert path.stat().st_size == size

        loaded = InstanceSnapshot.load(str(path))
        assert loaded.fingerprint == "abc123"
        assert loaded.epoch == 4
        assert loaded.carrier == "file"
        served = loaded.instance()
        assert [served.access(k) for k in range(served.count)] == expected
        loaded.close()

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "bogus.rsnp"
        path.write_bytes(b"NOTASNAP" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            InstanceSnapshot.load(str(path))


# ----------------------------------------------------------------------
# Shared memory: publisher refcounting + cross-process attach (acceptance)
# ----------------------------------------------------------------------
class TestSharedMemory:
    def test_publisher_refcounts_epochs(self):
        access = LexDirectAccess(QUERY, small_database(), ORDER)
        publisher = SnapshotPublisher(fingerprint="refcount-test")
        try:
            name = publisher.publish(access._instance, epoch=0)
            assert name == shm_name("refcount-test", 0)
            assert publisher.epochs == (0,)

            publisher.acquire(0)          # a reader
            publisher.retire(0)           # the publisher's own reference
            reader = InstanceSnapshot.attach(name)  # name still resolves
            reader.close()
            publisher.release(0)          # last reference: unlink
            assert publisher.epochs == ()
            with pytest.raises(FileNotFoundError):
                InstanceSnapshot.attach(name)
        finally:
            publisher.close()

    def test_worker_process_attaches_and_serves_without_preprocessing(self):
        """A worker attaches a published image by name and serves answers."""
        access = LexDirectAccess(QUERY, small_database(), ORDER)
        expected = object_walk(access)
        publisher = SnapshotPublisher(fingerprint="xproc-test")
        try:
            name = publisher.publish(access._instance, epoch=0)
            assert name is not None
            worker = (
                "import json, sys\n"
                "from repro.core.snapshot import InstanceSnapshot\n"
                "snapshot = InstanceSnapshot.attach(sys.argv[1])\n"
                "instance = snapshot.instance()\n"
                "answers = [list(instance.access(k))"
                " for k in range(instance.count)]\n"
                "print(json.dumps({'carrier': snapshot.carrier,"
                " 'answers': answers}))\n"
                "snapshot.close()\n"
            )
            src = str(Path(__file__).resolve().parent.parent / "src")
            completed = subprocess.run(
                [sys.executable, "-c", worker, name],
                capture_output=True, text=True, timeout=120,
                env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
            )
            assert completed.returncode == 0, completed.stderr
            payload = json.loads(completed.stdout)
            assert payload["carrier"] == "shm"
            assert [tuple(a) for a in payload["answers"]] == expected
            # The reader must not adopt (and destroy) the publisher's block.
            assert "resource_tracker" not in completed.stderr
            assert "leaked shared_memory" not in completed.stderr
        finally:
            publisher.close()


# ----------------------------------------------------------------------
# The CLI: repro snapshot save / load
# ----------------------------------------------------------------------
class TestSnapshotCli:
    def test_save_then_load_serves_identical_answers(self, tmp_path, capsys):
        from repro.cli import main

        access = LexDirectAccess(QUERY, small_database(), ORDER)
        expected = [access.access(k) for k in range(access.count)]
        out = str(tmp_path / "demo.rsnp")

        status = main([
            "snapshot", "save", "Q(x, y, z) :- R(x, y), S(y, z)",
            "--db", f"demo={db_json(tmp_path)}", "--out", out,
        ])
        saved = json.loads(capsys.readouterr().out)
        assert status == 0 and saved["ok"]
        assert saved["count"] == access.count

        status = main([
            "snapshot", "load", out,
            "--access", "0", "--range", "0", str(access.count),
        ])
        lines = capsys.readouterr().out.strip().splitlines()
        assert status == 0
        header = json.loads(lines[0])
        assert header["ok"] and header["count"] == access.count
        assert header["carrier"] == "file"
        first = json.loads(lines[1])
        assert tuple(first["answer"]) == expected[0]
        ranged = json.loads(lines[2])
        assert [tuple(a) for a in ranged["answers"]] == expected

    def test_load_out_of_bounds_rank_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "demo.rsnp")
        main([
            "snapshot", "save", "Q(x, y, z) :- R(x, y), S(y, z)",
            "--db", f"demo={db_json(tmp_path)}", "--out", out,
        ])
        capsys.readouterr()
        status = main(["snapshot", "load", out, "--access", "10000"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert status == 1
        assert json.loads(lines[-1])["ok"] is False


# ----------------------------------------------------------------------
# Service and live integration seams
# ----------------------------------------------------------------------
class TestServingIntegration:
    def test_service_stats_reports_per_plan_snapshot_carrier(self):
        from repro.service import QueryService

        service = QueryService(max_plans=4)
        service.register_database("demo", small_database())
        service.prepare("demo", "Q(x, y, z) :- R(x, y), S(y, z)")
        stats = service.stats()
        assert stats["plans"], "prepared plan missing from stats"
        entry = stats["plans"][0]
        assert entry["db"] == "demo"
        snapshot = entry.get("snapshot")
        assert snapshot is not None and snapshot["carrier"] == "memory"

    def test_live_instance_stats_include_snapshot_and_epochs(self):
        from repro.live import LiveDatabase, LiveInstance

        live = LiveDatabase(small_database())
        instance = LiveInstance(
            QUERY, live, LexOrder(("x", "y", "z")), publish_snapshots=True
        )
        try:
            stats = instance.stats()
            assert stats["snapshot"] is not None
            assert stats["snapshot"]["carrier"] == "memory"
            assert stats["snapshot"]["published_epochs"] == list(
                instance._publisher.epochs
            )
            epoch = instance._publisher.epochs[-1]
            reader = InstanceSnapshot.attach(
                shm_name(instance.plan.fingerprint, epoch)
            )
            served = reader.instance()
            assert [served.access(k) for k in range(served.count)] == [
                instance.access(k) for k in range(instance.count)
            ]
            reader.close()
        finally:
            instance.close()


# ----------------------------------------------------------------------
# SegmentedSearcher.from_parts (the O(1) rehydration path)
# ----------------------------------------------------------------------
class TestSearcherFromParts:
    def test_from_parts_probes_like_a_fresh_searcher(self):
        from repro.engine.backends.columnar import SegmentedSearcher

        starts = np.array([0, 2, 5, 0, 3, 0, 1, 4], dtype=np.int64)
        sizes = [3, 2, 3]
        fresh = SegmentedSearcher(starts, sizes, stride=10)
        clone = SegmentedSearcher.from_parts(
            fresh.stride, fresh.offsets, fresh._augmented
        )
        segments = np.array([0, 1, 2, 2], dtype=np.int64)
        targets = np.array([4, 3, 2, 9], dtype=np.int64)
        assert np.array_equal(
            clone.probe_flat(segments, targets), fresh.probe_flat(segments, targets)
        )


# ----------------------------------------------------------------------
# One capture per build: publish and save reuse the installed image
# ----------------------------------------------------------------------
@pytest.fixture
def assembled(monkeypatch):
    """Every ``(shard, layer)`` prefix the capture assembly lays out."""
    import repro.core.snapshot as snapshot_module

    prefixes = []
    assemble = snapshot_module._assemble_layer

    def counting(prefix, *args):
        prefixes.append(prefix)
        return assemble(prefix, *args)

    monkeypatch.setattr(snapshot_module, "_assemble_layer", counting)
    return prefixes


def one_capture(instance):
    """The assembly calls of exactly one capture of ``instance``."""
    parts = instance.shards if getattr(instance, "is_sharded", False) else [instance]
    return sorted(
        f"s{shard}/L{layer}/"
        for shard, part in enumerate(parts) for layer in part.layers
    )


def partial_database(backend=None):
    rows_r = [(x, y) for x in range(12) for y in (x % 3, (x + 1) % 3)]
    rows_s = [(y, z) for y in range(3) for z in (y, y + 1)]
    return Database(
        [Relation("R", ("x", "y"), rows_r), Relation("S", ("y", "z"), rows_s)],
        backend=backend,
    )


class TestOneCapturePerBuild:
    @pytest.mark.parametrize("backend", ["row", "columnar"])
    def test_prepare_with_publishing_captures_once(self, assembled, backend):
        from repro.service import QueryService

        service = QueryService(max_plans=4, publish_snapshots=True)
        service.register_database("demo", small_database())
        try:
            plan = service.prepare("demo", QUERY, backend=backend, shards=2)
            instance = plan.engine._snapshot.base._instance
            assert sorted(assembled) == one_capture(instance)
            stats = service.stats()["plans"][0]["build"]["stages"]
            names = [stage["name"] for stage in stats]
            assert names.index("snapshot") < names.index("publish")
        finally:
            service.close()

    def test_publisher_reuses_the_installed_image(self, assembled):
        access = LexDirectAccess(QUERY, small_database(), ORDER, shards=2)
        fingerprint = installed(access._instance).fingerprint
        expected = capture(access._instance, fingerprint=fingerprint, epoch=5).to_bytes()
        assembled.clear()
        publisher = SnapshotPublisher(fingerprint="reuse")
        try:
            name = publisher.publish(access._instance, epoch=5)
            assert assembled == []
            assert publisher.nbytes(5) == len(expected)
            reader = InstanceSnapshot.attach(name)
            assert reader.to_bytes() == expected
            reader.close()
        finally:
            publisher.close()

    def test_full_compaction_captures_once(self, assembled):
        from repro.live import LiveDatabase, LiveInstance

        live = LiveDatabase(small_database())
        instance = LiveInstance(QUERY, live, ORDER, publish_snapshots=True)
        try:
            live.insert("R", [(9, 5)])
            assembled.clear()
            record = instance.compact()
            assert record["mode"] == "full"
            assert sorted(assembled) == one_capture(instance._snapshot.base._instance)
            assert record["publish_bytes"] > 0
            assert 0 < record["publish_seconds"] <= record["seconds"]
            stages = [stage.name for stage in instance._snapshot.base.report.stages]
            assert stages[-2:] == ["snapshot", "publish"]
        finally:
            instance.close()

    @pytest.mark.parametrize("backend", [None, "columnar"])
    def test_partial_compaction_captures_once(self, assembled, backend):
        from repro.live import LiveDatabase, LiveInstance

        live = LiveDatabase(partial_database(backend))
        instance = LiveInstance(
            QUERY, live, ORDER, backend=backend, shards=4, publish_snapshots=True
        )
        try:
            live.insert("R", [(0, 2), (1, 0)])  # one shard's leading range
            assembled.clear()
            record = instance.compact()
            assert record["mode"].startswith("partial:")
            assert sorted(assembled) == one_capture(instance._snapshot.base._instance)
            assert record["publish_bytes"] > 0
            # The noop compaction publishes nothing and says so.
            noop = instance.compact()
            assert noop["mode"] == "noop"
            assert (noop["publish_seconds"], noop["publish_bytes"]) == (0.0, 0)
        finally:
            instance.close()

    def test_snapshot_save_captures_once(self, assembled, tmp_path, capsys):
        from repro.cli import main

        expected = one_capture(LexDirectAccess(QUERY, small_database(), ORDER)._instance)
        assembled.clear()
        status = main([
            "snapshot", "save", "Q(x, y, z) :- R(x, y), S(y, z)",
            "--db", f"demo={db_json(tmp_path)}", "--out", str(tmp_path / "d.rsnp"),
        ])
        assert status == 0 and json.loads(capsys.readouterr().out)["ok"]
        assert sorted(assembled) == expected
