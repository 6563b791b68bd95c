"""The one durable commit path, :mod:`repro.durable`, under injected faults.

Server snapshots, the shared L2 store, audit manifests and sweep results
are all written by :func:`repro.durable.commit`.  These tests:

* crash every writer at every step of that commit and check that its
  reader then sees the old state or the new one, never a mix —
  including two servers whose snapshots of one directory used to share
  an arrays file name;
* check that every data file, and the directory entry naming it,
  reaches the disk before the manifest renames;
* commit three writers into one directory and check that none sweeps
  another's files;
* check that a restore that fails to load leaves the server untouched.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro import durable
from repro.analysis.grid import GridResults
from repro.models.registry import build_model
from repro.obs import AUDIT_MANIFEST, AuditRecorder, read_manifest
from repro.serving import (BatcherConfig, InferenceServer, ServingPolicy,
                           SharedL2Cache, TrafficConfig, generate_trace)
from repro.serving.loadgen import build_request_pool
from repro.serving.server import SNAPSHOT_MANIFEST
from repro.serving.tiering import L2_MANIFEST

TRACE = generate_trace(TrafficConfig(pattern="zipfian", num_requests=60,
                                     seed=1), 8)


class Crash(Exception):
    """The injected fault: the process dies at this step."""


def _pool(seed: int) -> np.ndarray:
    return build_request_pool("squeezenet", pool_size=8, image_size=12,
                              seed=seed)


def _server() -> InferenceServer:
    return InferenceServer(
        build_model("squeezenet", num_classes=4, seed=3),
        ServingPolicy(request_cache=True, vector_cache=False,
                      exact_check=True, compute="per_request"),
        BatcherConfig(max_batch_size=8, max_wait_s=0.001), shards=2)


def _cache_state(server: InferenceServer) -> list:
    """Every shard's batch clock and full request-cache state."""
    state = []
    for shard in server.shards:
        meta, arrays = shard.request_cache.state_dict()
        state.append((shard.batch_index,
                      json.dumps(meta, sort_keys=True),
                      {name: (value.dtype.str, value.shape, value.tobytes())
                       for name, value in arrays.items()}))
    return state


def _l2_state(store: SharedL2Cache) -> tuple:
    return (store.model_fingerprint, store.output_tail,
            [(key, row.tobytes()) for key, (_, row) in store._store.items()])


@dataclass
class Writer:
    """One persisted state: ``old`` is committed, ``write`` commits ``new``."""

    manifest: str
    write: Callable[[], object]
    read: Callable[[], object]
    old: object
    new: object


def _snapshot(directory, two_servers: bool = False) -> Writer:
    donor = _server()
    donor.replay(TRACE[:24], _pool(0))
    donor.snapshot(directory)
    old = _cache_state(donor)
    if two_servers:
        # A second server on other payloads that has run as many batches
        # as the first: naming arrays by batch count would give both
        # snapshots state-13.npz.
        other = _server()
        other.replay(TRACE[:24], _pool(3))
        assert sum(shard.batch_index for shard in other.shards) \
            == sum(shard.batch_index for shard in donor.shards) == 13
    else:
        other = donor
        other.replay(TRACE[24:], _pool(0))
    new = _cache_state(other)
    assert new != old

    def read():
        restored = _server()
        restored.restore(directory)
        return _cache_state(restored)

    return Writer(SNAPSHOT_MANIFEST, lambda: other.snapshot(directory),
                  read, old, new)


def _l2(directory) -> Writer:
    rng = np.random.default_rng(0)
    store = SharedL2Cache(directory=directory)
    store.bind_model("model-a")
    for _ in range(3):
        store.insert(rng.normal(size=6), rng.normal(size=3),
                     output_tail=(3,))
    store.flush()
    old = _l2_state(store)
    for _ in range(2):
        store.insert(rng.normal(size=6), rng.normal(size=3))
    return Writer(L2_MANIFEST, store.flush,
                  lambda: _l2_state(SharedL2Cache(directory=directory)),
                  old, _l2_state(store))


def _audit(directory) -> Writer:
    recorder = AuditRecorder(directory)
    recorder.begin_run(kind="replay", config={"shards": 2})
    recorder.record_event("snapshot.write", caches=2)
    old = recorder.finalize({"hits": 1})
    recorder.begin_run(kind="replay", config={"shards": 2})
    recorder.record_event("snapshot.restore", caches=2)
    new = dict(old, run=2, events=[{"kind": "snapshot.restore",
                                    "caches": 2}], summary={"hits": 5})
    return Writer(AUDIT_MANIFEST, lambda: recorder.finalize({"hits": 5}),
                  lambda: read_manifest(directory), old, new)


def _sweep(directory) -> Writer:
    path = directory / "sweep.json"
    GridResults(rows=[{"point": 0, "speedup": 1.5}], elapsed_s=0.5).save(path)
    new = GridResults(rows=[{"point": 0, "speedup": 1.5},
                            {"point": 1, "speedup": 2.0}], elapsed_s=0.75)

    def read():
        loaded = GridResults.load(path)
        return loaded.rows, loaded.elapsed_s

    return Writer("sweep.json", lambda: new.save(path), read,
                  ([{"point": 0, "speedup": 1.5}], 0.5),
                  (new.rows, new.elapsed_s))


WRITERS = {
    "snapshot": _snapshot,
    "snapshot-two-servers": lambda directory: _snapshot(directory, True),
    "l2-flush": _l2,
    "audit-finalize": _audit,
    "sweep-save": _sweep,
}
ARRAY_WRITERS = ("snapshot", "snapshot-two-servers", "l2-flush")
STEPS = ("arrays-temp-write", "arrays-rename", "manifest-temp-write",
         "manifest-rename", "sweep")


def _inject(patch: pytest.MonkeyPatch, step: str) -> None:
    """Make the commit die at ``step``; arrays files end in ``.npz``."""
    on_arrays = step.startswith("arrays")
    if step.endswith("temp-write"):
        real_write = durable._write

        def write(directory, name, write_file):
            if name.endswith(".npz") != on_arrays:
                return real_write(directory, name, write_file)

            def torn(handle):
                handle.write(b"\x93NUMPY torn")
                raise Crash(step)

            return real_write(directory, name, torn)

        patch.setattr(durable, "_write", write)
    elif step.endswith("rename"):
        real_replace = os.replace

        def replace(source, target):
            if str(target).endswith(".npz") == on_arrays:
                raise Crash(step)
            return real_replace(source, target)

        patch.setattr(os, "replace", replace)
    else:
        def unlink(self, missing_ok=False):
            raise Crash(step)

        patch.setattr(pathlib.Path, "unlink", unlink)


@pytest.mark.parametrize("writer,step", [
    (writer, step) for writer in WRITERS for step in STEPS
    if writer in ARRAY_WRITERS or not step.startswith("arrays")])
def test_a_crash_at_any_commit_step_leaves_old_or_new_state(
        tmp_path, monkeypatch, writer, step):
    directory = tmp_path / "state"
    state = WRITERS[writer](directory)
    with monkeypatch.context() as patch:
        _inject(patch, step)
        with pytest.raises(Crash):
            state.write()
    # Until the manifest renames, the old state is the whole state; the
    # sweep runs after it, so a crash there already shows the new one.
    assert state.read() == (state.new if step == "sweep" else state.old)

    # The next commit goes through and clears the crash's leftovers.
    state.write()
    assert state.read() == state.new
    assert not list(directory.glob(".tmp-*"))
    assert len(list(directory.glob("*.npz"))) == int(writer in ARRAY_WRITERS)


@pytest.mark.parametrize("writer", WRITERS)
def test_files_and_directory_are_fsynced_before_the_manifest_renames(
        tmp_path, monkeypatch, writer):
    directory = tmp_path / "state"
    state = WRITERS[writer](directory)
    log = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(descriptor):
        log.append(("fsync", os.fstat(descriptor).st_ino))
        real_fsync(descriptor)

    def replace(source, target):
        log.append(("rename", os.stat(source).st_ino,
                    pathlib.Path(target).name))
        real_replace(source, target)

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", fsync)
        patch.setattr(os, "replace", replace)
        state.write()

    directory_fsync = ("fsync", os.stat(directory).st_ino)
    renames = [(at, entry) for at, entry in enumerate(log)
               if entry[0] == "rename"]
    manifest_at, (_, _, manifest_name) = renames[-1]
    assert manifest_name == state.manifest
    assert len(renames) == 1 + int(writer in ARRAY_WRITERS)
    for at, (_, inode, _) in renames:
        # A file's bytes reach the disk before its name does.
        assert ("fsync", inode) in log[:at]
    for at, _ in renames[:-1]:
        # The arrays' directory entry is durable before the manifest
        # that names it is renamed.
        assert directory_fsync in log[at + 1:manifest_at]
    assert directory_fsync in log[manifest_at + 1:]


def test_writers_sharing_a_directory_never_sweep_each_others_files(
        tmp_path):
    shared = tmp_path / "shared"
    snapshot = _snapshot(shared)
    l2 = _l2(shared)
    audit = _audit(shared)
    for state in (snapshot, l2, audit):
        # Another writer's commit is in flight: its temp file must
        # survive everyone else's sweep.
        in_flight = shared / (".tmp-" + state.manifest)
        state.write()
        in_flight.write_text("{}")
        for other in (snapshot, l2, audit):
            if other is not state:
                other.write()
        assert in_flight.exists()
        in_flight.unlink()
    assert snapshot.read() == snapshot.new
    assert l2.read() == l2.new
    assert audit.read() == audit.new
    assert sorted(path.name for path in shared.iterdir()) == [
        AUDIT_MANIFEST, L2_MANIFEST, "l2-state-4.npz", SNAPSHOT_MANIFEST,
        "state-4.npz"]


def test_a_failed_restore_leaves_every_cache_unchanged(tmp_path):
    snap = tmp_path / "snap"
    donor = _server()
    donor.replay(TRACE[:24], _pool(0))
    manifest = donor.snapshot(snap)
    # Corrupt shard 1's request cache only: shard 0's record loads.
    record = next(record for record in manifest["caches"]
                  if record["shard"] == 1)
    with np.load(snap / manifest["arrays"]) as payload:
        arrays = dict(payload)
    name = record["prefix"] + ".signatures"
    arrays[name] = arrays[name].copy()
    arrays[name][-1] = arrays[name][0]
    np.savez(snap / manifest["arrays"], **arrays)

    server = _server()
    server.replay(TRACE[:24], _pool(3))
    occupancy = [shard.request_cache.occupancy() for shard in server.shards]
    before = _cache_state(server)
    assert before != _cache_state(donor)
    with pytest.raises(ValueError, match="did not rebuild cleanly"):
        server.restore(snap)
    assert [shard.request_cache.occupancy()
            for shard in server.shards] == occupancy
    assert _cache_state(server) == before
