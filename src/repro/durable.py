"""The one durable commit path for every file this package persists.

Cache snapshots, the shared L2 store, audit manifests and sweep results
are each one JSON manifest, maybe beside one ``.npz`` of arrays, written
by :func:`commit` and, all but sweep results, read by :func:`read`.  A
commit writes each file under a ``.tmp-`` name, fsyncs it and renames
it, arrays first and manifest last, then fsyncs the directory.  The
arrays take a name no manifest can reference yet, so a crash at any
instant leaves the previous complete state or the new one, never a mix;
the fsyncs extend that from a process crash to a power loss.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import numpy as np


def _write(directory: Path, name: str, write) -> None:
    """Temp-write ``name``, fsync it, rename it, fsync the directory."""
    temp = directory / (".tmp-" + name)
    with open(temp, "wb") as handle:
        write(handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, directory / name)
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def commit(directory, manifest_name: str, manifest: dict,
           arrays: dict | None = None, arrays_stem: str | None = None
           ) -> dict:
    """Durably replace ``directory/manifest_name``; returns it as written.

    ``arrays`` land in ``{arrays_stem}-{generation}.npz``, one past the
    largest generation present (never a name a manifest may reference),
    recorded as the manifest's ``arrays`` and ``generation``.  After the
    manifest, this writer's stale generations and temp files go.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = dict(manifest)
    stale = [directory / (".tmp-" + manifest_name)]
    if arrays is not None:
        pattern = re.compile(re.escape(arrays_stem) + r"-(\d+)\.npz")
        existing = {path: int(match.group(1))
                    for path in directory.glob(f"{arrays_stem}-*.npz")
                    if (match := pattern.fullmatch(path.name))}
        manifest["generation"] = 1 + max(existing.values(), default=0)
        manifest["arrays"] = f"{arrays_stem}-{manifest['generation']}.npz"
        _write(directory, manifest["arrays"],
               lambda handle: np.savez(handle, **arrays))
        stale += [*existing, *directory.glob(f".tmp-{arrays_stem}-*.npz")]
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write(directory, manifest_name,
           lambda handle: handle.write(text.encode()))
    for path in stale:
        path.unlink(missing_ok=True)
    return manifest


def read(path, manifest_name: str, format: str, version: int
         ) -> tuple[dict, dict]:
    """Load a committed manifest and its arrays as ``(manifest, arrays)``.

    ``path`` is the directory or the manifest file.  A missing manifest,
    another ``format`` or another ``version`` raises :class:`ValueError`;
    a manifest without arrays reads back ``{}``.
    """
    path = Path(path)
    if path.is_dir():
        path = path / manifest_name
    kind = format.rsplit("-", 1)[-1]
    if not path.exists():
        # The manifest commits last: without it nothing here is whole.
        raise ValueError(f"{path.parent} holds no complete {kind}: no "
                         f"{kind} manifest {path.name}")
    manifest = json.loads(path.read_text())
    if manifest.get("format") != format:
        raise ValueError(f"{path} is not a {format} manifest")
    if manifest.get("version") != version:
        raise ValueError(f"{kind} manifest version "
                         f"{manifest.get('version')!r} is not supported "
                         f"(expected {version})")
    if "arrays" not in manifest:
        return manifest, {}
    with np.load(path.parent / manifest["arrays"]) as payload:
        return manifest, {name: payload[name] for name in payload.files}
