"""Versioned audit manifests for replay/serve runs.

:class:`AuditRecorder` persists one JSON manifest per run — the
configuration fingerprint, the seed streams that generated the
traffic, per-window metric snapshots, snapshot/restore/recovery
events and every adaptive-controller decision — next to the cache
snapshots, so a serving run can be audited (and its controller
decisions *re-derived*, see
:func:`repro.obs.controller.replay_decisions`) long after the process
exited.

The manifest is written by :func:`repro.durable.commit`, as the cache
snapshots are, so a crash or a power loss mid-write leaves the previous
complete manifest, never a torn one.
"""

from __future__ import annotations

from pathlib import Path

from repro.durable import commit, read

AUDIT_FORMAT = "repro-obs-audit"
# Version 2: the summary's ``requests``/``batches``/``hit_rate`` count
# the run alone.  Version 1 read ``hit_rate`` over the caches' lifetime,
# so a second run or a warm start mixed in the donor's traffic.
AUDIT_VERSION = 2
AUDIT_MANIFEST = "audit.json"


class AuditRecorder:
    """Accumulate one run's audit trail and persist it as a manifest."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.run = 0
        self._active = False
        self._header: dict = {}
        self.windows: list[dict] = []
        self.events: list[dict] = []
        self.decisions: list[dict] = []

    # -- run lifecycle --------------------------------------------------
    def begin_run(self, *, kind: str, config: dict | None = None,
                  seeds: dict | None = None, **extra) -> None:
        """Open a fresh run (clears the previous run's accumulators)."""
        self.run += 1
        self._active = True
        self._header = {"kind": kind, "config": config or {},
                        "seeds": seeds or {}, **extra}
        self.windows = []
        self.events = []
        self.decisions = []

    def record_window(self, window: dict) -> None:
        if self._active:
            self.windows.append(dict(window))

    def record_event(self, kind: str, **payload) -> None:
        if self._active:
            self.events.append({"kind": kind, **payload})

    def record_decision(self, decision: dict) -> None:
        if self._active:
            self.decisions.append(dict(decision))

    def finalize(self, summary: dict | None = None) -> dict:
        """Write the manifest (torn-proof) and return it."""
        manifest = commit(self.directory, AUDIT_MANIFEST, {
            "format": AUDIT_FORMAT,
            "version": AUDIT_VERSION,
            "run": self.run,
            **self._header,
            "windows": self.windows,
            "events": self.events,
            "decisions": self.decisions,
            "summary": summary or {},
        })
        self._active = False
        return manifest

    @property
    def manifest_path(self) -> Path:
        return self.directory / AUDIT_MANIFEST


def read_manifest(directory) -> dict:
    """Load and validate an audit manifest from a directory (or file)."""
    return read(directory, AUDIT_MANIFEST, AUDIT_FORMAT, AUDIT_VERSION)[0]


def render_manifest(manifest: dict) -> str:
    """Human-readable summary of a manifest (the ``--audit-read`` view)."""
    lines = [f"audit run {manifest.get('run')} "
             f"({manifest.get('kind', '?')})"]
    config = manifest.get("config", {})
    if config:
        lines.append("config:")
        for key in sorted(config):
            lines.append(f"  {key}: {config[key]}")
    seeds = manifest.get("seeds", {})
    if seeds:
        lines.append("seed streams: " + ", ".join(
            f"{key}={value}" for key, value in sorted(seeds.items())))
    windows = manifest.get("windows", [])
    lines.append(f"windows: {len(windows)}")
    for window in windows:
        lines.append(
            f"  w{window.get('window')}: rows={window.get('rows')} "
            f"hit_rate={window.get('hit_rate', 0.0):.3f} "
            f"evicted={window.get('evicted', 0)} "
            f"expired={window.get('expired', 0)}")
    decisions = manifest.get("decisions", [])
    lines.append(f"controller decisions: {len(decisions)}")
    for decision in decisions:
        detail = {key: value for key, value in decision.items()
                  if key not in ("action", "window", "reason")}
        lines.append(f"  w{decision.get('window')}: "
                     f"{decision.get('action')} "
                     f"({decision.get('reason', '')}) {detail}")
    events = manifest.get("events", [])
    if events:
        lines.append(f"events: {len(events)}")
        for event in events:
            lines.append(f"  {event.get('kind')}: "
                         + ", ".join(f"{key}={value}" for key, value
                                     in sorted(event.items())
                                     if key != "kind"))
    summary = manifest.get("summary", {})
    if summary:
        lines.append("summary:")
        for key in sorted(summary):
            lines.append(f"  {key}: {summary[key]}")
    return "\n".join(lines)
