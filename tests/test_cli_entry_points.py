"""The console-script entry points resolve and run.

The container cannot ``pip install`` the package, so these tests call
the entry functions directly with argv lists — the same call the
installed ``repro-serve`` / ``repro-sweep`` scripts make — and check
that ``setup.py`` names exactly those callables.
"""

from __future__ import annotations

import ast
import importlib
import json
import re
import socket
import threading
import time
import urllib.request
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def declared_entry_points() -> dict[str, str]:
    """Parse the console_scripts mapping out of setup.py."""
    tree = ast.parse((REPO_ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "entry_points":
            mapping = ast.literal_eval(node.value)
            return dict(spec.split("=", 1)
                        for spec in mapping["console_scripts"])
    raise AssertionError("setup.py declares no entry_points")


class TestEntryPointDeclarations:
    def test_scripts_are_declared(self):
        scripts = declared_entry_points()
        assert set(scripts) == {"repro-serve", "repro-sweep"}

    def test_targets_resolve_to_callables(self):
        for target in declared_entry_points().values():
            module_name, function_name = target.split(":")
            module = importlib.import_module(module_name)
            assert callable(getattr(module, function_name))


class TestReproServeCli:
    def test_replay_mode(self, capsys):
        from repro.serving.cli import serve_main
        code = serve_main(["--requests", "30", "--pool-size", "6",
                           "--traffic", "zipfian"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "served 30 requests" in out

    def test_http_drive_mode_batches_concurrent_requests(self, capsys):
        # The self-test drives the trace with concurrent clients, so
        # requests actually share micro-batches — serial requests would
        # leave the batching path untested (every batch of size 1).
        from repro.serving.cli import serve_main
        code = serve_main(["--requests", "24", "--pool-size", "4",
                           "--http"])
        assert code == 0
        out = capsys.readouterr().out
        assert "HTTP front end" in out
        assert "drove 24 requests over HTTP" in out
        match = re.search(r"mean batch size (\d+\.\d+)", out)
        assert match, out
        assert float(match.group(1)) > 1.0

    def test_serve_forever_starts_and_shuts_down(self, capsys):
        # --serve-forever parks on cli._shutdown; a test can bring the
        # server up, talk to it, and stop it without SIGINT.
        from repro.serving import cli

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        codes = []
        thread = threading.Thread(target=lambda: codes.append(
            cli.serve_main(["--http", "--serve-forever",
                            "--port", str(port),
                            "--requests", "4", "--pool-size", "4"])))
        thread.start()
        try:
            deadline = time.monotonic() + 60
            while True:
                try:
                    with urllib.request.urlopen(
                            f"http://127.0.0.1:{port}/healthz",
                            timeout=2) as response:
                        assert response.status == 200
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
        finally:
            # Keep setting the event until the loop notices: setting it
            # in the startup window would be erased by its clear().
            deadline = time.monotonic() + 30
            while thread.is_alive() and time.monotonic() < deadline:
                cli._shutdown.set()
                thread.join(timeout=0.2)
        assert not thread.is_alive()
        assert codes == [0]
        assert "shutdown requested" in capsys.readouterr().out

    def test_parallel_replay_with_injected_kill(self, capsys):
        # The CI parallel-serving smoke in miniature: real worker
        # processes, one injected kill, recovery, and parity with the
        # single-process replay.
        from repro.serving.cli import serve_main
        code = serve_main(["--parallel", "--workers", "2",
                           "--requests", "40", "--pool-size", "8",
                           "--kill-worker", "0",
                           "--kill-after-batches", "1",
                           "--snapshot-every", "2", "--parity-check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "measured makespan" in out
        assert "1 recovery" in out
        assert "parity: outputs and hit rate" in out

    def test_parallel_rejects_http_and_snapshot_flags(self, capsys):
        from repro.serving.cli import serve_main
        with pytest.raises(SystemExit):
            serve_main(["--parallel", "--http"])
        with pytest.raises(SystemExit):
            serve_main(["--parallel", "--warm-start", "somewhere"])

    def test_sharded_warm_start_round_trip(self, tmp_path, capsys):
        # serve → snapshot → restart → restore → the warm run must hit
        # on (nearly) every request, which no cold run can.
        from repro.serving.cli import serve_main
        snap = str(tmp_path / "snap")
        base = ["--shards", "2", "--requests", "60", "--pool-size", "8"]
        assert serve_main(base + ["--snapshot-to", snap]) == 0
        out = capsys.readouterr().out
        assert "snapshot written" in out
        assert "2 shards" in out
        code = serve_main(base + ["--warm-start", snap,
                                  "--min-hit-rate", "0.97"])
        assert code == 0
        out = capsys.readouterr().out
        assert "warm-started" in out
        assert "hit rate 100.00%, latency" in out

    def test_warm_start_report_counts_this_runs_batches(self, tmp_path,
                                                        capsys):
        # The restored batch clocks hold the donor's 50 batches; the
        # warm run's report counts only its own.
        from repro.serving.cli import serve_main
        snap = str(tmp_path / "lru_snapshot")
        base = ["--requests", "150", "--eviction", "lru", "--entries", "8",
                "--ways", "8", "--traffic", "zipfian", "--rotate-every",
                "40"]
        assert serve_main(base + ["--snapshot-to", snap]) == 0
        assert "50 micro-batches, mean size 3.0)" in capsys.readouterr().out
        assert serve_main(base + ["--warm-start", snap]) == 0
        assert "50 micro-batches, mean size 3.0)" in capsys.readouterr().out

    def test_warm_start_gate_fails_cold(self, tmp_path, capsys):
        from repro.serving.cli import serve_main
        code = serve_main(["--requests", "40", "--pool-size", "8",
                           "--min-hit-rate", "0.99"])
        assert code == 1
        assert "FAIL hit rate" in capsys.readouterr().out

    def test_tiered_replay_with_parity(self, capsys):
        # The CI tiered-serving smoke in miniature: LRU eviction on a
        # churning Zipfian trace, hot-key replication across 2 shards,
        # every output checked against the per-request oracle.
        from repro.serving.cli import serve_main
        code = serve_main(["--shards", "2", "--requests", "80",
                           "--pool-size", "12", "--traffic", "zipfian",
                           "--eviction", "lru", "--replicate-top", "4",
                           "--rotate-every", "20", "--entries", "4",
                           "--ways", "4", "--parity-check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lru eviction" in out
        assert "top-4 replication" in out
        assert "tiering:" in out
        assert "parity: all 80 outputs byte-identical" in out

    def test_l2_store_round_trip(self, tmp_path, capsys):
        # First run fills and flushes the shared L2; the second run
        # opens the same directory warm and reports its entry count.
        from repro.serving.cli import serve_main
        l2 = str(tmp_path / "l2")
        base = ["--requests", "40", "--pool-size", "8",
                "--eviction", "lru", "--entries", "2", "--ways", "2",
                "--l2", l2]
        assert serve_main(base) == 0
        out = capsys.readouterr().out
        assert "L2 store flushed" in out
        assert serve_main(base) == 0
        out = capsys.readouterr().out
        assert "shared L2 (" in out
        assert "0 warm entries" not in out

    def test_tiered_flag_guards(self):
        from repro.serving.cli import serve_main
        with pytest.raises(SystemExit):
            serve_main(["--parallel", "--replicate-top", "4"])
        with pytest.raises(SystemExit):
            serve_main(["--parallel", "--l2", "somewhere"])
        with pytest.raises(SystemExit):
            serve_main(["--parity-check", "--cache-policy", "none"])


class TestReproSweepCli:
    def test_sweep_writes_envelope(self, tmp_path, capsys):
        from repro.analysis.serving_sweep import main
        output = tmp_path / "serving.json"
        code = main(["--models", "squeezenet", "--traffics", "zipfian",
                     "--cache-policies", "none", "request_exact",
                     "--requests", "30", "--pool-size", "6",
                     "--processes", "0", "--output", str(output)])
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["schema"] == "serving-sweep"
        assert len(payload["rows"]) == 2
        out = capsys.readouterr().out
        assert "cache_policy" in out
        assert "mean hit rate" in out
