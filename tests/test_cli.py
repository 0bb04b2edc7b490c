"""Tests for the command-line interface."""

import json
import re
import socket
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--profile", "lyft", "--out", "/tmp/x", "--val", "2"]
        )
        assert args.command == "generate"
        assert args.profile == "lyft"
        assert args.val == 2

    def test_bad_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--profile", "waymo", "--out", "x"])

    def test_bad_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "nope"])


class TestGenerate:
    def test_writes_scene_files(self, tmp_path, capsys):
        code = main(
            ["generate", "--profile", "internal", "--out", str(tmp_path),
             "--train", "1", "--val", "2"]
        )
        assert code == 0
        labels = sorted(tmp_path.glob("*.labels.json"))
        errors = sorted(tmp_path.glob("*.errors.json"))
        worlds = sorted(tmp_path.glob("*.world.json"))
        assert len(labels) == 3  # 1 train + 2 val
        assert len(errors) == 2
        assert len(worlds) == 2
        # Files are valid JSON and reload through the public API.
        from repro.core import Scene
        from repro.datagen import SceneCollection
        from repro.labelers import ErrorLedger

        scene = Scene.load(labels[0])
        assert scene.dt > 0
        ErrorLedger.load(errors[0])
        SceneCollection.load(worlds[0])
        assert "wrote" in capsys.readouterr().out


class TestExperiment:
    def test_runtime_experiment(self, capsys):
        code = main(["experiment", "runtime"])
        assert code == 0
        out = capsys.readouterr().out
        assert "runtime" in out
        assert "paper budget" in out

    def test_table3_reduced(self, capsys):
        code = main(["experiment", "table3", "--train", "2", "--val", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fixy" in out and "Ad-hoc MA" in out


class TestAudit:
    """End-to-end smoke for the new declarative surface (tier-1: this is
    the test that keeps `repro.cli audit` from silently rotting)."""

    def test_audit_end_to_end_nonempty_result(self, capsys):
        code = main(
            ["audit", "--profile", "internal", "--train", "2", "--val", "1",
             "--scene", "0", "--top", "5", "--model-only"]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["items"], "audit returned an empty AuditResult"
        assert result["items"][0]["kind"] == "track"
        assert result["spec"]["kind"] == "tracks"
        assert result["provenance"]["backend"] == "inline"
        assert result["provenance"]["model_fingerprint"]
        # The printed JSON is the full typed result: it round-trips.
        from repro.api import AuditResult

        assert len(AuditResult.from_dict(result).items) == len(result["items"])

    def test_audit_writes_out_file(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(
            ["audit", "--profile", "internal", "--train", "2", "--val", "1",
             "--scene", "0", "--top", "3", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["items"]

    def test_audit_from_spec_file(self, tmp_path, capsys):
        from repro.api import AuditSpec, FilterSpec, SceneSource

        spec = AuditSpec(
            kind="tracks",
            top_k=4,
            filters=FilterSpec(has_model=True, has_human=False),
            scenes=SceneSource(
                profile="internal", n_train=2, n_val=1, indices=(0,)
            ),
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json(indent=2))
        code = main(["audit", "--spec", str(path)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["spec"]["top_k"] == 4
        assert result["provenance"]["spec_hash"] == spec.spec_hash()

    def test_audit_spec_file_conflicts_with_flags(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("{}")
        # Scene-source flags and query flags alike conflict with --spec.
        for flags in (["--profile", "internal"], ["--top", "3"],
                      ["--backend", "session"]):
            code = main(["audit", "--spec", str(path)] + flags)
            assert code == 2
            assert "ambiguous" in capsys.readouterr().err

    def test_audit_bad_spec_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        for bad in ('{"kind": "galxy"}', '{"backend": "galxy"}', "{}"):
            path.write_text(bad)
            code = main(["audit", "--spec", str(path)])
            assert code == 2
            assert "invalid audit spec" in capsys.readouterr().err

    def test_audit_flag_backend_mismatch_fails_cleanly(self, capsys):
        code = main(
            ["audit", "--profile", "internal", "--workers", "2"]
        )
        assert code == 2
        assert "--workers applies" in capsys.readouterr().err

    def test_audit_requires_a_scene_source(self, capsys):
        code = main(["audit"])
        assert code == 2
        assert "scene source" in capsys.readouterr().err

    def test_audit_parser_defaults(self):
        args = build_parser().parse_args(["audit", "--profile", "internal"])
        assert args.backend == "inline"
        assert args.kind == "tracks"
        assert args.split == "val"

    def test_audit_workers_flag_validation(self, capsys):
        cases = [
            # remote takes addresses, and requires them
            (["--backend", "remote", "--workers", "nocolon"], "HOST:PORT"),
            (["--backend", "remote", "--workers", "host:nan"], "HOST:PORT"),
            (["--backend", "remote"], "--workers"),
            # timeout is a remote-only knob
            (["--timeout", "5"], "--timeout applies"),
        ]
        for flags, needle in cases:
            code = main(["audit", "--profile", "internal"] + flags)
            assert code == 2, flags
            assert needle in capsys.readouterr().err, flags

    def test_audit_remote_execution_failure_is_clean(self, capsys):
        """A protocol failure (no worker listening) is reported as a
        clean 'audit failed' with its own exit code, not a traceback."""
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            dead = "127.0.0.1:%d" % sock.getsockname()[1]
        code = main(
            ["audit", "--profile", "internal", "--train", "2", "--val", "1",
             "--backend", "remote", "--workers", dead]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "audit failed" in err and "worker_unavailable" in err

    def test_audit_bad_scene_index(self, capsys):
        code = main(
            ["audit", "--profile", "internal", "--scene", "99",
             "--train", "1", "--val", "1"]
        )
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_serve_listen_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--listen", "0.0.0.0:7500", "--capacity", "3"]
        )
        assert args.listen == "0.0.0.0:7500"
        assert args.capacity == 3

    def test_serve_bad_listen_address_fails_before_model_load(self, capsys):
        for bad in ("7500", "no-port-here", "host:nan"):
            code = main(["serve", "--listen", bad])
            assert code == 2
            assert "invalid --listen address" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The TCP transport: `serve --listen` workers as real subprocesses.
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def served_artifacts(tmp_path_factory):
    """A saved model + scene files shared by the TCP serve tests."""
    from tests.serving.conftest import build_training_scenes, model_scene
    from repro.core import Fixy, default_features

    tmp = tmp_path_factory.mktemp("cli-tcp")
    fixy = Fixy(default_features()).fit(build_training_scenes())
    fixy.warmup_fast_eval()
    model_path = tmp / "model.json"
    fixy.learned.save(model_path, include_grids=True)
    scene_paths = []
    for i in range(2):
        path = tmp / f"scene-{i}.json"
        model_scene(f"cli-tcp-{i}", n_tracks=4).save(path)
        scene_paths.append(str(path))
    return {
        "model_path": str(model_path),
        "fingerprint": fixy.learned.fingerprint(),
        "scene_paths": scene_paths,
    }


def spawn_serve(model_path: str, *extra_flags: str) -> subprocess.Popen:
    """`python -m repro.cli serve --listen 127.0.0.1:0 ...`; the bound
    address is parsed off the gateway's stderr banner (the line
    perfbench/remote_audit.py waits for) and stored on
    ``proc.address``."""
    import os

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--model", model_path,
         "--listen", "127.0.0.1:0", *extra_flags],
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    for line in proc.stderr:
        found = re.match(r"gateway listening on (\S+) \(", line)
        if found:
            proc.address = found.group(1)
            return proc
    proc.terminate()
    raise RuntimeError("serve --listen never announced its address")


@pytest.fixture(scope="module")
def worker(served_artifacts):
    proc = spawn_serve(served_artifacts["model_path"])
    yield proc
    proc.terminate()
    proc.wait(timeout=10)


@pytest.fixture(scope="module")
def capacity_worker(served_artifacts):
    proc = spawn_serve(served_artifacts["model_path"], "--capacity", "2")
    yield proc
    proc.terminate()
    proc.wait(timeout=10)


def raw_request(address: str, payload: dict) -> dict:
    """One raw JSON line to a worker, bypassing the typed client."""
    host, port = address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall((json.dumps(payload) + "\n").encode())
        reader = sock.makefile("r")
        return json.loads(reader.readline())


class TestServeListen:
    """The stdio protocol behind TCP: versioned requests, worker
    registration, and the remote backend end-to-end via the CLI."""

    def test_strict_rejects_v0_over_tcp(self, worker):
        from repro.api import protocol

        response = raw_request(worker.address, {"op": "stats"})
        assert response["ok"] is False
        # A rejection that never negotiated is stamped with the
        # server's own (current-build) version.
        assert response["v"] == protocol.PROTOCOL_VERSION
        assert response["error"]["code"] == "unsupported_version"

    def test_strict_answers_v1_over_tcp(self, worker):
        response = raw_request(worker.address, {"v": 1, "op": "stats"})
        assert response["ok"] is True
        assert response["v"] == 1

    def test_hello_over_tcp_advertises_model(
        self, worker, capacity_worker, served_artifacts
    ):
        from repro.api import AuditClient

        from repro.api import protocol

        with AuditClient.connect(worker.address, timeout=30) as client:
            hello = client.hello()
        assert hello["protocol_version"] == protocol.PROTOCOL_VERSION
        assert "frames" in hello["wire_formats"]
        assert hello["model_fingerprint"] == served_artifacts["fingerprint"]
        assert hello["capacity"] == 1
        with AuditClient.connect(capacity_worker.address, timeout=30) as client:
            assert client.hello()["capacity"] == 2

    def test_async_is_a_hidden_no_op(self, served_artifacts, capsys):
        """`--async` still parses (perfbench/remote_audit.py passes it)
        and starts the same gateway; `serve --help` does not list it."""
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        assert "--async" not in capsys.readouterr().out
        proc = spawn_serve(
            served_artifacts["model_path"], "--async", "--scene-cache", "16"
        )
        try:
            hello = raw_request(proc.address, {"v": 2, "op": "hello"})
        finally:
            proc.terminate()
            proc.wait(timeout=10)
        assert hello["ok"] is True
        assert hello["scene_cache"] == 16

    def test_sigterm_after_a_conversation_exits_cleanly(
        self, served_artifacts
    ):
        """A worker stopped right after a client hangs up drains and
        exits 0 without an asyncio traceback on stderr."""
        proc = spawn_serve(served_artifacts["model_path"])
        try:
            assert raw_request(proc.address, {"v": 2, "op": "stats"})["ok"]
        finally:
            proc.terminate()
            _, err = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "Traceback" not in err
        assert "served 1 requests" in err

    def test_serve_busy_port_fails_cleanly(
        self, worker, served_artifacts, capsys
    ):
        code = main(
            ["serve", "--model", served_artifacts["model_path"],
             "--listen", worker.address]
        )
        assert code == 2
        assert "cannot listen on" in capsys.readouterr().err

    def test_cli_audit_remote_matches_inline(
        self, worker, capacity_worker, served_artifacts, capsys
    ):
        """`audit --backend remote --workers ...` against two live
        serve subprocesses returns the same items as inline."""
        base = [
            "audit",
            "--paths", *served_artifacts["scene_paths"],
            "--model", served_artifacts["model_path"],
            "--top", "5",
        ]
        assert main(base) == 0
        inline = json.loads(capsys.readouterr().out)
        code = main(
            base + [
                "--backend", "remote",
                "--workers", worker.address, capacity_worker.address,
                "--timeout", "60",
            ]
        )
        assert code == 0
        remote = json.loads(capsys.readouterr().out)
        assert remote["items"] == inline["items"]
        assert remote["provenance"]["backend"] == "remote"
        attribution = remote["provenance"]["workers"]
        assert attribution and all(w["rank_s"] >= 0 for w in attribution)
        assert {w["worker"] for w in attribution} <= {
            worker.address, capacity_worker.address,
        }
        # The pool dispatches over the v2 framed wire.
        assert {w["wire"] for w in attribution} == {"v2"}
