"""SessionStore eviction + StreamingService protocol + CLI serve loop."""

import io
import json

import pytest

from repro.serving import InsertObservation, RemoveTrack, SessionStore, StreamingService

from tests.core.conftest import make_obs
from tests.serving.conftest import model_scene


class TestSessionStore:
    def test_open_get_apply_rank(self, fitted_fixy):
        store = SessionStore(fitted_fixy, max_sessions=4)
        scene = model_scene("st-a", n_tracks=3)
        session = store.open(scene)
        assert store.get("st-a") is session
        changed = store.apply("st-a", InsertObservation("st-a-t0", make_obs(9, 1.0, source="model", conf=0.9)))
        assert changed == {"st-a-t0"}
        ranked = store.rank("st-a", "tracks", top_k=2)
        assert len(ranked) == 2
        assert store.rank("st-a", "observations") != []

    def test_lru_eviction_prefers_recently_used(self, fitted_fixy):
        store = SessionStore(fitted_fixy, max_sessions=2)
        store.open(model_scene("s1"))
        store.open(model_scene("s2"))
        store.get("s1")  # refresh s1 — s2 becomes the eviction candidate
        store.open(model_scene("s3"))
        assert "s1" in store and "s3" in store
        assert "s2" not in store
        assert store.sessions_evicted == 1
        with pytest.raises(KeyError, match="no live session"):
            store.get("s2")

    def test_close_and_stats(self, fitted_fixy):
        store = SessionStore(fitted_fixy, max_sessions=4)
        store.open(model_scene("c1"))
        assert store.close("c1") is True
        assert store.close("c1") is False
        stats = store.stats()
        assert stats["live_sessions"] == 0
        assert stats["sessions_opened"] == 1

    def test_bad_rank_kind(self, fitted_fixy):
        store = SessionStore(fitted_fixy, max_sessions=2)
        store.open(model_scene("k1"))
        with pytest.raises(ValueError, match="unknown rank kind"):
            store.rank("k1", "galaxies")

    def test_requires_fitted_engine(self):
        from repro.core import Fixy, default_features

        with pytest.raises(RuntimeError, match="fit"):
            SessionStore(Fixy(default_features()))


class TestStreamingService:
    @pytest.fixture
    def service(self, fitted_fixy):
        return StreamingService(fitted_fixy, max_sessions=4)

    def test_open_edit_rank_close(self, service):
        scene = model_scene("svc", n_tracks=3)
        opened = service.handle({"v": 2, "op": "open", "scene": scene.to_dict()})
        assert opened["ok"] and opened["session_id"] == "svc"
        assert opened["n_tracks"] == 3

        edit = InsertObservation(
            "svc-t0", make_obs(9, 1.0, source="model", conf=0.9)
        )
        edited = service.handle(
            {"v": 2, "op": "edit", "session_id": "svc", "edit": edit.to_dict()}
        )
        assert edited["ok"] and edited["changed"] == ["svc-t0"]
        assert edited["version"] == 1

        ranked = service.handle(
            {"v": 2, "op": "rank", "session_id": "svc", "kind": "tracks",
             "top_k": 2}
        )
        assert ranked["ok"] and len(ranked["results"]) == 2
        top = ranked["results"][0]
        assert top["kind"] == "track" and "score" in top and "track_id" in top
        json.dumps(ranked)  # whole response JSON-safe

        removed = service.handle(
            {"v": 2, "op": "edit", "session_id": "svc",
             "edit": RemoveTrack("svc-t2").to_dict()}
        )
        assert removed["ok"]
        closed = service.handle({"v": 2, "op": "close", "session_id": "svc"})
        assert closed["ok"] and closed["closed"] is True

    def test_rank_kinds(self, service):
        service.handle(
            {"v": 2, "op": "open", "scene": model_scene("kinds").to_dict()}
        )
        for kind, id_field in (
            ("bundles", "frame"), ("observations", "obs_id")
        ):
            response = service.handle(
                {"v": 2, "op": "rank", "session_id": "kinds", "kind": kind,
                 "top_k": 1}
            )
            assert response["ok"]
            assert id_field in response["results"][0]

    def test_errors_are_responses_not_exceptions(self, service):
        warp = {"v": 2, "op": "warp"}
        assert service.handle(warp)["ok"] is False
        assert "unknown op" in service.handle(warp)["error"]["message"]
        ghost = {"v": 2, "op": "rank", "session_id": "ghost"}
        assert service.handle(ghost)["ok"] is False
        assert service.handle({"v": 2, "op": "open"})["ok"] is False

    def test_stats_op(self, service):
        service.handle(
            {"v": 2, "op": "open", "scene": model_scene("stat").to_dict()}
        )
        stats = service.handle({"v": 2, "op": "stats"})
        assert stats["ok"] and stats["live_sessions"] == 1

    def test_serve_loop(self, service):
        scene = model_scene("loop")
        lines = [
            json.dumps({"v": 2, "op": "open", "scene": scene.to_dict()}),
            "",  # blank lines skipped
            json.dumps({"v": 2, "op": "rank", "session_id": "loop", "top_k": 1}),
            "not json",
        ]
        out = io.StringIO()
        handled = service.serve(lines, out)
        assert handled == 3
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [True, True, False]
        assert "bad JSON" in responses[2]["error"]["message"]


class TestCliServe:
    def test_serve_command_round_trip(self, fitted_fixy, tmp_path, capsys):
        """`repro.cli serve --model ...` speaks the protocol over stdio."""
        from repro.cli import build_parser, _cmd_serve

        model_path = tmp_path / "model.json"
        fitted_fixy.learned.save(model_path)

        scene = model_scene("cli", n_tracks=2)
        requests = "\n".join(
            [
                json.dumps({"v": 2, "op": "open", "scene": scene.to_dict()}),
                json.dumps(
                    {"v": 2, "op": "rank", "session_id": "cli", "top_k": 1}
                ),
                json.dumps({"v": 2, "op": "stats"}),
            ]
        )
        args = build_parser().parse_args(
            ["serve", "--model", str(model_path), "--max-sessions", "2"]
        )
        out = io.StringIO()
        code = _cmd_serve(args, stdin=io.StringIO(requests), stdout=out)
        assert code == 0
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(responses) == 3
        assert all(r["ok"] for r in responses)
        assert responses[1]["results"][0]["track_id"].startswith("cli-")
        assert responses[2]["live_sessions"] == 1
        assert "served 3 requests" in capsys.readouterr().err

    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.max_sessions == 32
        assert args.model is None


class TestLegacyShims:
    def test_serve_strict_flag(self, fitted_fixy, tmp_path):
        """The stdio loop rejects a version-less request; there is no
        flag to accept one."""
        from repro.cli import build_parser, _cmd_serve

        model_path = tmp_path / "model.json"
        fitted_fixy.learned.save(model_path)
        args = build_parser().parse_args(["serve", "--model", str(model_path)])
        out = io.StringIO()
        code = _cmd_serve(
            args, stdin=io.StringIO(json.dumps({"op": "stats"})), stdout=out
        )
        assert code == 0
        response = json.loads(out.getvalue())
        assert response["ok"] is False
        assert response["error"]["code"] == "unsupported_version"
