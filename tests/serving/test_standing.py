"""Standing audits: incremental top-k ≡ full rescore (ISSUE 6).

The spliced full rescore (``session.rank``) is the executable
reference; these tests drive randomized edit sequences through a
session with :class:`~repro.serving.standing.StandingAudit`
subscriptions attached and assert the incrementally maintained top-k
stays **byte-identical** (``StandingAudit.verify`` compares raw
float64 bytes and item identity) — including removals that evict
top-k members and score ties straddling the k boundary.
"""

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from repro.api import AuditSpec, FilterSpec
from repro.core import FeatureDistributionLearner, default_features
from repro.serving import (
    InsertTrack,
    RemoveTrack,
    SceneSession,
    SessionStore,
    StreamingService,
)

from tests.core.conftest import make_obs, make_track, moving_track, scene_of
from tests.core.test_columnar import random_scene
from tests.serving.conftest import model_scene
from tests.serving.test_session import random_edit


@pytest.fixture(scope="module")
def learned(serving_training_scenes):
    return FeatureDistributionLearner(default_features()).fit(
        serving_training_scenes
    )


class TestRandomizedEditSequences:
    """Property suite: any edit stream, any k, byte-identical top-k."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_incremental_topk_matches_full_rescore(self, seed, learned):
        rng = np.random.default_rng(seed)
        scene = random_scene(seed, scene_id=f"standing-{seed}")
        session = SceneSession(scene, default_features(), learned=learned)
        audits = [
            session.subscribe(AuditSpec(kind="tracks", top_k=3), audit_id="k3"),
            session.subscribe(AuditSpec(kind="tracks"), audit_id="all"),
            session.subscribe(
                AuditSpec(kind="observations", top_k=5), audit_id="obs5"
            ),
        ]
        counter = [0]
        for _ in range(int(rng.integers(2, 7))):
            session.apply(random_edit(rng, scene, counter))
            for audit in audits:
                assert audit.verify()
        session.verify(tol=1e-9)  # also re-verifies every subscription

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_bounded_k_survives_churn(self, seed, learned):
        """k=1 maximizes eviction/refill traffic through the heap."""
        rng = np.random.default_rng(seed + 7)
        scene = random_scene(seed, scene_id=f"churn-{seed}")
        session = SceneSession(scene, default_features(), learned=learned)
        audit = session.subscribe(AuditSpec(kind="tracks", top_k=1))
        counter = [0]
        for _ in range(6):
            session.apply(random_edit(rng, scene, counter))
            assert audit.verify()


class TestDirectedStanding:
    def test_removal_evicts_topk_member(self, learned):
        # Enough tracks that the candidate set exceeds the shrink bound
        # (max(2k, k+8)) and most items get demoted to the overflow
        # heap; removing a top-k member must then refill from it.
        scene = scene_of(
            [moving_track(f"t{i}", n_frames=4, start_x=20.0 * i,
                          source="model", conf=0.8,
                          jitter=0.05 * (i + 1), seed=i)
             for i in range(14)],
            scene_id="evict",
        )
        session = SceneSession(scene, default_features(), learned=learned)
        audit = session.subscribe(AuditSpec(kind="tracks", top_k=2))
        top = audit.results()
        assert len(top) == 2
        assert audit.stats.heap_demotions > 0
        refills_before = audit.stats.heap_refills
        session.apply(RemoveTrack(top[0].track_id))
        promoted = audit.results()
        assert len(promoted) == 2
        assert top[0].track_id not in {s.track_id for s in promoted}
        # The replacement came out of the overflow heap, not a rescan.
        assert audit.stats.heap_refills > refills_before
        assert audit.verify()

    def test_ties_at_k_boundary(self, learned):
        """Identical geometry → bit-identical scores; the k cut lands
        inside the tie group and must reproduce the reference's
        scene-order tie-break exactly."""
        twins = [
            moving_track(f"twin-{i}", n_frames=4, start_x=0.0,
                         source="model", conf=0.8, jitter=0.0)
            for i in range(3)
        ]
        scene = scene_of(
            twins + [moving_track("odd", n_frames=6, start_x=40.0,
                                  source="model", conf=0.8,
                                  jitter=0.4, seed=9)],
            scene_id="ties",
        )
        session = SceneSession(scene, default_features(), learned=learned)
        audit = session.subscribe(AuditSpec(kind="tracks", top_k=2))
        scores = {s.track_id: s.score for s in session.rank("tracks")}
        assert scores["twin-0"] == scores["twin-1"] == scores["twin-2"]
        assert audit.verify()
        # Removing one tied member promotes the next twin in scene
        # order — still byte-identical to the reference.
        first = audit.results()[0].track_id
        session.apply(RemoveTrack(first))
        assert audit.verify()
        # A new identical twin appends last in scene order, extending
        # the tie group at the boundary.
        session.apply(
            InsertTrack(
                moving_track("twin-late", n_frames=4, start_x=0.0,
                             source="model", conf=0.8, jitter=0.0)
            )
        )
        assert audit.verify()

    def test_insertion_enters_topk(self, learned):
        scene = scene_of(
            [moving_track(f"m{i}", n_frames=5, start_x=15.0 * i,
                          source="model", conf=0.8, jitter=0.5, seed=40 + i)
             for i in range(4)],
            scene_id="enter",
        )
        session = SceneSession(scene, default_features(), learned=learned)
        audit = session.subscribe(AuditSpec(kind="tracks", top_k=3))
        session.apply(
            InsertTrack(moving_track("clean", n_frames=6, start_x=80.0,
                                     source="model", conf=0.8, jitter=0.0))
        )
        assert audit.verify()

    def test_filtered_standing_audit(self, fitted_fixy):
        scene = model_scene("filt", n_tracks=4)
        session = fitted_fixy.session(scene)
        audit = session.subscribe(
            AuditSpec(
                kind="tracks", top_k=2,
                filters=FilterSpec(track_has_model=True, track_has_human=False),
            )
        )
        assert len(audit.results()) == 2
        assert audit.verify()
        session.apply(RemoveTrack("filt-t0"))
        assert audit.verify()

    def test_duplicate_audit_id_rejected(self, learned):
        scene = scene_of([moving_track("a", n_frames=3)], scene_id="dup-id")
        session = SceneSession(scene, default_features(), learned=learned)
        session.subscribe(AuditSpec(kind="tracks"), audit_id="same")
        with pytest.raises(ValueError, match="already subscribed"):
            session.subscribe(AuditSpec(kind="bundles"), audit_id="same")

    def test_max_standing_limit(self, learned):
        scene = scene_of([moving_track("a", n_frames=3)], scene_id="limit")
        session = SceneSession(
            scene, default_features(), learned=learned, max_standing=1
        )
        session.subscribe(AuditSpec(kind="tracks"))
        with pytest.raises(RuntimeError, match="standing-audit limit"):
            session.subscribe(AuditSpec(kind="bundles"))

    def test_unsubscribe_and_lookup(self, learned):
        scene = scene_of([moving_track("a", n_frames=3)], scene_id="unsub")
        session = SceneSession(scene, default_features(), learned=learned)
        audit = session.subscribe(AuditSpec(kind="tracks"), audit_id="x")
        assert session.standing_audit("x") is audit
        assert session.unsubscribe("x") is True
        assert session.unsubscribe("x") is False
        with pytest.raises(KeyError, match="no standing audit"):
            session.standing_audit("x")

    def test_failed_edit_retries_before_serving(self, learned):
        """A failed recompile must not leave the standing top-k stale:
        queries refuse until the bad edit is undone, then the retried
        rescore catches the audit up."""
        scene = scene_of([moving_track("a", n_frames=4)], scene_id="retry")
        session = SceneSession(scene, default_features(), learned=learned)
        audit = session.subscribe(AuditSpec(kind="tracks", top_k=1))
        stolen = scene.track_by_id("a").observations[0]
        with pytest.raises(ValueError, match="already exists"):
            session.apply(InsertTrack(make_track("thief", {stolen.frame: [stolen]})))
        with pytest.raises(ValueError, match="already exists"):
            audit.results()  # refuses, not stale results
        session.apply(RemoveTrack("thief"))
        assert audit.verify()

    def test_stats_count_only_changed_tracks(self, fitted_fixy):
        from repro.serving import ReplaceObservation

        scene = model_scene("delta", n_tracks=4)
        session = fitted_fixy.session(scene)
        audit = session.subscribe(AuditSpec(kind="tracks", top_k=2))
        assert audit.stats.tracks_rescored == 4  # initial full scoring
        obs = scene.track_by_id("delta-t1").observations[0]
        session.apply(
            ReplaceObservation(
                "delta-t1", obs.obs_id,
                make_obs(obs.frame, obs.box.x + 1.0, source="model", conf=0.8),
            )
        )
        assert audit.stats.edits_seen == 1
        assert audit.stats.tracks_rescored == 5  # only the edited track
        assert audit.last_rescored == 1
        assert audit.verify()


class TestServiceOps:
    @pytest.fixture
    def service(self, fitted_fixy):
        return StreamingService(fitted_fixy, max_sessions=4)

    def test_subscribe_edit_standing_unsubscribe(self, service):
        from repro.serving import InsertObservation

        scene = model_scene("ops", n_tracks=3)
        assert service.handle(
            {"op": "open", "scene": scene.to_dict(), "v": 2}
        )["ok"]
        sub = service.handle(
            {
                "op": "subscribe", "session_id": "ops", "v": 2,
                "spec": AuditSpec(kind="tracks", top_k=2).to_dict(),
                "audit_id": "watch",
            }
        )
        assert sub["ok"] and sub["audit_id"] == "watch"
        assert len(sub["results"]) == 2

        edit = InsertObservation(
            "ops-t0", make_obs(9, 1.0, source="model", conf=0.9)
        )
        edited = service.handle(
            {"op": "edit", "session_id": "ops", "edit": edit.to_dict(), "v": 2}
        )
        assert edited["ok"] and edited["changed"] == ["ops-t0"]
        standing = edited["standing"]["watch"]
        assert standing["rescored"] == 1
        ranked = service.handle(
            {"op": "rank", "session_id": "ops", "kind": "tracks",
             "top_k": 2, "v": 2}
        )
        assert standing["results"] == ranked["results"]

        polled = service.handle(
            {"op": "standing", "session_id": "ops", "audit_id": "watch",
             "v": 2}
        )
        assert polled["ok"] and polled["results"] == ranked["results"]
        assert polled["stats"]["edits_seen"] == 1

        # Opt out of the piggybacked results.
        quiet = service.handle(
            {"op": "edit", "session_id": "ops",
             "edit": RemoveTrack("ops-t2").to_dict(),
             "standing": False, "v": 2}
        )
        assert quiet["ok"] and "standing" not in quiet

        assert service.handle(
            {"op": "unsubscribe", "session_id": "ops", "audit_id": "watch",
             "v": 2}
        )["unsubscribed"] is True
        gone = service.handle(
            {"op": "standing", "session_id": "ops", "audit_id": "watch",
             "v": 2}
        )
        assert gone["ok"] is False
        assert gone["error"]["code"] == "unknown_subscription"

    def test_subscribe_error_paths(self, service):
        missing = service.handle(
            {"op": "subscribe", "session_id": "ghost", "v": 2,
             "spec": AuditSpec(kind="tracks").to_dict()}
        )
        assert missing["ok"] is False
        assert missing["error"]["code"] == "unknown_session"

        service.handle(
            {"op": "open", "scene": model_scene("bad").to_dict(), "v": 2}
        )
        bad = service.handle(
            {"op": "subscribe", "session_id": "bad", "v": 2,
             "spec": {"kind": "galaxies"}}
        )
        assert bad["ok"] is False
        assert bad["error"]["code"] == "unknown_rank_kind"

    def test_standing_limit_is_bad_request(self, fitted_fixy):
        service = StreamingService(fitted_fixy, max_sessions=2, max_standing=1)
        service.handle(
            {"op": "open", "scene": model_scene("full").to_dict(), "v": 2}
        )
        spec = AuditSpec(kind="tracks").to_dict()
        assert service.handle(
            {"op": "subscribe", "session_id": "full", "spec": spec, "v": 2}
        )["ok"]
        refused = service.handle(
            {"op": "subscribe", "session_id": "full", "spec": spec,
             "audit_id": "two", "v": 2}
        )
        assert refused["ok"] is False
        assert refused["error"]["code"] == "bad_request"
        assert "standing-audit limit" in refused["error"]["message"]

    def test_hello_advertises_standing_ops(self, service):
        hello = service.handle({"op": "hello", "v": 2})
        assert {"subscribe", "unsubscribe", "standing"} <= set(hello["ops"])

    def test_store_stats_count_standing(self, fitted_fixy):
        store = SessionStore(fitted_fixy, max_sessions=4)
        store.open(model_scene("sa"))
        store.subscribe("sa", AuditSpec(kind="tracks", top_k=2))
        stats = store.stats()
        assert stats["standing_audits"] == 1
        assert stats["standing_tracks_rescored"] == 4
