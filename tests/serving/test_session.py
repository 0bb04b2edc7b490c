"""SceneSession delta recompilation ≡ from-scratch compile (ISSUE 2).

The from-scratch ``compile_scene`` is the executable reference; these
tests drive randomized edit sequences through a session and assert the
spliced state matches a clean recompile — structurally (factor names,
member rows, track slices via ``SceneSession.verify``) and numerically
(every component score to 1e-9, via the same comparators the columnar
pipeline is property-tested with).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FeatureDistributionLearner,
    Scorer,
    VolumeAspectFeature,
    compile_scene,
    default_features,
)
from repro.core.features import ObservationFeature
from repro.core.model import ObservationBundle, Scene
from repro.serving import (
    InsertBundle,
    InsertObservation,
    InsertTrack,
    RemoveBundle,
    RemoveObservation,
    RemoveTrack,
    ReplaceObservation,
    SceneSession,
)

from tests.core.conftest import make_obs, make_track, moving_track, scene_of
from tests.core.test_columnar import (
    assert_same_compiled,
    assert_same_scores,
    random_scene,
)

MAX_FRAME = 20  # ego poses exist for frames < 40; stay well inside


def random_edit(rng: np.random.Generator, scene: Scene, counter: list):
    """One random valid edit against the scene's current state."""
    ops = ["insert_track"]
    if scene.tracks:
        ops += ["remove_track", "insert_observation", "insert_bundle"]
        if any(t.bundles for t in scene.tracks):
            ops += ["remove_bundle", "remove_observation", "replace_observation"]
    op = ops[rng.integers(len(ops))]
    cls = ["car", "truck"][rng.integers(2)]
    source = ["human", "model"][rng.integers(2)]
    conf = float(rng.uniform(0.3, 1.0)) if source == "model" else None

    if op == "insert_track":
        counter[0] += 1
        return InsertTrack(
            moving_track(
                f"new-{counter[0]}",
                n_frames=int(rng.integers(1, 6)),
                start_x=float(rng.uniform(-40, 40)),
                cls=cls,
                source=source,
                conf=conf,
                jitter=0.03,
                seed=int(rng.integers(1 << 30)),
            )
        )
    track = scene.tracks[rng.integers(len(scene.tracks))]
    if op == "remove_track":
        return RemoveTrack(track.track_id)
    if op == "insert_observation":
        frame = int(rng.integers(0, MAX_FRAME))
        return InsertObservation(
            track.track_id,
            make_obs(
                frame, float(rng.uniform(-40, 40)), cls=cls, source=source,
                conf=conf, yaw=float(rng.uniform(-3, 3)),
            ),
        )
    if op == "insert_bundle":
        free = sorted(set(range(MAX_FRAME)) - set(track.frames))
        if not free:
            return RemoveTrack(track.track_id)
        frame = free[rng.integers(len(free))]
        obs = [
            make_obs(frame, float(rng.uniform(-40, 40)), cls=cls,
                     source=source, conf=conf)
            for _ in range(int(rng.integers(1, 3)))
        ]
        return InsertBundle(
            track.track_id, ObservationBundle(frame=frame, observations=obs)
        )
    tracks_with_bundles = [t for t in scene.tracks if t.bundles]
    track = tracks_with_bundles[rng.integers(len(tracks_with_bundles))]
    if op == "remove_bundle":
        frame = track.frames[rng.integers(len(track.frames))]
        return RemoveBundle(track.track_id, frame)
    observations = track.observations
    obs = observations[rng.integers(len(observations))]
    if op == "remove_observation":
        return RemoveObservation(track.track_id, obs.obs_id)
    return ReplaceObservation(
        track.track_id,
        obs.obs_id,
        make_obs(
            obs.frame, float(rng.uniform(-40, 40)), cls=cls, source=source,
            conf=conf, l=float(rng.uniform(3.5, 9.0)),
        ),
    )


@pytest.fixture(scope="module")
def learned(serving_training_scenes):
    return FeatureDistributionLearner(default_features()).fit(
        serving_training_scenes
    )


EXTENDED = default_features() + [VolumeAspectFeature()]


@pytest.fixture(scope="module")
def learned_extended(serving_training_scenes):
    return FeatureDistributionLearner(EXTENDED).fit(serving_training_scenes)


def assert_session_matches_scratch(session: SceneSession):
    """Spliced state ≡ from-scratch compile: structure, scores, graph."""
    session.verify(tol=1e-9)
    scratch = compile_scene(
        session.scene,
        session.features,
        learned=session.learned,
        aofs=session.aofs,
        context=session.context,
    )
    assert_same_scores(session.scene, session.compiled, scratch)
    assert_same_compiled(session.compiled, scratch)


class TestRandomizedEditSequences:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_default_features(self, seed, learned):
        rng = np.random.default_rng(seed)
        scene = random_scene(seed, scene_id=f"sess-{seed}")
        session = SceneSession(scene, default_features(), learned=learned)
        counter = [0]
        for _ in range(int(rng.integers(2, 7))):
            session.apply(random_edit(rng, scene, counter))
        assert_session_matches_scratch(session)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_extended_features_with_d2(self, seed, learned_extended):
        """The d=2 (volume, aspect) feature rides the same delta path."""
        rng = np.random.default_rng(seed + 1)
        scene = random_scene(seed, scene_id=f"sess2-{seed}")
        session = SceneSession(scene, EXTENDED, learned=learned_extended)
        counter = [0]
        for _ in range(int(rng.integers(2, 6))):
            session.apply(random_edit(rng, scene, counter))
        assert_session_matches_scratch(session)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_verify_after_every_edit(self, seed, learned):
        rng = np.random.default_rng(seed + 2)
        scene = random_scene(seed, scene_id=f"sess3-{seed}")
        session = SceneSession(scene, default_features(), learned=learned)
        counter = [0]
        for _ in range(3):
            session.apply(random_edit(rng, scene, counter))
            session.verify(tol=1e-9)


class TestDirectedEdits:
    def test_empty_scene_grows_and_shrinks(self, learned):
        scene = scene_of([], scene_id="empty")
        session = SceneSession(scene, default_features(), learned=learned)
        assert session.compiled.columns.n_factors == 0
        session.apply(InsertTrack(moving_track("a", n_frames=5)))
        assert_session_matches_scratch(session)
        session.apply(RemoveTrack("a"))
        assert session.compiled.columns.n_factors == 0
        assert_session_matches_scratch(session)

    def test_track_emptied_by_observation_removals(self, learned):
        track = moving_track("solo", n_frames=2)
        scene = scene_of([track], scene_id="drain")
        session = SceneSession(scene, default_features(), learned=learned)
        for obs in list(track.observations):
            session.apply(RemoveObservation("solo", obs.obs_id))
        assert track.bundles == []
        assert_session_matches_scratch(session)

    def test_class_flip_moves_conditioning_group(self, learned):
        """Replacing observations flips the majority class; the segment
        recompiles against the other class's distributions."""
        track = moving_track("flip", n_frames=5)
        scene = scene_of([track], scene_id="flip")
        session = SceneSession(scene, default_features(), learned=learned)
        for obs in list(track.observations):
            session.apply(
                ReplaceObservation(
                    "flip", obs.obs_id,
                    make_obs(obs.frame, obs.box.x, cls="truck",
                             l=8.5, w=2.6, h=3.2),
                )
            )
        assert track.majority_class() == "truck"
        assert_session_matches_scratch(session)

    def test_noncolumnar_and_override_features_splice(self, learned):
        """Fallback columns (custom compute) and non-contiguous member
        overrides (custom observations_of) survive the splice."""

        class EndpointsFeature(ObservationFeature):
            name = "endpoints"
            learnable = False
            kind = "track"

            def compute(self, track, context):
                return 0.5

            def items_of(self, track):
                return [track]

            def observations_of(self, track):
                obs = track.observations
                return [obs[0], obs[-1]] if obs else []

        features = default_features() + [EndpointsFeature()]
        scene = scene_of(
            [moving_track("a", n_frames=5),
             moving_track("b", n_frames=4, start_x=40.0)],
            scene_id="override",
        )
        session = SceneSession(scene, features, learned=learned)
        session.apply(InsertObservation("a", make_obs(9, 3.0)))
        session.apply(InsertTrack(moving_track("c", n_frames=3, start_x=80.0)))
        session.verify(tol=1e-9)
        scratch = compile_scene(
            scene, features, learned=learned, context=session.context
        )
        assert_same_scores(scene, session.compiled, scratch)
        assert_same_compiled(session.compiled, scratch)

    def test_subset_items_of_fallback_feature_splices(self, learned):
        """A fallback column carrying fewer rows than the table has
        items of its kind (custom items_of subset) must splice with
        column-length offsets, not kind counts."""

        class ModelObsVolume(ObservationFeature):
            name = "model_obs_volume"
            learnable = False

            def compute(self, obs, context):
                return min(1.0, 1.0 / max(obs.box.volume, 1e-6))

            def items_of(self, track):
                return [o for o in track.observations if o.is_model]

        features = default_features() + [ModelObsVolume()]
        tracks = [
            make_track(
                "mixed",
                {f: [make_obs(f, 1.0 * f),
                     make_obs(f, 1.1 * f, source="model", conf=0.8)]
                 for f in range(4)},
            ),
            moving_track("human-only", n_frames=3, start_x=40.0),
            moving_track("models", n_frames=4, start_x=80.0, source="model",
                         conf=0.7),
        ]
        scene = scene_of(tracks, scene_id="subset")
        session = SceneSession(scene, features, learned=learned)
        session.apply(InsertObservation("human-only", make_obs(9, 41.0, source="model", conf=0.9)))
        session.apply(RemoveTrack("mixed"))
        session.apply(InsertTrack(moving_track("late", n_frames=3, start_x=120.0, source="model", conf=0.6)))
        session.verify(tol=1e-9)
        scratch = compile_scene(
            scene, features, learned=learned, context=session.context
        )
        assert_same_scores(scene, session.compiled, scratch)
        assert_same_compiled(session.compiled, scratch)

    def test_mutating_scene_directly_is_detected(self, learned):
        scene = scene_of([moving_track("a", n_frames=3)], scene_id="direct")
        session = SceneSession(scene, default_features(), learned=learned)
        scene.tracks.append(moving_track("rogue", n_frames=2))
        with pytest.raises(RuntimeError, match="without apply"):
            session.compiled
        session.invalidate(["rogue"])
        assert_session_matches_scratch(session)

    def test_duplicate_obs_id_across_tracks_rejected_at_edit(self, learned):
        """The edit that introduces a duplicate id fails — same invariant
        the from-scratch compile enforces, caught eagerly."""
        scene = scene_of([moving_track("a", n_frames=3)], scene_id="dup")
        session = SceneSession(scene, default_features(), learned=learned)
        stolen = scene.track_by_id("a").observations[0]
        clone = make_track("thief", {stolen.frame: [stolen]})
        with pytest.raises(ValueError, match="already exists"):
            session.apply(InsertTrack(clone))
        # The bad state stays un-servable (retried, fails again) rather
        # than silently serving the pre-edit ranking.
        with pytest.raises(ValueError, match="already exists"):
            session.rank("tracks")
        # Undoing the bad edit restores service.
        session.apply(RemoveTrack("thief"))
        assert_session_matches_scratch(session)

    def test_failed_recompile_never_serves_stale_state(self, learned):
        """If a segment recompile blows up mid-edit, subsequent queries
        must not return the pre-edit ranking as if nothing happened."""
        scene = scene_of([moving_track("a", n_frames=4)], scene_id="fail")
        session = SceneSession(scene, default_features(), learned=learned)
        session.rank("tracks")  # warm pre-edit state
        obs = scene.track_by_id("a").observations[0]
        dup = make_track("x", {obs.frame: [obs]})
        with pytest.raises(ValueError):
            session.apply(InsertTrack(dup))
        with pytest.raises(ValueError):
            session.rank("tracks")  # refuses, not stale results
        session.apply(RemoveTrack("x"))
        assert_session_matches_scratch(session)


class TestSessionBehavior:
    def test_stats_and_versioning(self, learned):
        scene = scene_of(
            [moving_track("a", n_frames=4),
             moving_track("b", n_frames=4, start_x=30.0)],
            scene_id="stats",
        )
        session = SceneSession(scene, default_features(), learned=learned)
        assert session.version == 0
        assert session.stats.tracks_recompiled == 2
        session.apply(InsertObservation("a", make_obs(9, 1.0)))
        assert session.version == 1
        assert session.stats.tracks_recompiled == 3  # only "a" recompiled
        session.compiled
        session.compiled  # cached — no second splice
        assert session.stats.splices == 1
        session.apply(RemoveTrack("b"))
        assert session.stats.segments_dropped == 1
        assert session.stats.edits_applied == 2

    def test_rank_methods_and_top_k(self, fitted_fixy):
        from tests.serving.conftest import model_scene

        scene = model_scene("rank", n_tracks=4)
        session = fitted_fixy.session(scene)
        ranked = session.rank("tracks")
        assert len(ranked) == 4
        assert ranked == sorted(ranked, key=lambda s: s.score, reverse=True)
        assert session.rank("tracks", top_k=2) == ranked[:2]
        assert len(session.rank("observations", top_k=3)) == 3
        bundles = session.rank("bundles")
        assert all(b.scene_id == "rank" for b in bundles)

    def test_engine_session_requires_fit(self):
        from repro.core import Fixy

        fixy = Fixy(default_features())
        with pytest.raises(RuntimeError, match="fit"):
            fixy.session(scene_of([moving_track("a")], scene_id="x"))

    def test_engine_session_rejects_scalar_pipeline(self, serving_training_scenes):
        from repro.core import Fixy

        fixy = Fixy(default_features(), vectorized=False).fit(
            serving_training_scenes
        )
        with pytest.raises(ValueError, match="vectorized=False"):
            fixy.session(scene_of([moving_track("a")], scene_id="x"))

    def test_session_edits_evict_engine_compile_cache(self, fitted_fixy):
        """fixy.rank_* on a session-edited scene must not serve the
        cached pre-edit compile (scenes are cached by object identity)."""
        from tests.serving.conftest import model_scene

        scene = model_scene("evict", n_tracks=3)
        before = {s.track_id: s.score for s in fitted_fixy.rank(scene, "tracks")}
        session = fitted_fixy.session(scene)
        obs = scene.track_by_id("evict-t0").observations[2]
        session.apply(
            ReplaceObservation(
                "evict-t0", obs.obs_id,
                make_obs(obs.frame, obs.box.x + 500.0, source="model", conf=0.8),
            )
        )
        after = {s.track_id: s.score for s in fitted_fixy.rank(scene, "tracks")}
        assert after["evict-t0"] < before["evict-t0"]

    def test_scores_track_live_edits(self, fitted_fixy):
        """An edit visibly moves a track's score — the streaming story."""
        from tests.serving.conftest import model_scene

        scene = model_scene("live", n_tracks=3)
        session = fitted_fixy.session(scene)
        before = {
            s.track_id: s.score for s in session.rank("tracks")
        }
        # Teleport one observation far away: velocity becomes implausible.
        target = scene.track_by_id("live-t0")
        obs = target.observations[2]
        session.apply(
            ReplaceObservation(
                "live-t0", obs.obs_id,
                make_obs(obs.frame, obs.box.x + 500.0, source="model", conf=0.8),
            )
        )
        after = {s.track_id: s.score for s in session.rank("tracks")}
        assert after["live-t0"] < before["live-t0"]
        for other in ("live-t1", "live-t2"):
            assert after[other] == before[other]  # untouched tracks: bit-equal
