"""Tests for the Fixy engine facade and the §7 application pipelines."""

import pytest

from repro.core import (
    Fixy,
    MissingObservationFinder,
    MissingTrackFinder,
    ModelErrorFinder,
    ObservationBundle,
    Track,
    VolumeFeature,
    default_features,
    top_k_per_class,
)

from tests.core.conftest import generic_features, make_obs, make_track, moving_track, scene_of


@pytest.fixture(scope="module")
def fitted_fixy(training_scenes):
    # Generic ranking over human-labeled tracks: exclude the model-only
    # selector, which is meaningful only inside the missing-label apps.
    return Fixy(generic_features()).fit(training_scenes)


class TestFixyEngine:
    def test_requires_features(self):
        with pytest.raises(ValueError):
            Fixy([])

    def test_rejects_duplicate_feature_names(self):
        with pytest.raises(ValueError):
            Fixy([VolumeFeature(), VolumeFeature()])

    def test_fit_required_before_rank(self, training_scenes):
        fixy = Fixy(default_features())
        with pytest.raises(RuntimeError):
            fixy.rank(scene_of([moving_track("t", n_frames=5)]), "tracks")
        fixy.fit(training_scenes)
        assert fixy.is_fitted

    def test_fit_requires_scenes(self):
        with pytest.raises(ValueError):
            Fixy(default_features()).fit([])

    def test_manual_only_features_need_no_fit(self):
        from repro.core import CountFeature, DistanceFeature

        fixy = Fixy([DistanceFeature(), CountFeature()])
        ranked = fixy.rank(scene_of([moving_track("t", n_frames=5)]), "tracks")
        assert len(ranked) == 1

    def test_rank_accepts_single_scene_or_list(self, fitted_fixy):
        scene_a = scene_of([moving_track("a", n_frames=5)], scene_id="sa")
        scene_b = scene_of([moving_track("b", n_frames=5)], scene_id="sb")
        single = fitted_fixy.rank(scene_a, "tracks")
        both = fitted_fixy.rank([scene_a, scene_b], "tracks")
        assert len(single) == 1
        assert len(both) == 2
        assert {s.scene_id for s in both} == {"sa", "sb"}

    def test_top_k(self, fitted_fixy):
        scenes = scene_of(
            [moving_track(f"t{i}", n_frames=5, start_x=50.0 * i) for i in range(5)]
        )
        assert len(fitted_fixy.rank(scenes, "tracks", top_k=3)) == 3


class TestTopKPerClass:
    def test_limits_per_class(self, fitted_fixy):
        tracks = [
            moving_track(f"car{i}", n_frames=5, start_x=40.0 * i) for i in range(4)
        ] + [
            moving_track(
                f"truck{i}", n_frames=5, cls="truck", l=8.5, w=2.6, h=3.2,
                speed=1.5, start_x=300.0 + 40.0 * i,
            )
            for i in range(4)
        ]
        ranked = fitted_fixy.rank(scene_of(tracks), "tracks")
        limited = top_k_per_class(ranked, k=2)
        classes = [s.item.majority_class() for s in limited]
        assert classes.count("car") == 2
        assert classes.count("truck") == 2
        # Order preserved.
        scores = [s.score for s in limited]
        by_class = {}
        for s in limited:
            by_class.setdefault(s.item.majority_class(), []).append(s.score)
        for vals in by_class.values():
            assert vals == sorted(vals, reverse=True)


def mixed_scene():
    """A scene with: a human-labeled track (model+human bundles), a clean
    model-only track (missed label), and a junk model-only track."""
    labeled = {}
    for f in range(8):
        x = 2.0 * 0.2 * f
        labeled[f] = [
            make_obs(f, x, source="human"),
            make_obs(f, x + 0.05, source="model", conf=0.9),
        ]
    missed = {}
    for f in range(8):
        missed[f] = [make_obs(f, 30.0 + 2.0 * 0.2 * f, y=5.0, source="model", conf=0.9)]
    junk = {}
    for f in range(0, 8, 2):
        junk[f] = [
            make_obs(f, 60.0 + 5.0 * f, y=-5.0, source="model",
                     l=1.0 + f, w=3.0, h=0.4, conf=0.5)
        ]
    tracks = [
        make_track("labeled", labeled),
        make_track("missed", missed),
        make_track("junk", junk),
    ]
    return scene_of(tracks, scene_id="mixed")


class TestMissingTrackFinder:
    def test_only_model_only_tracks_ranked(self, training_scenes):
        finder = MissingTrackFinder().fit(training_scenes)
        ranked = finder.rank(mixed_scene())
        ids = [s.track_id for s in ranked]
        assert "labeled" not in ids
        assert set(ids) <= {"missed", "junk"}

    def test_consistent_track_ranks_first(self, training_scenes):
        finder = MissingTrackFinder().fit(training_scenes)
        ranked = finder.rank(mixed_scene())
        assert ranked[0].track_id == "missed"

    def test_top_k_respected(self, training_scenes):
        finder = MissingTrackFinder().fit(training_scenes)
        assert len(finder.rank(mixed_scene(), top_k=1)) == 1


class TestMissingObservationFinder:
    def test_finds_model_bundle_in_human_track(self, training_scenes):
        # A human-labeled track where one frame only has a model box.
        frames = {}
        for f in range(8):
            x = 2.0 * 0.2 * f
            members = [make_obs(f, x + 0.05, source="model", conf=0.9)]
            if f != 4:
                members.append(make_obs(f, x, source="human"))
            frames[f] = members
        track = make_track("partial", frames)
        scene = scene_of([track], scene_id="partial-scene")
        finder = MissingObservationFinder().fit(training_scenes)
        ranked = finder.rank(scene)
        assert len(ranked) == 1
        assert ranked[0].item.frame == 4

    def test_model_only_track_excluded(self, training_scenes):
        finder = MissingObservationFinder().fit(training_scenes)
        ranked = finder.rank(mixed_scene())
        # No model-only bundle lives inside a human-containing track here.
        assert all(s.track_id not in ("missed", "junk") for s in ranked)


class TestModelErrorFinder:
    def test_junk_ranks_above_clean(self, training_scenes):
        finder = ModelErrorFinder().fit(training_scenes)
        scene = mixed_scene()
        ranked = finder.rank(scene)
        ids = [s.track_id for s in ranked]
        assert ids.index("junk") < ids.index("missed")

    def test_exclude_predicate(self, training_scenes):
        finder = ModelErrorFinder().fit(training_scenes)
        ranked = finder.rank(
            mixed_scene(), exclude=lambda t: t.track_id == "junk"
        )
        assert all(s.track_id != "junk" for s in ranked)

    def test_human_only_tracks_never_ranked(self, training_scenes):
        human = moving_track("humans", n_frames=6, source="human")
        scene = scene_of([human])
        finder = ModelErrorFinder().fit(training_scenes)
        assert finder.rank(scene) == []


class TestFixyRankDispatch:
    """Fixy.rank is the one imperative ranking surface."""

    def test_rank_typo_is_typed_before_compiling(self, fitted_fixy):
        from repro.core import UnknownRankKindError

        with pytest.raises(UnknownRankKindError, match="unknown rank kind"):
            fitted_fixy.rank(scene_of([moving_track("t", n_frames=5)]), "galaxy")

    def test_rank_kind_singular_accepted(self, fitted_fixy):
        scene = scene_of([moving_track("t", n_frames=5)])
        assert fitted_fixy.rank(scene, "track") == fitted_fixy.rank(scene, "tracks")
