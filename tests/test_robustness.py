"""Failure-injection and adversarial-input tests across module boundaries.

Production label stores contain garbage: duplicate observations,
degenerate boxes, single-frame scenes, contradictory sources. These tests
pin down how the pipeline behaves at those edges — no crashes, documented
fallbacks.
"""

import math

import numpy as np
import pytest

from repro.association import TrackBuilder
from repro.core import (
    CountFeature,
    Fixy,
    VelocityFeature,
    VolumeFeature,
    default_features,
)
from repro.core.model import Observation, ObservationBundle, Scene, Track
from repro.geometry import Box3D, Pose2D

from tests.core.conftest import (  # noqa: F401  (training_scenes is a fixture)
    generic_features,
    make_obs,
    make_track,
    moving_track,
    scene_of,
    training_scenes,
)


def tiny_box_obs(frame=0):
    return Observation(
        frame=frame,
        box=Box3D(x=0, y=0, z=0.1, length=1e-3, width=1e-3, height=1e-3),
        object_class="car",
        source="model",
        confidence=0.5,
    )


class TestDegenerateGeometry:
    def test_tiny_boxes_score_without_crashing(self, training_scenes):
        fixy = Fixy(generic_features()).fit(training_scenes)
        track = Track(
            track_id="tiny",
            bundles=[
                ObservationBundle(frame=f, observations=[tiny_box_obs(f)])
                for f in range(4)
            ],
        )
        ranked = fixy.rank(scene_of([track]), "tracks")
        # A near-zero-volume box is wildly atypical but must still get a
        # finite (floored) score, not crash or vanish.
        assert len(ranked) == 1
        assert math.isfinite(ranked[0].score)

    def test_coincident_boxes_associate_cleanly(self):
        # Ten identical model boxes at one frame: same source, so they
        # must form ten singleton bundles, not explode combinatorially.
        observations = [make_obs(0, x=5.0, source="model") for _ in range(10)]
        scene = TrackBuilder().build_scene("dup", 0.2, observations)
        assert sum(t.n_observations for t in scene.tracks) == 10


class TestDegenerateScenes:
    def test_single_frame_scene(self, training_scenes):
        fixy = Fixy(generic_features()).fit(training_scenes)
        track = make_track("single", {0: [make_obs(0, x=1.0)]})
        ranked = fixy.rank(scene_of([track]), "tracks")
        # Count feature zeroes 1-obs tracks: nothing survives, no crash.
        assert ranked == []

    def test_empty_scene(self, training_scenes):
        fixy = Fixy(generic_features()).fit(training_scenes)
        assert fixy.rank(Scene(scene_id="empty", dt=0.2), "tracks") == []

    def test_scene_without_ego_poses_fails_only_distance(self, training_scenes):
        """Features needing ego data raise a clear error; feature sets
        without them work on ego-less scenes."""
        track = moving_track("t", n_frames=5)
        scene = scene_of([track], with_ego=False)

        without_distance = [
            f for f in generic_features() if f.name != "distance"
        ]
        fixy = Fixy(without_distance).fit(training_scenes)
        assert len(fixy.rank(scene, "tracks")) == 1

        with_distance = Fixy(generic_features()).fit(training_scenes)
        with pytest.raises(ValueError, match="ego poses"):
            with_distance.rank(scene, "tracks")


class TestContradictoryInputs:
    def test_all_sources_disagree_on_class(self, training_scenes):
        fixy = Fixy([VolumeFeature(), VelocityFeature(), CountFeature()]).fit(
            training_scenes
        )
        frames = {}
        classes = ["car", "truck", "pedestrian", "motorcycle"]
        for f in range(4):
            frames[f] = [make_obs(f, x=0.4 * f, cls=classes[f], source="model")]
        track = make_track("confused", frames)
        ranked = fixy.rank(scene_of([track]), "tracks")
        assert len(ranked) == 1  # scores, does not crash on mixed classes

    def test_duplicate_obs_ids_rejected_at_compile(self, training_scenes):
        obs = make_obs(0, x=0.0)
        clone = Observation(
            frame=1, box=obs.box, object_class=obs.object_class,
            source=obs.source, obs_id=obs.obs_id,
        )
        track = Track(
            track_id="dup-id",
            bundles=[
                ObservationBundle(frame=0, observations=[obs]),
                ObservationBundle(frame=1, observations=[clone]),
            ],
        )
        fixy = Fixy(generic_features()).fit(training_scenes)
        with pytest.raises(ValueError, match="already exists"):
            fixy.compile(scene_of([track]))


class TestNumericalExtremes:
    def test_huge_coordinates(self, training_scenes):
        fixy = Fixy([VolumeFeature(), VelocityFeature(), CountFeature()]).fit(
            training_scenes
        )
        frames = {
            f: [make_obs(f, x=1e7 + 0.4 * f, source="model")] for f in range(4)
        }
        ranked = fixy.rank(scene_of([make_track("far", frames)]), "tracks")
        assert len(ranked) == 1
        assert math.isfinite(ranked[0].score)

    def test_learning_survives_constant_feature_values(self):
        """All training values identical (zero variance) must not crash
        the KDE fit (degenerate-bandwidth fallback)."""
        track = make_track(
            "const", {f: [make_obs(f, x=0.0)] for f in range(12)}
        )
        scenes = [scene_of([track], scene_id=f"c{i}") for i in range(2)]
        fixy = Fixy([VolumeFeature(), VelocityFeature(), CountFeature()],
                    min_samples=3).fit(scenes)
        assert fixy.is_fitted
        ranked = fixy.rank(scenes[0], "tracks")
        assert len(ranked) == 1
