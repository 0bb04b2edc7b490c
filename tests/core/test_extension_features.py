"""Tests for the extension features (aspect ratio, heading alignment)."""

import math

import pytest

from repro.core import (
    AspectRatioFeature,
    FeatureContext,
    HeadingAlignmentFeature,
)
from repro.core.model import Observation, ObservationBundle
from repro.geometry import Box3D

CTX = FeatureContext(dt=0.2)


def obs(frame=0, x=0.0, y=0.0, yaw=0.0, l=4.5, w=1.9):
    return Observation(
        frame=frame,
        box=Box3D(x=x, y=y, z=0.85, length=l, width=w, height=1.7, yaw=yaw),
        object_class="car",
        source="model",
        confidence=0.9,
    )


def bundle(o):
    return ObservationBundle(frame=o.frame, observations=[o])


class TestAspectRatio:
    def test_value(self):
        assert AspectRatioFeature().compute(obs(l=4.0, w=2.0), CTX) == pytest.approx(2.0)

    def test_class_conditional(self):
        assert AspectRatioFeature().class_conditional

    def test_group_key(self):
        feature = AspectRatioFeature()
        assert feature.group_key(obs(), CTX) == "car"


class TestHeadingAlignment:
    def test_forward_motion_aligned(self):
        # Moving +x with yaw 0: perfectly aligned.
        t = (bundle(obs(frame=0, x=0.0, yaw=0.0)), bundle(obs(frame=1, x=2.0, yaw=0.0)))
        assert HeadingAlignmentFeature().compute(t, CTX) == pytest.approx(0.0)

    def test_sideways_motion_misaligned(self):
        # Moving +y with yaw 0: 90 degrees off.
        t = (bundle(obs(frame=0, y=0.0, yaw=0.0)), bundle(obs(frame=1, y=2.0, yaw=0.0)))
        assert HeadingAlignmentFeature().compute(t, CTX) == pytest.approx(math.pi / 2)

    def test_reverse_motion_is_pi(self):
        t = (bundle(obs(frame=0, x=2.0, yaw=0.0)), bundle(obs(frame=1, x=0.0, yaw=0.0)))
        assert HeadingAlignmentFeature().compute(t, CTX) == pytest.approx(math.pi)

    def test_slow_motion_not_applicable(self):
        t = (bundle(obs(frame=0, x=0.0)), bundle(obs(frame=1, x=0.05)))
        assert HeadingAlignmentFeature(min_speed_mps=1.0).compute(t, CTX) is None

    def test_zero_gap_none(self):
        b = bundle(obs(frame=0))
        assert HeadingAlignmentFeature().compute((b, b), CTX) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            HeadingAlignmentFeature(min_speed_mps=0.0)

    def test_distinguishes_ghost_drift(self, training_scenes):
        """A ghost drifting sideways scores lower than an aligned car."""
        from repro.core import Fixy, CountFeature, VelocityFeature, VolumeFeature
        from tests.core.conftest import make_obs, make_track, scene_of

        features = [VolumeFeature(), VelocityFeature(), CountFeature(),
                    HeadingAlignmentFeature()]
        fixy = Fixy(features).fit(training_scenes)

        aligned = make_track(
            "aligned",
            {f: [make_obs(f, x=2.0 * 0.2 * f, source="human")] for f in range(6)},
        )
        # Sideways drifter: moves +y while heading +x.
        sideways = make_track(
            "sideways",
            {f: [Observation(
                frame=f,
                box=Box3D(x=30.0, y=2.0 * 0.2 * f, z=0.85,
                          length=4.5, width=1.9, height=1.7, yaw=0.0),
                object_class="car", source="human",
            )] for f in range(6)},
        )
        ranked = fixy.rank(scene_of([aligned, sideways]), "tracks")
        assert [s.track_id for s in ranked] == ["aligned", "sideways"]


class TestVolumeAspect:
    """The d=2 joint (volume, aspect) feature — KDE product kernel at d>1."""

    def feature(self):
        from repro.core import VolumeAspectFeature

        return VolumeAspectFeature()

    def test_value_is_2d(self):
        value = self.feature().compute(obs(l=4.0, w=2.0), CTX)
        assert value == pytest.approx((4.0 * 2.0 * 1.7, 2.0))

    def test_columnar_matches_scalar(self):
        import numpy as np
        from repro.core import ObservationTable
        from tests.core.conftest import moving_track, scene_of

        scene = scene_of(
            [moving_track("a", n_frames=4, jitter=0.05, seed=3),
             moving_track("b", n_frames=3, cls="truck", l=8.5, w=2.6, h=3.2,
                          start_x=40.0)],
        )
        feature = self.feature()
        table = ObservationTable(scene)
        columnar = feature.columnar_values(table, CTX)
        assert columnar.shape == (7, 2)
        scalar = np.asarray(
            [feature.compute(o, CTX) for o in scene.observations]
        )
        np.testing.assert_allclose(columnar, scalar, rtol=0, atol=0)

    def test_fits_2d_kde_per_class(self, training_scenes):
        from repro.core import FeatureDistributionLearner

        learned = FeatureDistributionLearner([self.feature()]).fit(training_scenes)
        groups = learned.distributions["volume_aspect"]
        assert {"car", "truck"} <= set(groups)
        assert groups["car"].distribution.dim == 2

    def test_batch_equals_scalar_likelihood(self, training_scenes):
        import numpy as np
        from repro.core import FeatureContext, FeatureDistributionLearner

        feature = self.feature()
        learned = FeatureDistributionLearner([feature]).fit(training_scenes)
        scene = training_scenes[0]
        ctx = FeatureContext.from_scene(scene)
        observations = scene.observations[:40]
        values = np.asarray([feature.compute(o, ctx) for o in observations])
        groups = [feature.group_key(o, ctx) for o in observations]
        batch = learned.likelihood_batch(feature, values, groups)
        for row, o in enumerate(observations):
            assert batch[row] == pytest.approx(
                learned.likelihood(feature, o, ctx), abs=1e-12
            )

    def test_compiles_through_both_pipelines(self, training_scenes):
        from repro.core import (
            FeatureDistributionLearner, Scorer, compile_scene,
        )
        from tests.core.conftest import moving_track, scene_of

        feature = self.feature()
        learned = FeatureDistributionLearner([feature]).fit(training_scenes)
        scene = scene_of([moving_track("t", n_frames=5, jitter=0.04, seed=9)])
        vec = compile_scene(scene, [feature], learned=learned)
        ref = compile_scene(scene, [feature], learned=learned, vectorized=False)
        track = scene.tracks[0]
        assert Scorer(vec).score_track(track) == pytest.approx(
            Scorer(ref).score_track(track), abs=1e-9
        )

    def test_atypical_joint_shape_ranks_last(self, training_scenes):
        """A car-volume box with a truck-like footprint ranks below
        ordinary cars even though each marginal is individually common."""
        from repro.core import CountFeature, Fixy
        from repro.geometry import Box3D
        from tests.core.conftest import make_track, scene_of

        fixy = Fixy([self.feature(), CountFeature()]).fit(training_scenes)
        normal = make_track(
            "normal", {f: [obs(frame=f, x=2.0 * f)] for f in range(4)}
        )
        # Same volume as a car (~14.5 m^3) but stretched: 9.7m x 1.0m.
        stretched = make_track(
            "stretched",
            {f: [Observation(
                frame=f,
                box=Box3D(x=30.0 + 2.0 * f, y=0.0, z=0.85,
                          length=9.7, width=1.0, height=1.5, yaw=0.0),
                object_class="car", source="human",
            )] for f in range(4)},
        )
        ranked = fixy.rank(scene_of([normal, stretched]), "tracks")
        assert [s.track_id for s in ranked] == ["normal", "stretched"]
