"""Round-trip tests for LOA scene and learned-model persistence."""

import numpy as np
import pytest

from repro.core import (
    FeatureDistributionLearner,
    FeatureContext,
    LearnedModel,
    Scene,
    Track,
    VolumeFeature,
    default_features,
)
from repro.core.model import Observation, ObservationBundle
from repro.distributions import (
    Bernoulli,
    Categorical,
    Gaussian1D,
    GaussianKDE,
    HistogramDensity,
    serialize,
)
from repro.geometry import Box3D, Pose2D

from tests.core.conftest import moving_track, scene_of


class TestDistributionSerialization:
    @pytest.mark.parametrize(
        "dist",
        [
            GaussianKDE(np.linspace(0, 10, 50)),
            HistogramDensity(np.linspace(0, 10, 50), bins=8),
            Gaussian1D(3.0, 2.0),
            Bernoulli(0.3),
            Categorical({"car": 0.7, "truck": 0.3}),
        ],
        ids=["kde", "histogram", "gaussian", "bernoulli", "categorical"],
    )
    def test_roundtrip_preserves_density(self, dist):
        clone = serialize.from_dict(serialize.to_dict(dist))
        assert type(clone) is type(dist)
        if isinstance(dist, Categorical):
            for key in dist.probs:
                assert clone.pdf(key) == pytest.approx(dist.pdf(key))
        else:
            for x in (0.0, 1.0, 3.5, 9.0):
                assert float(np.atleast_1d(clone.pdf(x))[0]) == pytest.approx(
                    float(np.atleast_1d(dist.pdf(x))[0])
                )

    def test_json_safe(self):
        import json

        payload = serialize.to_dict(GaussianKDE([1.0, 2.0, 3.0]))
        json.dumps(payload)  # must not raise

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            serialize.from_dict({"kind": "alien"})

    def test_unregistered_type(self):
        class Weird:
            pass

        with pytest.raises(TypeError):
            serialize.to_dict(Weird())

    def test_register_codec(self):
        class Const:
            def pdf(self, x):
                return 1.0

        serialize.register_codec(
            "const-test", Const, lambda d: {}, lambda data: Const()
        )
        clone = serialize.from_dict(serialize.to_dict(Const()))
        assert isinstance(clone, Const)
        with pytest.raises(ValueError):
            serialize.register_codec("const-test", Const, lambda d: {}, lambda d: Const())


class TestLearnedModelPersistence:
    def test_save_load_roundtrip(self, training_scenes, tmp_path):
        model = FeatureDistributionLearner(default_features()).fit(training_scenes)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = LearnedModel.load(path)

        assert loaded.feature_names == model.feature_names
        volume = VolumeFeature()
        ctx = FeatureContext.from_scene(training_scenes[0])
        for obs in training_scenes[0].tracks[0].observations:
            assert loaded.likelihood(volume, obs, ctx) == pytest.approx(
                model.likelihood(volume, obs, ctx)
            )

    def test_group_structure_preserved(self, training_scenes, tmp_path):
        model = FeatureDistributionLearner([VolumeFeature()]).fit(training_scenes)
        path = tmp_path / "m.json"
        model.save(path)
        loaded = LearnedModel.load(path)
        assert set(loaded.distributions["volume"]) == set(
            model.distributions["volume"]
        )


class TestSceneSerialization:
    def make_scene(self):
        tracks = [moving_track("a", n_frames=4), moving_track("b", n_frames=3,
                                                              start_x=50.0)]
        return scene_of(tracks, scene_id="ser", n_frames=5)

    def test_roundtrip(self):
        scene = self.make_scene()
        clone = Scene.from_dict(scene.to_dict())
        assert clone.scene_id == scene.scene_id
        assert clone.dt == scene.dt
        assert len(clone) == len(scene)
        assert [o.obs_id for o in clone.observations] == [
            o.obs_id for o in scene.observations
        ]
        assert [o.box for o in clone.observations] == [
            o.box for o in scene.observations
        ]

    def test_ego_poses_restored_as_poses(self):
        scene = self.make_scene()
        clone = Scene.from_dict(scene.to_dict())
        assert all(isinstance(p, Pose2D) for p in clone.metadata["ego_poses"])
        assert clone.metadata["ego_poses"] == scene.metadata["ego_poses"]

    def test_scene_without_ego(self):
        scene = scene_of([moving_track("a", n_frames=3)], with_ego=False)
        clone = Scene.from_dict(scene.to_dict())
        assert "ego_poses" not in clone.metadata

    def test_file_roundtrip(self, tmp_path):
        scene = self.make_scene()
        path = tmp_path / "scene.json"
        scene.save(path)
        loaded = Scene.load(path)
        assert loaded.to_dict() == scene.to_dict()

    def test_scoring_identical_after_roundtrip(self, training_scenes, tmp_path):
        """A persisted scene + persisted model reproduce the same ranking."""
        from repro.core import Fixy
        from tests.core.conftest import generic_features

        fixy = Fixy(generic_features()).fit(training_scenes)
        scene = self.make_scene()
        original = [(s.track_id, s.score) for s in fixy.rank(scene, "tracks")]

        path = tmp_path / "scene.json"
        scene.save(path)
        fixy.learned.save(tmp_path / "model.json")

        fixy2 = Fixy(generic_features())
        fixy2.learned = LearnedModel.load(tmp_path / "model.json")
        reloaded = [(s.track_id, s.score) for s in fixy2.rank(Scene.load(path), "tracks")]
        assert [(t, pytest.approx(x)) for t, x in original] == reloaded


class TestGridPersistence:
    """Density grids ride along with the model (ROADMAP: skip warmup)."""

    def fitted_with_grids(self, training_scenes):
        model = FeatureDistributionLearner(default_features()).fit(training_scenes)
        built = model.enable_fast_eval(eager=True)
        assert built > 0  # the KDE-backed features must be grid-eligible
        return model

    def grid_states(self, model):
        return {
            (feature, group): lfd._fast_state
            for feature, groups in model.distributions.items()
            for group, lfd in groups.items()
        }

    def test_roundtrip_restores_ready_grids(self, training_scenes, tmp_path):
        model = self.fitted_with_grids(training_scenes)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = LearnedModel.load(path)
        # Built grids come back built. (Declined builds round-trip to the
        # un-armed state — both serve the exact path, so nothing is lost.)
        original = self.grid_states(model)
        restored = self.grid_states(loaded)
        ready = {key for key, state in original.items() if state == "ready"}
        assert ready
        assert {key for key, state in restored.items() if state == "ready"} == ready

    def test_loaded_grids_skip_warmup_build(self, training_scenes, tmp_path, monkeypatch):
        """Restored-ready grids serve without ever rebuilding — the point."""
        from repro.distributions.grid import GriddedDensity

        model = self.fitted_with_grids(training_scenes)
        model.save(tmp_path / "model.json")

        def forbidden(*args, **kwargs):
            raise AssertionError("grid rebuild attempted after load")

        monkeypatch.setattr(GriddedDensity, "try_build", staticmethod(forbidden))
        loaded = LearnedModel.load(tmp_path / "model.json")
        served = 0
        for groups in loaded.distributions.values():
            for lfd in groups.values():
                if lfd._fast_state == "ready":
                    assert lfd.enable_fast_eval(eager=True)  # no-op, no build
                    lfd.likelihood_batch(np.linspace(0.0, 10.0, 64))
                    served += 1
        assert served > 0

    def test_restored_grid_batch_densities_bit_identical(
        self, training_scenes, tmp_path
    ):
        model = self.fitted_with_grids(training_scenes)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = LearnedModel.load(path)
        for feature, groups in model.distributions.items():
            for group, lfd in groups.items():
                if lfd._fast_state != "ready":
                    continue
                grid = lfd._fast_grid
                queries = np.linspace(grid.nodes[0], grid.nodes[-1], 257)
                clone = loaded.distributions[feature][group]
                assert clone._fast_state == "ready"
                np.testing.assert_array_equal(
                    clone.likelihood_batch(queries),
                    lfd.likelihood_batch(queries),
                )

    def test_include_grids_false_drops_them(self, training_scenes):
        model = self.fitted_with_grids(training_scenes)
        lean = LearnedModel.from_dict(model.to_dict(include_grids=False))
        assert "ready" not in self.grid_states(lean).values()

    def test_grids_are_json_safe_and_compact_nodes(self, training_scenes):
        import json

        model = self.fitted_with_grids(training_scenes)
        payload = model.to_dict()
        json.dumps(payload)
        grids = [
            entry["fast_grid"]
            for groups in payload.values()
            for entry in groups.values()
            if "fast_grid" in entry
        ]
        assert grids
        # Node positions are stored as (lo, step, n), not a full array.
        assert {"lo", "step", "n"} <= set(grids[0])
