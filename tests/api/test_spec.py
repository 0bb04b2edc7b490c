"""AuditSpec / FilterSpec / SceneSource: validation and JSON round-trips."""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AuditSpec, FilterSpec, SceneSource, SpecValidationError
from repro.core.scoring import UnknownRankKindError

from tests.core.conftest import make_obs, make_track, moving_track


class TestFilterSpec:
    def test_empty_compiles_to_none(self):
        assert FilterSpec().compile("tracks") is None

    def test_track_filter_semantics(self):
        model_track = moving_track("m", n_frames=5, source="model")
        human_track = moving_track("h", n_frames=5, source="human")
        filt = FilterSpec(has_model=True, has_human=False).compile("tracks")
        assert filt(model_track) is True
        assert filt(human_track) is False

    def test_min_observations_and_classes(self):
        short = moving_track("s", n_frames=2, cls="car")
        long = moving_track("l", n_frames=9, cls="truck")
        filt = FilterSpec(min_observations=5).compile("tracks")
        assert not filt(short) and filt(long)
        filt = FilterSpec(classes=("truck",)).compile("tracks")
        assert not filt(short) and filt(long)

    def test_bundle_filter_sees_enclosing_track(self):
        # A model-only bundle inside a track that also has human labels
        # (the §8.3 missing-observation shape).
        track = make_track(
            "t",
            {
                0: [make_obs(0, 0.0, source="human")],
                1: [make_obs(1, 1.0, source="model")],
            },
        )
        filt = FilterSpec(
            has_model=True, has_human=False, track_has_human=True
        ).compile("bundles")
        human_bundle, model_bundle = track.bundles
        assert filt(model_bundle, track) is True
        assert filt(human_bundle, track) is False

    def test_observation_filter(self):
        filt = FilterSpec(has_model=True, classes=("car",)).compile(
            "observations"
        )
        assert filt(make_obs(0, 0.0, source="model")) is True
        assert filt(make_obs(0, 0.0, source="human")) is False
        assert filt(make_obs(0, 0.0, source="model", cls="truck")) is False

    def test_rejects_track_fields_for_observations(self):
        with pytest.raises(SpecValidationError, match="track_has_model"):
            FilterSpec(track_has_model=True).validate("observations")

    def test_rejects_min_observations_for_observations(self):
        with pytest.raises(SpecValidationError, match="min_observations"):
            FilterSpec(min_observations=2).validate("observations")

    def test_rejects_bad_values(self):
        with pytest.raises(SpecValidationError, match="must be a bool"):
            FilterSpec(has_model="yes").validate("tracks")
        with pytest.raises(SpecValidationError, match="positive"):
            FilterSpec(min_observations=0).validate("tracks")
        with pytest.raises(SpecValidationError, match="classes"):
            FilterSpec(classes=()).validate("tracks")

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecValidationError, match="unknown filter fields"):
            FilterSpec.from_dict({"has_model": True, "speed": 3})

    def test_compiled_filter_pickles(self):
        filt = FilterSpec(has_model=True).compile("tracks")
        clone = pickle.loads(pickle.dumps(filt))
        track = moving_track("m", n_frames=3, source="model")
        assert clone(track) == filt(track) is True


class TestSceneSource:
    def test_requires_exactly_one_source(self):
        with pytest.raises(SpecValidationError, match="exactly one"):
            SceneSource().validate()
        with pytest.raises(SpecValidationError, match="exactly one"):
            SceneSource(profile="internal", paths=("x.json",)).validate()

    def test_unknown_profile(self):
        with pytest.raises(SpecValidationError, match="unknown dataset profile"):
            SceneSource(profile="waymo").validate()

    def test_bad_split_and_indices(self):
        with pytest.raises(SpecValidationError, match="split"):
            SceneSource(profile="internal", split="test").validate()
        with pytest.raises(SpecValidationError, match="indices"):
            SceneSource(profile="internal", indices=(-1,)).validate()

    def test_resolves_paths(self, tmp_path):
        scene = moving_track("t", n_frames=3)
        from tests.core.conftest import scene_of

        path = tmp_path / "s.labels.json"
        scene_of([scene], scene_id="saved").save(path)
        source = SceneSource(paths=(str(path),))
        resolved = source.resolve()
        assert [s.scene_id for s in resolved] == ["saved"]

    def test_paths_source_has_no_training_split(self):
        source = SceneSource(paths=("x.json",))
        with pytest.raises(SpecValidationError, match="training split"):
            source.resolve_training_scenes()

    def test_indices_apply_to_paths_too(self, tmp_path):
        from tests.core.conftest import scene_of

        paths = []
        for i in range(3):
            path = tmp_path / f"s{i}.labels.json"
            scene_of(
                [moving_track(f"p{i}", n_frames=3)], scene_id=f"p{i}"
            ).save(path)
            paths.append(str(path))
        resolved = SceneSource(paths=tuple(paths), indices=(2, 0)).resolve()
        assert [s.scene_id for s in resolved] == ["p2", "p0"]
        with pytest.raises(SpecValidationError, match="out of range"):
            SceneSource(paths=tuple(paths), indices=(5,)).resolve()

    def test_profile_sizing_rejected_with_paths(self):
        with pytest.raises(SpecValidationError, match="n_train"):
            SceneSource(paths=("x.json",), n_train=2).validate()

    def test_resolves_profile_split_and_indices(self):
        source = SceneSource(
            profile="internal", n_train=1, n_val=2, indices=(1,)
        )
        resolved = source.resolve()
        assert len(resolved) == 1
        assert source.resolve_training_scenes()  # non-empty train split
        with pytest.raises(SpecValidationError, match="out of range"):
            SceneSource(
                profile="internal", n_train=1, n_val=2, indices=(9,)
            ).resolve()


class TestAuditSpec:
    def test_kind_canonicalized(self):
        assert AuditSpec(kind="track").kind == "tracks"

    def test_bad_kind_is_typed(self):
        with pytest.raises(UnknownRankKindError, match="unknown rank kind"):
            AuditSpec(kind="galaxies")

    def test_validate_catches_everything(self):
        with pytest.raises(SpecValidationError, match="top_k"):
            AuditSpec(top_k=0).validate()
        with pytest.raises(SpecValidationError, match="feature set"):
            AuditSpec(features="everything").validate()
        with pytest.raises(SpecValidationError, match="spec version"):
            AuditSpec(version=99).validate()
        from repro.api import UnknownBackendError

        with pytest.raises(UnknownBackendError, match="unknown backend"):
            AuditSpec(backend="quantum").validate()

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(SpecValidationError, match="unknown spec fields"):
            AuditSpec.from_dict({"kind": "tracks", "speed": 11})

    def test_from_json_rejects_garbage(self):
        with pytest.raises(SpecValidationError, match="not valid JSON"):
            AuditSpec.from_json("{nope")
        with pytest.raises(SpecValidationError, match="must be an object"):
            AuditSpec.from_json("[1, 2]")

    def test_with_backend_copy(self):
        spec = AuditSpec(top_k=3)
        remote = spec.with_backend("remote", workers=["h:1"])
        assert remote.backend == "remote"
        assert remote.backend_options == {"workers": ["h:1"]}
        assert spec.backend == "inline"  # original untouched
        assert remote.top_k == 3

    def test_hash_is_stable_and_sensitive(self):
        a = AuditSpec(kind="tracks", top_k=5)
        b = AuditSpec(kind="track", top_k=5)  # canonicalizes to the same
        c = AuditSpec(kind="tracks", top_k=6)
        assert a.spec_hash() == b.spec_hash()
        assert a.spec_hash() != c.spec_hash()

    # Property: every representable spec survives the JSON wire intact.
    @settings(max_examples=50, deadline=None)
    @given(
        kind=st.sampled_from(["tracks", "bundles", "observations"]),
        top_k=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
        has_model=st.one_of(st.none(), st.booleans()),
        has_human=st.one_of(st.none(), st.booleans()),
        min_obs=st.one_of(st.none(), st.integers(min_value=1, max_value=20)),
        classes=st.one_of(
            st.none(),
            st.lists(
                st.sampled_from(["car", "truck", "pedestrian"]),
                min_size=1,
                max_size=3,
                unique=True,
            ),
        ),
        features=st.sampled_from(["default", "model_error"]),
        backend=st.sampled_from(["inline", "session", "remote"]),
    )
    def test_spec_json_round_trip_property(
        self, kind, top_k, has_model, has_human, min_obs, classes, features, backend
    ):
        if kind == "observations":
            min_obs = None
        filters = FilterSpec(
            has_model=has_model,
            has_human=has_human,
            min_observations=min_obs,
            classes=tuple(classes) if classes else None,
        )
        spec = AuditSpec(
            kind=kind,
            top_k=top_k,
            filters=None if filters.is_empty else filters,
            features=features,
            backend=backend,
        ).validate()
        wire = spec.to_json()
        clone = AuditSpec.from_json(wire)
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()
        # The wire form is plain JSON — no objects leak through.
        assert json.loads(wire) == spec.to_dict()
