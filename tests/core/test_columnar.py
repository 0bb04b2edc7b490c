"""Columnar compile pipeline: vectorized ≡ scalar reference (ISSUE 1).

The scalar compile path is the executable specification; these tests
verify that the columnar fast path (ObservationTable extraction, batched
densities, array scoring, lazy graph materialization) reproduces it —
structurally (factor names, scopes, potentials) and numerically (every
component score equal to 1e-9, including ``None`` factor-free and
``-inf`` zero-potential cases) — across randomized scenes, AOFs, and
feature sets.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AspectRatioFeature,
    ClassAgreementFeature,
    ComposeAOF,
    CountFeature,
    FeatureDistributionLearner,
    Fixy,
    HeadingAlignmentFeature,
    IdentityAOF,
    InvertAOF,
    Observation,
    ObservationBundle,
    ObservationTable,
    Scorer,
    Track,
    TrackLengthFeature,
    VelocityFeature,
    VolumeAspectFeature,
    VolumeFeature,
    VolumeRatioFeature,
    YawRateFeature,
    ZeroIfAOF,
    compile_scene,
    default_features,
)
from repro.core.columnar import FeatureMatrix
from repro.core.features import ObservationFeature
from repro.core.model import SOURCE_HUMAN, SOURCE_MODEL

from tests.core.conftest import make_obs, make_track, moving_track, scene_of

TOL = 1e-9

EXTENDED_FEATURES = [
    VolumeFeature(),
    AspectRatioFeature(),
    VolumeAspectFeature(),  # d=2: exercises the product-kernel batch path
    VelocityFeature(),
    CountFeature(),
    TrackLengthFeature(),
    VolumeRatioFeature(),
    YawRateFeature(),
    ClassAgreementFeature(),
    HeadingAlignmentFeature(),
]


@pytest.fixture(scope="module")
def learned(training_scenes):
    return FeatureDistributionLearner(default_features()).fit(training_scenes)


@pytest.fixture(scope="module")
def learned_extended(training_scenes):
    return FeatureDistributionLearner(EXTENDED_FEATURES).fit(training_scenes)


def random_scene(seed: int, scene_id: str = "prop"):
    """A randomized scene: mixed classes, sources, multi-obs bundles."""
    rng = np.random.default_rng(seed)
    tracks = []
    for t in range(rng.integers(1, 6)):
        n_frames = int(rng.integers(1, 10))
        cls = rng.choice(["car", "truck"])
        dims = {"car": (4.5, 1.9, 1.7), "truck": (8.5, 2.6, 3.2)}[cls]
        speed = float(rng.uniform(0.0, 25.0))
        start = float(rng.uniform(-50.0, 50.0))
        y = float(rng.uniform(-10.0, 10.0))
        source = rng.choice([SOURCE_HUMAN, SOURCE_MODEL])
        frames = {}
        for f in range(n_frames):
            x = start + speed * 0.2 * f + float(rng.normal(0, 0.05))
            obs = [
                make_obs(
                    f, x, y=y, cls=cls, source=source,
                    l=dims[0] * float(np.exp(rng.normal(0, 0.05))),
                    w=dims[1], h=dims[2],
                    conf=float(rng.uniform(0.3, 1.0)) if source == SOURCE_MODEL else None,
                    yaw=float(rng.uniform(-3.1, 3.1)),
                )
            ]
            # Sometimes a second (model) observation, sometimes with a
            # conflicting class — exercises bundles, representatives,
            # and class-agreement.
            if rng.random() < 0.4:
                obs.append(
                    make_obs(
                        f, x + float(rng.normal(0, 0.3)), y=y,
                        cls=rng.choice(["car", "truck"]),
                        source=SOURCE_MODEL,
                        l=dims[0], w=dims[1], h=dims[2],
                        conf=float(rng.uniform(0.3, 1.0)),
                    )
                )
            frames[f] = obs
        tracks.append(make_track(f"t{t}", frames))
    return scene_of(tracks, scene_id=scene_id)


def random_aofs(seed: int, features) -> dict:
    rng = np.random.default_rng(seed)
    aofs = {}
    for feature in features:
        roll = rng.random()
        if roll < 0.25:
            aofs[feature.name] = InvertAOF()
        elif roll < 0.4:
            aofs[feature.name] = ZeroIfAOF(
                lambda item: True, label="always"
            ) if rng.random() < 0.3 else ZeroIfAOF(
                _item_is_human, label="has_human"
            )
        elif roll < 0.5:
            aofs[feature.name] = ComposeAOF(InvertAOF(), IdentityAOF())
    return aofs


def _item_is_human(item):
    if isinstance(item, Observation):
        return item.is_human
    if isinstance(item, ObservationBundle):
        return item.has_human
    if isinstance(item, Track):
        return item.has_human
    if isinstance(item, tuple):
        return item[0].has_human
    return False


def assert_same_compiled(vectorized, scalar):
    """Materialized vectorized graph ≡ eagerly-built scalar graph."""
    assert list(vectorized.factors) == list(scalar.factors)
    for name, factor_s in scalar.factors.items():
        factor_v = vectorized.factors[name]
        assert factor_v.feature_name == factor_s.feature_name
        assert factor_v.value == pytest.approx(factor_s.value, abs=TOL)
        scope_v = [v.name for v in vectorized.graph.factor_scope(name)]
        scope_s = [v.name for v in scalar.graph.factor_scope(name)]
        assert scope_v == scope_s
    assert vectorized.graph.n_variables == scalar.graph.n_variables


def assert_same_scores(scene, vectorized, scalar):
    """Every component scores identically through both paths."""
    scorer_v, scorer_s = Scorer(vectorized), Scorer(scalar)
    for track in scene.tracks:
        _assert_score_equal(
            scorer_v.score_track(track), scorer_s.score_track(track)
        )
        for bundle in track.bundles:
            _assert_score_equal(
                scorer_v.score_bundle(bundle), scorer_s.score_bundle(bundle)
            )
        for obs in track.observations:
            _assert_score_equal(
                scorer_v.score_observation(obs), scorer_s.score_observation(obs)
            )
    for kind in ("tracks", "bundles", "observations"):
        ranked_v = scorer_v.rank(kind)
        ranked_s = scorer_s.rank(kind)
        assert len(ranked_v) == len(ranked_s)
        for item_v, item_s in zip(ranked_v, ranked_s):
            assert item_v.track_id == item_s.track_id
            assert item_v.n_factors == item_s.n_factors
            assert item_v.score == pytest.approx(item_s.score, abs=TOL)


def _assert_score_equal(a, b):
    if b is None or a is None:
        assert a is None and b is None
    elif math.isinf(b) or math.isinf(a):
        assert a == b
    else:
        assert a == pytest.approx(b, abs=TOL)


class TestVectorizedEqualsScalar:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_default_features_randomized(self, seed, learned):
        scene = random_scene(seed)
        features = default_features()
        aofs = random_aofs(seed + 1, features)
        vec = compile_scene(scene, features, learned=learned, aofs=aofs)
        ref = compile_scene(
            scene, features, learned=learned, aofs=aofs, vectorized=False
        )
        assert_same_scores(scene, vec, ref)
        assert_same_compiled(vec, ref)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_extended_features_randomized(self, seed, learned_extended):
        scene = random_scene(seed, scene_id="ext")
        aofs = random_aofs(seed + 2, EXTENDED_FEATURES)
        vec = compile_scene(
            scene, EXTENDED_FEATURES, learned=learned_extended, aofs=aofs
        )
        ref = compile_scene(
            scene, EXTENDED_FEATURES, learned=learned_extended, aofs=aofs,
            vectorized=False,
        )
        assert_same_scores(scene, vec, ref)
        assert_same_compiled(vec, ref)

    def test_unfitted_model_gives_factor_free_components(self):
        """learned=None: only manual features fire; learnable ones skip."""
        track = moving_track("t", n_frames=4)
        scene = scene_of([track])
        features = [VolumeFeature(), VelocityFeature()]  # all learnable
        vec = compile_scene(scene, features, learned=None)
        ref = compile_scene(scene, features, learned=None, vectorized=False)
        assert Scorer(vec).score_track(track) is None
        assert Scorer(ref).score_track(track) is None
        assert vec.factors == {} and ref.factors == {}

    def test_zero_potential_matches_neg_inf(self, learned):
        track = moving_track("t", n_frames=4)
        scene = scene_of([track])
        features = default_features()
        aofs = {"count": ZeroIfAOF(lambda item: True)}
        vec = compile_scene(scene, features, learned=learned, aofs=aofs)
        ref = compile_scene(
            scene, features, learned=learned, aofs=aofs, vectorized=False
        )
        assert Scorer(vec).score_track(track) == -math.inf
        assert Scorer(ref).score_track(track) == -math.inf
        assert Scorer(vec).rank("tracks") == []

    def test_custom_noncontiguous_feature_fallback(self, learned):
        """Custom observations_of (endpoints) rides the override path."""

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
                return [obs[0], obs[-1]]

        track_a = moving_track("a", n_frames=5)
        track_b = moving_track("b", n_frames=3, start_x=40.0)
        scene = scene_of([track_a, track_b])
        features = default_features() + [EndpointsFeature()]
        vec = compile_scene(scene, features, learned=learned)
        ref = compile_scene(scene, features, learned=learned, vectorized=False)
        assert_same_scores(scene, vec, ref)
        name = "endpoints@a#0"
        scope_v = {v.name for v in vec.graph.factor_scope(name)}
        scope_s = {v.name for v in ref.graph.factor_scope(name)}
        assert scope_v == scope_s


class TestReviewRegressions:
    def test_trailing_empty_bundle_does_not_corrupt_bundle_features(self):
        """Prefix-sum bundle reductions stay exact around empty bundles."""
        from repro.core import FeatureContext, ModelOnlyFeature

        full = ObservationBundle(
            frame=0,
            observations=[
                make_obs(0, 0.0, source=SOURCE_MODEL, conf=0.9),
                make_obs(0, 0.1, source=SOURCE_MODEL, conf=0.8),
                make_obs(0, 0.2, source=SOURCE_HUMAN),
            ],
        )
        empty = ObservationBundle(frame=1, observations=[])
        track = Track(track_id="t", bundles=[full, empty])
        scene = scene_of([track])
        table = ObservationTable(scene)
        ctx = FeatureContext.from_scene(scene)
        model_only = ModelOnlyFeature()
        columnar = model_only.columnar_values(table, ctx)
        scalar = [model_only.compute(b, ctx) for b in track.bundles]
        assert list(columnar) == scalar  # human member => not model-only

        disagree = ObservationBundle(
            frame=2,
            observations=[make_obs(2, 0.0, cls="car"), make_obs(2, 0.1, cls="truck")],
        )
        track2 = Track(
            track_id="t2",
            bundles=[disagree, ObservationBundle(frame=3, observations=[])],
        )
        table2 = ObservationTable(scene_of([track2]))
        agreement = ClassAgreementFeature()
        columnar2 = agreement.columnar_values(table2, ctx)
        assert columnar2[0] == agreement.compute(disagree, ctx) == 1.0
        assert np.isnan(columnar2[1])

    def test_cross_track_members_disable_slice_fast_path(self):
        """A factor reaching into another track voids the per-track
        slice shortcut; ranking must fall back to the edge-table union
        and match the scalar reference."""
        from repro.core.features import TrackFeature

        class CrossTrackFeature(TrackFeature):
            name = "cross"
            learnable = False

            def __init__(self):
                self.partner = {}

            def compute(self, track, context):
                return 0.5 if track.track_id == "a" else 0.9

            def observations_of(self, track):
                extra = self.partner.get(track.track_id)
                if extra is not None:
                    return track.observations + extra.observations
                return track.observations

        track_a = Track(
            track_id="a",
            bundles=[ObservationBundle(frame=0, observations=[make_obs(0, 0.0)])],
        )
        track_b = Track(
            track_id="b",
            bundles=[ObservationBundle(frame=0, observations=[make_obs(0, 5.0)])],
        )
        feature = CrossTrackFeature()
        feature.partner["a"] = track_b
        scene = scene_of([track_a, track_b])
        vec = compile_scene(scene, [feature], vectorized=True)
        ref = compile_scene(scene, [feature], vectorized=False)
        assert not vec.columns.track_slices_cover_members
        scorer_v, scorer_r = Scorer(vec), Scorer(ref)
        ranked_v = scorer_v.rank("tracks")
        ranked_r = scorer_r.rank("tracks")
        assert [(i.track_id, i.n_factors) for i in ranked_v] == [
            (i.track_id, i.n_factors) for i in ranked_r
        ]
        for item_v, item_r in zip(ranked_v, ranked_r):
            assert item_v.score == pytest.approx(item_r.score, abs=TOL)
        for track in scene.tracks:
            assert scorer_v.score_track(track) == pytest.approx(
                scorer_r.score_track(track), abs=TOL
            )

    def test_scorer_cached_across_rank_calls(self, training_scenes):
        fixy = Fixy(default_features()).fit(training_scenes)
        scene = scene_of([moving_track("t", n_frames=5)], scene_id="sc")
        assert fixy.scorer(scene) is fixy.scorer(scene)
        fixy.clear_compile_cache()
        # Fresh compile after invalidation => fresh scorer.
        first = fixy.scorer(scene)
        fixy.fit(training_scenes)
        assert fixy.scorer(scene) is not first


class TestDegenerateScenes:
    """Empty tracks/bundles/scenes compile identically on both paths."""

    @pytest.mark.parametrize(
        "tracks",
        [
            [],
            [Track(track_id="empty", bundles=[])],
            [Track(track_id="b0", bundles=[ObservationBundle(frame=0, observations=[])])],
        ],
        ids=["no-tracks", "empty-track", "empty-bundle"],
    )
    def test_no_factors_either_path(self, tracks):
        from repro.core import ModelOnlyFeature, Scene

        scene = Scene(scene_id="degenerate", dt=0.2, tracks=tracks)
        features = [
            ModelOnlyFeature(), CountFeature(), ClassAgreementFeature()
        ]
        ref = compile_scene(scene, features, vectorized=False)
        vec = compile_scene(scene, features, vectorized=True)
        assert list(ref.factors) == list(vec.factors) == []
        assert vec.graph.n_variables == ref.graph.n_variables
        for track in tracks:
            assert Scorer(vec).score_track(track) == Scorer(ref).score_track(track)


class TestObservationTable:
    def test_row_order_is_track_major(self):
        a = moving_track("a", n_frames=3)
        b = moving_track("b", n_frames=2, start_x=30.0)
        scene = scene_of([a, b])
        table = ObservationTable(scene)
        expected = [o.obs_id for o in a.observations] + [
            o.obs_id for o in b.observations
        ]
        assert [o.obs_id for o in table.observations] == expected
        assert table.track_obs_slices == [(0, 3), (3, 5)]
        assert table.n_bundles == 5
        assert table.n_transitions == 3  # 2 + 1

    def test_representative_matches_bundle_method(self):
        human = make_obs(0, 1.0, source=SOURCE_HUMAN)
        low = make_obs(0, 1.1, source=SOURCE_MODEL, conf=0.4)
        high = make_obs(0, 1.2, source=SOURCE_MODEL, conf=0.9)
        bundle = ObservationBundle(frame=0, observations=[human, low, high])
        track = Track(track_id="t", bundles=[bundle])
        table = ObservationTable(scene_of([track]))
        rep_row = int(table.bundle_rep[0])
        assert table.observations[rep_row] is bundle.representative()

    def test_duplicate_obs_ids_rejected(self):
        obs = make_obs(0, 0.0)
        clone = Observation(
            frame=1, box=obs.box, object_class=obs.object_class,
            source=obs.source, obs_id=obs.obs_id,
        )
        track = Track(
            track_id="dup",
            bundles=[
                ObservationBundle(frame=0, observations=[obs]),
                ObservationBundle(frame=1, observations=[clone]),
            ],
        )
        with pytest.raises(ValueError, match="already exists"):
            ObservationTable(scene_of([track]))

    def test_feature_matrix_extracts_each_feature_once(self, learned):
        scene = scene_of([moving_track("t", n_frames=4)])
        features = default_features()
        matrix = FeatureMatrix.build(scene, features)
        assert set(matrix.columns) == {f.name for f in features}
        volume = matrix.columns["volume"]
        assert len(volume) == 4
        assert volume.valid.all()
        np.testing.assert_allclose(
            volume.values,
            [o.box.volume for o in scene.tracks[0].observations],
        )


class TestEngineFastPath:
    def test_compile_cache_reuses_compiled_scene(self, training_scenes):
        fixy = Fixy(default_features()).fit(training_scenes)
        scene = scene_of([moving_track("t", n_frames=5)], scene_id="cache")
        first = fixy.scorer(scene)
        again = fixy.scorer(scene)
        assert again is first and again.compiled is first.compiled
        fixy.clear_compile_cache()
        assert fixy.scorer(scene) is not first

    def test_fit_clears_compile_cache(self, training_scenes):
        fixy = Fixy(default_features()).fit(training_scenes)
        scene = scene_of([moving_track("t", n_frames=5)], scene_id="cache2")
        first = fixy.scorer(scene)
        fixy.fit(training_scenes)
        assert fixy.scorer(scene) is not first

    def test_compile_is_uncached(self, training_scenes):
        fixy = Fixy(default_features()).fit(training_scenes)
        scene = scene_of([moving_track("t", n_frames=5)], scene_id="cache3")
        cached = fixy.scorer(scene).compiled
        first = fixy.compile(scene)
        assert first is not cached
        assert fixy.compile(scene) is not first

    def test_duplicate_feature_names_reported(self):
        with pytest.raises(ValueError) as excinfo:
            Fixy([VolumeFeature(), CountFeature(), VolumeFeature()])
        # Only the actual duplicate is named, not every feature.
        assert "volume" in str(excinfo.value)
        assert "count" not in str(excinfo.value)

    def test_scalar_engine_matches_vectorized(self, training_scenes):
        scene = random_scene(7, scene_id="engines")
        fast = Fixy(default_features()).fit(training_scenes)
        reference = Fixy(
            default_features(), vectorized=False, fast_density=False
        ).fit(training_scenes)
        ranked_fast = fast.rank(scene, "tracks")
        ranked_ref = reference.rank(scene, "tracks")
        assert [s.track_id for s in ranked_fast] == [
            s.track_id for s in ranked_ref
        ]
        for a, b in zip(ranked_fast, ranked_ref):
            assert a.score == pytest.approx(b.score, abs=1e-6)
