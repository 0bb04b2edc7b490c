"""Array-native ranking ≡ the per-item reference, bit for bit.

``Scorer.rank`` scores a whole kind in one NumPy pass and builds
``ScoredItem`` objects only for the rows it returns. The reference
here scores every component on its own through
``Scorer._score_and_count``, filters in scene order and stable-sorts
best first. The two must agree on the raw float64 bytes of every
score, every factor count and track id, and the identity of every
ranked object, for every kind, filter and ``top_k``.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import AuditSpec, FilterSpec
from repro.core import (
    FeatureDistributionLearner,
    ObservationBundle,
    ScoredItem,
    Scorer,
    Track,
    ZeroIfAOF,
    compile_scene,
    default_features,
)
from repro.core.columnar import SplicedTable
from repro.core.features import ObservationFeature, TrackFeature
from repro.core.model import SOURCE_MODEL
from repro.serving import SceneSession

from tests.core.conftest import (
    generic_features,
    make_obs,
    make_track,
    moving_track,
    scene_of,
)
from tests.core.test_columnar import random_aofs, random_scene
from tests.serving.test_session import random_edit

KINDS = ("tracks", "bundles", "observations")
TOP_KS = (None, 1, 10, 10_000)

#: Plain (pure) callables, one per kind's filter signature.
CALLABLES = {
    "tracks": lambda track: len(track.bundles) % 2 == 0,
    "bundles": lambda bundle, track: (bundle.frame + len(track.bundles)) % 2 == 0,
    "observations": lambda obs: obs.frame % 2 == 1,
}


def filters_for(kind):
    """No filter, a compiled FilterSpec, and a plain callable."""
    return [
        None,
        FilterSpec(has_model=True).compile(kind),
        CALLABLES[kind],
    ]


def reference_rank(scorer, kind, filt=None, top_k=None):
    """Score each component alone, filter in scene order, stable-sort."""
    scene = scorer.compiled.scene
    out = []
    for track in scene.tracks:
        if kind == "tracks":
            candidates = [(track, track.observations, (track,))]
        elif kind == "bundles":
            candidates = [
                (bundle, list(bundle.observations), (bundle, track))
                for bundle in track.bundles
            ]
        else:
            candidates = [(obs, [obs], (obs,)) for obs in track.observations]
        for item, observations, args in candidates:
            if filt is not None and not filt(*args):
                continue
            score, n_factors = scorer._score_and_count(observations)
            if score is None or score == -math.inf:
                continue
            out.append(
                ScoredItem(item, score, scene.scene_id, track.track_id, n_factors)
            )
    out.sort(key=lambda s: s.score, reverse=True)
    return out[:top_k] if top_k is not None else out


def signature(ranked):
    return [
        (struct.pack("<d", s.score), s.n_factors, s.track_id, s.scene_id)
        for s in ranked
    ]


def assert_identical(got, want):
    assert signature(got) == signature(want)
    for ours, theirs in zip(got, want):
        assert ours.item is theirs.item


def assert_all_rankings_match(scorer):
    """Every kind × filter × top_k against the per-item reference."""
    for kind in KINDS:
        for filt in filters_for(kind):
            for top_k in TOP_KS:
                assert_identical(
                    scorer.rank(kind, filt, top_k),
                    reference_rank(scorer, kind, filt, top_k),
                )


@pytest.fixture(scope="module")
def learned(training_scenes):
    return FeatureDistributionLearner(default_features()).fit(training_scenes)


class CarsOnly(ObservationFeature):
    """A manual feature with no value (so no factor) for non-cars."""

    name = "cars_only"
    learnable = False

    def compute(self, obs, context):
        return 0.5 if obs.object_class == "car" else None


class TestRandomScenes:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_every_kind_filter_and_k(self, seed, learned):
        scene = random_scene(seed, scene_id=f"arr-{seed}")
        features = default_features()
        aofs = random_aofs(seed, features)
        for vectorized in (True, False):
            compiled = compile_scene(
                scene, features, learned=learned, aofs=aofs,
                vectorized=vectorized,
            )
            assert_all_rankings_match(Scorer(compiled))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_repeated_ranks_reuse_one_ranking(self, seed, learned):
        """Memoized arrays serve every later call identically."""
        scene = random_scene(seed, scene_id=f"memo-{seed}")
        scorer = Scorer(compile_scene(scene, default_features(), learned=learned))
        first = {kind: scorer.rank(kind) for kind in KINDS}
        for kind in KINDS:
            assert_identical(scorer.rank(kind), first[kind])
            assert_identical(scorer.rank(kind, top_k=2), first[kind][:2])


class TestDirectedCases:
    def test_ties_across_the_k_boundary(self, learned):
        """Identical tracks tie exactly; the cut keeps scene order."""
        tracks = [
            moving_track(
                f"twin-{i}", n_frames=4, speed=0.0, start_x=5.0,
                source=SOURCE_MODEL, conf=0.8,
            )
            for i in range(6)
        ]
        scene = scene_of(tracks, scene_id="ties")
        scorer = Scorer(compile_scene(scene, default_features(), learned=learned))
        ranked = scorer.rank("tracks")
        assert len({s.score for s in ranked}) == 1
        for top_k in range(len(tracks) + 2):
            assert_identical(
                scorer.rank("tracks", top_k=top_k),
                reference_rank(scorer, "tracks", top_k=top_k),
            )
        assert [s.track_id for s in scorer.rank("tracks", top_k=3)] == [
            "twin-0", "twin-1", "twin-2",
        ]
        for kind in ("bundles", "observations"):
            for top_k in (1, 3, 7, 13):
                assert_identical(
                    scorer.rank(kind, top_k=top_k),
                    reference_rank(scorer, kind, top_k=top_k),
                )

    def test_neginf_and_factorless_items_are_left_out(self, learned):
        human = moving_track("human", n_frames=4)
        model = moving_track(
            "model", n_frames=4, source=SOURCE_MODEL, conf=0.9, start_x=20.0
        )
        trucks = moving_track(
            "trucks", n_frames=3, cls="truck", l=8.5, w=2.6, h=3.2,
            start_x=40.0,
        )
        hollow = Track(
            track_id="hollow",
            bundles=[ObservationBundle(frame=0, observations=[])],
        )
        empty = Track(track_id="empty", bundles=[])
        scene = scene_of([human, model, trucks, hollow, empty], scene_id="gaps")
        features = generic_features() + [CarsOnly()]
        aofs = {"volume": ZeroIfAOF(lambda obs: obs.is_human, label="human")}
        for vectorized in (True, False):
            compiled = compile_scene(
                scene, features, learned=learned, aofs=aofs,
                vectorized=vectorized,
            )
            scorer = Scorer(compiled)
            assert_all_rankings_match(scorer)
            ranked = {kind: scorer.rank(kind) for kind in KINDS}
            # Human rows touch a zeroed volume potential: -inf, dropped.
            assert "human" not in {s.track_id for s in ranked["tracks"]}
            assert "human" not in {s.track_id for s in ranked["observations"]}
            # An empty bundle and a track without bundles touch no factor.
            for kind in KINDS:
                track_ids = {s.track_id for s in ranked[kind]}
                assert not track_ids & {"hollow", "empty"}
            assert "model" in {s.track_id for s in ranked["tracks"]}

        only_cars = Scorer(compile_scene(scene, [CarsOnly()]))
        assert_all_rankings_match(only_cars)
        assert "trucks" not in {
            s.track_id for s in only_cars.rank("observations")
        }
        no_features = Scorer(compile_scene(scene, []))
        for kind in KINDS:
            assert no_features.rank(kind) == []

    def test_many_factor_bundles_and_tracks(self, learned):
        """Bundles with ≥9 and tracks with >128 factors cross numpy's
        unrolled and blocked pairwise-summation thresholds."""
        crowded = make_track(
            "crowded",
            {
                f: [
                    make_obs(
                        f, 0.4 * f + 0.01 * i, y=0.3 * i,
                        source=SOURCE_MODEL, conf=0.5 + 0.01 * i,
                    )
                    for i in range(12 if f == 2 else 3)
                ]
                for f in range(30)
            },
        )
        scene = scene_of(
            [crowded, moving_track("plain", n_frames=8, start_x=30.0)],
            scene_id="crowded",
        )
        features = default_features() + [CarsOnly()]
        for vectorized in (True, False):
            scorer = Scorer(
                compile_scene(
                    scene, features, learned=learned, vectorized=vectorized
                )
            )
            assert_all_rankings_match(scorer)
            assert max(s.n_factors for s in scorer.rank("bundles")) >= 9
            assert max(s.n_factors for s in scorer.rank("tracks")) > 128

    def test_bundle_with_one_contributing_row(self):
        """Only the car row of a car+truck bundle carries a factor, so
        the per-item reference skips ``np.unique`` for that bundle."""
        mixed = make_track(
            "mixed",
            {
                0: [make_obs(0, 0.0), make_obs(0, 0.5, cls="truck")],
                1: [make_obs(1, 1.0, cls="truck")],
                2: [make_obs(2, 2.0), make_obs(2, 2.5)],
            },
        )
        scene = scene_of([mixed], scene_id="one-row")
        scorer = Scorer(compile_scene(scene, [CarsOnly()]))
        assert_all_rankings_match(scorer)
        by_frame = {s.item.frame: s for s in scorer.rank("bundles")}
        assert sorted(by_frame) == [0, 2]
        assert by_frame[0].n_factors == 1 and by_frame[2].n_factors == 2

    def test_custom_cross_track_feature(self, learned):
        """Member overrides and cross-track members void the per-track
        slice shortcut; tracks then rank off the edge-table union."""

        class Endpoints(TrackFeature):
            name = "endpoints"
            learnable = False

            def compute(self, track, context):
                return 0.3 + 0.1 * len(track.bundles)

            def observations_of(self, track):
                obs = track.observations
                return [obs[0], obs[-1]] if len(obs) > 2 else obs

        class Partnered(TrackFeature):
            name = "partnered"
            learnable = False

            def __init__(self, partner):
                self.partner = partner

            def compute(self, track, context):
                return 0.4 if track.track_id in self.partner else 0.8

            def observations_of(self, track):
                extra = self.partner.get(track.track_id)
                if extra is None:
                    return track.observations
                return track.observations + extra.observations

        a = moving_track("a", n_frames=5)
        b = moving_track("b", n_frames=3, start_x=40.0)
        c = moving_track("c", n_frames=4, start_x=80.0, speed=0.0)
        scene = scene_of([a, b, c], scene_id="cross")
        features = default_features() + [Endpoints(), Partnered({"a": b})]
        for vectorized in (True, False):
            compiled = compile_scene(
                scene, features, learned=learned, vectorized=vectorized
            )
            if vectorized:
                assert compiled.columns.member_overrides
                assert not compiled.columns.track_slices_cover_members
            assert_all_rankings_match(Scorer(compiled))

    def test_filter_runs_lazily_in_score_order(self, learned):
        scene = scene_of(
            [
                moving_track(
                    f"m{i}", n_frames=5, source=SOURCE_MODEL, conf=0.7,
                    start_x=12.0 * i, jitter=0.05, seed=i,
                )
                for i in range(3)
            ],
            scene_id="lazy",
        )
        scorer = Scorer(compile_scene(scene, default_features(), learned=learned))
        seen = []

        def keep_all(obs):
            seen.append(obs)
            return True

        best = scorer.rank("observations", keep_all, top_k=2)
        assert len(best) == 2 and seen == [s.item for s in best]
        assert scorer.rank("observations", keep_all, top_k=0) == []
        assert len(seen) == 2
        with pytest.raises(ValueError, match="top_k"):
            scorer.rank("observations", top_k=-1)


class TestSessions:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_spliced_session_after_random_edits(self, seed, learned):
        rng = np.random.default_rng(seed)
        scene = random_scene(seed, scene_id=f"edits-{seed}")
        session = SceneSession(scene, default_features(), learned=learned)
        counter = [0]
        for _ in range(int(rng.integers(1, 6))):
            session.apply(random_edit(rng, scene, counter))
        ranked = {
            (kind, i, top_k): session.rank(kind, filt, top_k)
            for kind in KINDS
            for i, filt in enumerate(filters_for(kind))
            for top_k in TOP_KS
        }
        table = session.compiled.columns.table
        if scene.tracks:
            assert isinstance(table, SplicedTable)
            # Ranking went through the per-track parts, never the merge.
            assert "_row_of" not in table.__dict__
        scorer = session.scorer
        for (kind, i, top_k), got in ranked.items():
            filt = filters_for(kind)[i]
            assert_identical(got, reference_rank(scorer, kind, filt, top_k))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_standing_bundles_and_observations_audits(self, seed, learned):
        rng = np.random.default_rng(seed + 3)
        scene = random_scene(seed, scene_id=f"standing-arr-{seed}")
        session = SceneSession(scene, default_features(), learned=learned)
        specs = [
            AuditSpec(kind="bundles", top_k=4),
            AuditSpec(kind="observations", top_k=5),
            AuditSpec(
                kind="observations", top_k=3,
                filters=FilterSpec(has_model=True),
            ),
            AuditSpec(kind="bundles"),
        ]
        audits = [
            session.subscribe(spec, audit_id=f"a{i}")
            for i, spec in enumerate(specs)
        ]
        counter = [0]
        for _ in range(int(rng.integers(2, 6))):
            session.apply(random_edit(rng, scene, counter))
            for audit in audits:
                assert audit.verify()  # ≡ session.rank, bytes and identity
                assert_identical(
                    audit.results(),
                    reference_rank(
                        session.scorer, audit.kind, audit.filt, audit.top_k
                    ),
                )
