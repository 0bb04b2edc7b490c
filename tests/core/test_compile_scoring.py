"""Tests for scene compilation (§4.3, Figure 2) and scoring (§6)."""

import math

import pytest

from repro.core import (
    FeatureDistributionLearner,
    IdentityAOF,
    InvertAOF,
    Scorer,
    VolumeFeature,
    ZeroIfAOF,
    compile_scene,
    default_features,
)
from repro.core.compile import PotentialFactor

from tests.core.conftest import generic_features, make_obs, make_track, moving_track, scene_of


@pytest.fixture(scope="module")
def learned(training_scenes):
    return FeatureDistributionLearner(default_features()).fit(training_scenes)


def compile_simple(learned, tracks, features=None, **kwargs):
    scene = scene_of(tracks, scene_id="compiled")
    feats = features if features is not None else generic_features()
    return compile_scene(scene, feats, learned=learned, **kwargs)


class TestPotentialFactor:
    def test_fixed_value(self):
        factor = PotentialFactor(0.37, "volume")
        assert factor.evaluate() == 0.37
        assert factor.evaluate({"anything": 1}) == 0.37

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PotentialFactor(-0.1, "volume")


class TestCompileStructure:
    """The compiled graph matches Figure 2's schematic."""

    def test_variable_per_observation(self, learned):
        track = moving_track("t", n_frames=5)
        compiled = compile_simple(learned, [track])
        assert compiled.graph.n_variables == 5
        for obs in track.observations:
            assert compiled.graph.has_variable(obs.obs_id)

    def test_factor_kinds_and_counts(self, learned):
        track = moving_track("t", n_frames=5)
        compiled = compile_simple(learned, [track], features=default_features())
        by_feature = {}
        for name, factor in compiled.factors.items():
            by_feature.setdefault(factor.feature_name, []).append(name)
        # 5 volume + 5 distance factors (one per obs), 4 velocity
        # transitions, 1 count; no model_only factors on single-source
        # human bundles? model_only applies to every bundle (value 0/1).
        assert len(by_feature["volume"]) == 5
        assert len(by_feature["distance"]) == 5
        assert len(by_feature["velocity"]) == 4
        assert len(by_feature["count"]) == 1
        assert len(by_feature["model_only"]) == 5

    def test_edge_structure(self, learned):
        track = moving_track("t", n_frames=3)
        compiled = compile_simple(learned, [track], features=default_features())
        obs = track.observations
        # Per-observation factors touch exactly one variable; transition
        # factors touch the two adjacent observations; track factors all.
        for name, factor in compiled.factors.items():
            scope = [v.name for v in compiled.graph.factor_scope(name)]
            if factor.feature_name in ("volume", "distance", "model_only"):
                assert len(scope) == 1
            elif factor.feature_name == "velocity":
                assert len(scope) == 2
            elif factor.feature_name == "count":
                assert set(scope) == {o.obs_id for o in obs}

    def test_graph_is_bipartite_tree_for_chain(self, learned):
        # A single track compiles to a tree (no factor cycles): obs chain
        # with unary factors and pairwise transitions, plus one track-level
        # factor... the track factor over >2 obs creates a cycle with the
        # transitions, so only check bipartite validity here.
        track = moving_track("t", n_frames=4)
        compiled = compile_simple(learned, [track])
        compiled.graph.validate()

    def test_unfitted_learnable_feature_skipped(self):
        track = moving_track("t", n_frames=3)
        compiled = compile_simple(None, [track], features=default_features())
        names = {f.feature_name for f in compiled.factors.values()}
        # Only manual features produce factors without a learned model.
        assert names == {"distance", "model_only", "count"}


class TestScoringSemantics:
    def test_worked_example(self):
        """§6: score = (ln .37 + ln .39 + ln .21) / 3 = -1.17."""
        import types

        from repro.core import Scene, Track
        from repro.core.compile import CompiledScene
        from repro.factorgraph import FactorGraph

        track = moving_track("t", n_frames=2)
        o1, o2 = track.observations
        graph = FactorGraph()
        graph.add_variable(o1.obs_id, payload=o1)
        graph.add_variable(o2.obs_id, payload=o2)
        factors = {}
        for name, value, scope in [
            ("vol1", 0.37, [o1.obs_id]),
            ("vol2", 0.39, [o2.obs_id]),
            ("vel", 0.21, [o1.obs_id, o2.obs_id]),
        ]:
            factor = PotentialFactor(value, name)
            graph.add_factor(name, scope, payload=factor)
            factors[name] = factor
        scene = scene_of([track])
        compiled = CompiledScene(
            scene=scene,
            context=None,
            graph=graph,
            factors=factors,
            tracks={"t": track},
        )
        score = Scorer(compiled).score_track(track)
        expected = (math.log(0.37) + math.log(0.39) + math.log(0.21)) / 3
        assert score == pytest.approx(expected)
        assert score == pytest.approx(-1.17, abs=0.005)

    def test_shared_factor_counted_once(self, learned):
        track = moving_track("t", n_frames=2)
        compiled = compile_simple(learned, [track], features=default_features())
        scorer = Scorer(compiled)
        factor_names = compiled.factors_of_observations(track.observations)
        assert len(factor_names) == len(set(factor_names))
        # 2 volume + 2 distance + 2 model_only + 1 velocity + 1 count = 8.
        assert len(factor_names) == 8

    def test_typical_track_scores_higher_than_weird(self, learned):
        typical = moving_track("typ", n_frames=8, speed=2.0)
        weird = moving_track(
            "odd", n_frames=8, speed=30.0, l=1.0, w=4.0, h=0.3, start_x=200.0
        )
        compiled = compile_simple(learned, [typical, weird])
        scorer = Scorer(compiled)
        assert scorer.score_track(typical) > scorer.score_track(weird)

    def test_normalization_makes_lengths_comparable(self, learned):
        short = moving_track("short", n_frames=5, speed=2.0)
        long = moving_track("long", n_frames=40, speed=2.0, y=4.0)
        compiled = compile_simple(learned, [short, long])
        scorer = Scorer(compiled)
        s_short = scorer.score_track(short)
        s_long = scorer.score_track(long)
        # Same per-frame behaviour => similar normalized scores.
        assert abs(s_short - s_long) < 0.5

    def test_zero_potential_gives_neg_inf(self, learned):
        track = moving_track("t", n_frames=4)
        aofs = {"count": ZeroIfAOF(lambda item: True)}
        compiled = compile_simple(learned, [track], aofs=aofs)
        assert Scorer(compiled).score_track(track) == -math.inf

    def test_score_of_unknown_component_is_none(self, learned):
        track = moving_track("t", n_frames=3)
        other = moving_track("other", n_frames=3)
        compiled = compile_simple(learned, [track])
        scorer = Scorer(compiled)
        assert scorer.score_observations(other.observations) is None

    def test_bundle_score_includes_transitions(self, learned):
        track = moving_track("t", n_frames=3)
        compiled = compile_simple(learned, [track])
        scorer = Scorer(compiled)
        middle = track.bundles[1]
        factors = compiled.factors_of_observations(list(middle.observations))
        kinds = {compiled.factors[f].feature_name for f in factors}
        assert "velocity" in kinds  # transitions touching the middle obs
        assert "count" in kinds  # the track factor touches every obs


class TestRanking:
    def test_track_ranking_ordering(self, learned):
        good = moving_track("good", n_frames=8, speed=2.0)
        bad = moving_track("bad", n_frames=8, speed=25.0, l=2.0, w=3.5, h=0.5,
                           start_x=100.0)
        compiled = compile_simple(learned, [bad, good])
        ranked = Scorer(compiled).rank("tracks")
        assert [s.track_id for s in ranked] == ["good", "bad"]
        assert ranked[0].score > ranked[1].score

    def test_rank_excludes_infinite(self, learned):
        track = moving_track("t", n_frames=2)  # count feature zeroes it
        compiled = compile_simple(learned, [track])
        ranked = Scorer(compiled).rank("tracks")
        assert ranked == []

    def test_rank_filter(self, learned):
        a = moving_track("a", n_frames=5)
        b = moving_track("b", n_frames=5, start_x=100.0)
        compiled = compile_simple(learned, [a, b])
        ranked = Scorer(compiled).rank("tracks", lambda t: t.track_id == "b")
        assert [s.track_id for s in ranked] == ["b"]

    def test_invert_aof_flips_ordering(self, learned, training_scenes):
        good = moving_track("good", n_frames=8, speed=2.0)
        bad = moving_track("bad", n_frames=8, speed=25.0, l=2.0, w=3.5, h=0.5,
                           start_x=100.0)
        feats = [f for f in generic_features() if f.name != "distance"]
        scene = scene_of([good, bad])
        plain = compile_scene(scene, feats, learned=learned)
        inverted = compile_scene(
            scene, feats, learned=learned,
            aofs={f.name: InvertAOF() for f in feats if f.learnable},
        )
        plain_rank = [s.track_id for s in Scorer(plain).rank("tracks")]
        inv_rank = [s.track_id for s in Scorer(inverted).rank("tracks")]
        assert plain_rank == ["good", "bad"]
        assert inv_rank == ["bad", "good"]

    def test_bundle_and_observation_ranking(self, learned):
        track = moving_track("t", n_frames=5)
        compiled = compile_simple(learned, [track])
        scorer = Scorer(compiled)
        bundles = scorer.rank("bundles")
        observations = scorer.rank("observations")
        assert len(bundles) == 5
        assert len(observations) == 5
        assert all(b.track_id == "t" for b in bundles)
        # Sorted descending.
        assert all(
            bundles[i].score >= bundles[i + 1].score for i in range(len(bundles) - 1)
        )


class TestRankKindDispatch:
    def test_scorer_rank_accepts_singular_and_plural(self, learned):
        compiled = compile_simple(learned, [moving_track("t", n_frames=5)])
        scorer = Scorer(compiled)
        assert scorer.rank("track") == scorer.rank("tracks")
        assert scorer.rank("observations") == scorer.rank("observation")

    def test_typo_raises_typed_error_listing_kinds(self, learned):
        from repro.core import RANK_KINDS, UnknownRankKindError

        compiled = compile_simple(learned, [moving_track("t", n_frames=5)])
        with pytest.raises(UnknownRankKindError) as exc:
            Scorer(compiled).rank("galxies")
        assert exc.value.kind == "galxies"
        assert exc.value.valid == RANK_KINDS
        assert "tracks, bundles, observations" in str(exc.value)
        # Still a ValueError for pre-existing handlers.
        assert isinstance(exc.value, ValueError)

    def test_error_survives_pickling(self):
        import pickle

        from repro.core import UnknownRankKindError

        err = pickle.loads(pickle.dumps(UnknownRankKindError("galaxy")))
        assert err.kind == "galaxy" and "unknown rank kind" in str(err)

    def test_normalize_rejects_non_strings(self):
        from repro.core import UnknownRankKindError, normalize_rank_kind

        with pytest.raises(UnknownRankKindError):
            normalize_rank_kind(None)
        with pytest.raises(UnknownRankKindError):
            normalize_rank_kind(3)


class TestMergeRankings:
    def test_merges_sorts_and_truncates(self):
        from repro.core import ScoredItem, merge_rankings

        def item(track_id, score):
            return ScoredItem(
                item=None, score=score, scene_id="s",
                track_id=track_id, n_factors=1,
            )

        merged = merge_rankings(
            [[item("a", -1.0), item("b", -3.0)], [item("c", -2.0)]]
        )
        assert [s.track_id for s in merged] == ["a", "c", "b"]
        assert [
            s.track_id for s in merge_rankings([[item("a", -1.0)], [item("c", -2.0)]], top_k=1)
        ] == ["a"]

    def test_stable_for_equal_scores(self):
        from repro.core import ScoredItem, merge_rankings

        blocks = [
            [ScoredItem(None, -1.0, "s1", "x", 1)],
            [ScoredItem(None, -1.0, "s2", "y", 1)],
        ]
        assert [s.track_id for s in merge_rankings(blocks)] == ["x", "y"]


class TestScoredItemDict:
    def test_track_item_round_trip(self, learned):
        from repro.core import ScoredItem

        compiled = compile_simple(learned, [moving_track("t", n_frames=5)])
        scored = Scorer(compiled).rank("tracks")[0]
        payload = scored.to_dict()
        assert payload["kind"] == "track"
        assert payload["n_observations"] == 5
        assert payload["score"] == scored.score  # bit-exact
        clone = ScoredItem.from_dict(payload)
        assert clone.item is None
        assert clone.summary == payload
        assert clone.to_dict() == payload  # second hop is lossless
        assert clone.kind == "track"
        assert (clone.score, clone.track_id, clone.n_factors) == (
            scored.score, scored.track_id, scored.n_factors,
        )

    def test_kind_override_and_derivation(self, learned):
        compiled = compile_simple(learned, [moving_track("t", n_frames=5)])
        scorer = Scorer(compiled)
        obs = scorer.rank("observations")[0]
        assert obs.kind == "observation"
        assert obs.to_dict()["obs_id"]
        assert obs.to_dict("observations")["kind"] == "observation"
        bundle = scorer.rank("bundles")[0]
        assert bundle.to_dict()["kind"] == "bundle"
        assert "frame" in bundle.to_dict()

    def test_summary_excluded_from_equality(self, learned):
        from repro.core import ScoredItem

        a = ScoredItem(None, -1.0, "s", "t", 2)
        b = ScoredItem(None, -1.0, "s", "t", 2, summary={"kind": "track"})
        assert a == b
