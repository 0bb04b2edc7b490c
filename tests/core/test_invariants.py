"""Property-based tests of core scoring/compilation invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Scorer, Track
from repro.core.compile import CompiledScene, PotentialFactor
from repro.core.model import Observation, ObservationBundle, Scene
from repro.factorgraph import FactorGraph
from repro.geometry import Box3D


# ---------------------------------------------------------------------------
# Build arbitrary compiled scenes directly from drawn potentials, so the
# invariants are tested independent of any feature implementation.
# ---------------------------------------------------------------------------
def _make_obs(frame):
    return Observation(
        frame=frame,
        box=Box3D(x=float(frame), y=0, z=0.85, length=4.5, width=1.9, height=1.7),
        object_class="car",
        source="model",
        confidence=0.9,
    )


def build_compiled(track_potentials: list[list[float]]):
    """One track per inner list; one unary factor per potential, attached
    round-robin to the track's observations, plus one track-wide factor."""
    graph = FactorGraph()
    factors = {}
    tracks = []
    for t_idx, potentials in enumerate(track_potentials):
        n_obs = max(1, len(potentials) // 2)
        observations = [_make_obs(f) for f in range(n_obs)]
        bundles = [
            ObservationBundle(frame=o.frame, observations=[o]) for o in observations
        ]
        track = Track(track_id=f"t{t_idx}", bundles=bundles)
        tracks.append(track)
        for obs in observations:
            graph.add_variable(obs.obs_id, payload=obs)
        for p_idx, potential in enumerate(potentials):
            target = observations[p_idx % n_obs]
            name = f"f{t_idx}-{p_idx}"
            factor = PotentialFactor(potential, f"feat{p_idx}")
            graph.add_factor(name, [target.obs_id], payload=factor)
            factors[name] = factor
    scene = Scene(scene_id="prop", dt=0.2, tracks=tracks)
    compiled = CompiledScene(
        scene=scene, context=None, graph=graph, factors=factors,
        tracks={t.track_id: t for t in tracks},
    )
    return compiled, tracks


potentials_list = st.lists(
    st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1, max_size=8),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(potentials_list)
def test_score_is_mean_log_potential(track_potentials):
    compiled, tracks = build_compiled(track_potentials)
    scorer = Scorer(compiled)
    for track, potentials in zip(tracks, track_potentials):
        expected = float(np.mean([math.log(p) for p in potentials]))
        assert scorer.score_track(track) == pytest.approx(expected, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(potentials_list)
def test_scores_bounded_by_extremes(track_potentials):
    """The normalized score always lies between ln(min) and ln(max)."""
    compiled, tracks = build_compiled(track_potentials)
    scorer = Scorer(compiled)
    for track, potentials in zip(tracks, track_potentials):
        score = scorer.score_track(track)
        assert math.log(min(potentials)) - 1e-9 <= score
        assert score <= math.log(max(potentials)) + 1e-9


@settings(max_examples=60, deadline=None)
@given(potentials_list)
def test_ranking_sorted_descending(track_potentials):
    compiled, _ = build_compiled(track_potentials)
    ranked = Scorer(compiled).rank("tracks")
    scores = [s.score for s in ranked]
    assert scores == sorted(scores, reverse=True)
    assert len(ranked) == len(track_potentials)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8),
    st.floats(min_value=0.1, max_value=0.9),
)
def test_adding_weaker_factor_lowers_score(potentials, weak):
    """Appending a factor weaker than the current mean lowers the score
    (and vice versa) — the normalization behaves like an average."""
    compiled_a, tracks_a = build_compiled([potentials])
    base = Scorer(compiled_a).score_track(tracks_a[0])

    compiled_b, tracks_b = build_compiled([potentials + [weak]])
    extended = Scorer(compiled_b).score_track(tracks_b[0])

    if math.log(weak) < base:
        assert extended < base + 1e-12
    else:
        assert extended >= base - 1e-12


@settings(max_examples=40, deadline=None)
@given(potentials_list)
def test_compiled_graph_bipartite_consistency(track_potentials):
    compiled, _ = build_compiled(track_potentials)
    compiled.graph.validate()
    total_potentials = sum(len(p) for p in track_potentials)
    assert compiled.graph.n_factors == total_potentials


class TestZeroPropagation:
    def test_any_zero_potential_excludes_component(self):
        compiled, tracks = build_compiled([[0.5, 0.9]])
        # Overwrite one factor with an exact zero (AOF semantics).
        name = next(iter(compiled.factors))
        compiled.factors[name] = PotentialFactor(0.0, "zeroed")
        compiled.graph.factor(name).payload.value = 0.0  # keep graph in sync
        scorer = Scorer(compiled)
        assert scorer.score_track(tracks[0]) == -math.inf
        assert scorer.rank("tracks") == []
