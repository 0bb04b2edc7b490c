"""Tests for the time-series adapter (§10 future-work extension)."""

import numpy as np
import pytest

from repro.core import Fixy
from repro.core.model import SOURCE_HUMAN, SOURCE_MODEL
from repro.timeseries import (
    SeriesEvent,
    annotate_recording,
    build_event_scene,
    events_to_observations,
    generate_recording,
    timeseries_features,
)


@pytest.fixture(scope="module")
def recording():
    return generate_recording("rec-0", seed=7)


@pytest.fixture(scope="module")
def labels(recording):
    return annotate_recording(recording, seed=8)


class TestSeriesEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesEvent(5.0, 5.0, 1.0, "spike")
        with pytest.raises(ValueError):
            SeriesEvent(0.0, 1.0, 0.0, "spike")

    def test_duration(self):
        assert SeriesEvent(1.0, 3.5, 1.0, "spike").duration_s == pytest.approx(2.5)


class TestGenerateRecording:
    def test_deterministic(self):
        a = generate_recording("r", seed=1)
        b = generate_recording("r", seed=1)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.events == b.events

    def test_events_within_duration(self, recording):
        assert recording.events
        for event in recording.events:
            assert 0.0 <= event.start_s < recording.duration_s
            assert event.end_s <= recording.duration_s + 10.0

    def test_both_classes_appear(self):
        classes = set()
        for seed in range(5):
            rec = generate_recording(f"r{seed}", seed=seed)
            classes |= {e.event_class for e in rec.events}
        assert classes == {"spike", "surge"}

    def test_events_visible_in_signal(self, recording):
        """The signal should actually rise where events were stamped."""
        rate = recording.sample_rate_hz
        for event in recording.events[:5]:
            i0, i1 = int(event.start_s * rate), int(event.end_s * rate)
            segment = recording.values[i0:i1]
            if len(segment) < 4:
                continue
            assert segment.max() > 0.3 * event.amplitude


class TestAnnotateRecording:
    def test_misses_recorded(self, labels):
        total = len(labels.recording.events)
        labeled_events = {
            o.metadata["gt_start_s"] for o in labels.human_observations
        }
        assert len(labels.human_missed) + len(labeled_events) == total

    def test_sources_tagged(self, labels):
        assert all(o.source == SOURCE_HUMAN for o in labels.human_observations)
        assert all(o.source == SOURCE_MODEL for o in labels.model_observations)

    def test_ghosts_have_model_observations(self, labels):
        ghost_obs = [
            o
            for o in labels.model_observations
            if o.metadata["gt_start_s"] is None
        ]
        assert len(labels.ghost_events) == 0 or ghost_obs


class TestAdapter:
    def test_single_window_event_one_observation(self, recording):
        event = SeriesEvent(0.1, 0.9, 2.0, "spike")
        obs = events_to_observations([event], SOURCE_HUMAN, recording)
        assert len(obs) == 1
        assert obs[0].frame == 0
        assert obs[0].box.length == pytest.approx(0.8)

    def test_long_event_spans_windows(self, recording):
        event = SeriesEvent(1.0, 7.0, 2.0, "surge")  # windows 0..3 at 2 s
        obs = events_to_observations([event], SOURCE_HUMAN, recording)
        assert [o.frame for o in obs] == [0, 1, 2, 3]
        assert sum(o.box.length for o in obs) == pytest.approx(6.0)

    def test_amplitude_in_metadata_and_height(self, recording):
        event = SeriesEvent(0.0, 1.0, 3.0, "spike")
        obs = events_to_observations([event], SOURCE_MODEL, recording, confidence=0.9)
        assert obs[0].metadata["amplitude"] == 3.0
        assert obs[0].box.height == pytest.approx(4.0)
        assert obs[0].confidence == 0.9

    def test_scene_reassembles_long_events_into_tracks(self, labels):
        scene = build_event_scene(labels)
        # Every *isolated* multi-window human event should be one track.
        # Temporally-overlapping events share the 1-D time axis and are
        # ambiguous by construction (see the module docstring).
        def overlaps_another(event):
            return any(
                other is not event
                and other.start_s < event.end_s
                and event.start_s < other.end_s
                for other in labels.recording.events
            )

        long_events = [
            e for e in labels.recording.events
            if e.duration_s > 4.0
            and e not in labels.human_missed
            and not overlaps_another(e)
        ]
        if not long_events:
            pytest.skip("no long labeled events in this seed")
        for event in long_events:
            tracks = {
                t.track_id
                for t in scene.tracks
                for o in t.observations
                if o.metadata.get("gt_start_s") == event.start_s
                and o.is_human
            }
            assert len(tracks) == 1


class TestEndToEnd:
    def test_fixy_finds_missed_events(self):
        """The §10 conjecture, realized: rank model-only event tracks and
        check that annotator-missed events surface at the top."""
        train_scenes = []
        for seed in range(6):
            rec = generate_recording(f"train-{seed}", seed=100 + seed)
            lbl = annotate_recording(rec, seed=200 + seed, human_miss_rate=0.0,
                                     ghost_rate_per_minute=0.0)
            train_scenes.append(build_event_scene(lbl))

        fixy = Fixy(timeseries_features(), min_samples=5).fit(train_scenes)

        hits = total = 0
        for seed in range(4):
            rec = generate_recording(f"val-{seed}", seed=300 + seed)
            lbl = annotate_recording(rec, seed=400 + seed, human_miss_rate=0.3)
            if not lbl.human_missed:
                continue
            scene = build_event_scene(lbl)
            ranked = fixy.rank(
                scene,
                "tracks",
                filt=lambda t: t.has_model and not t.has_human,
                top_k=5,
            )
            missed_starts = {e.start_s for e in lbl.human_missed}
            for scored in ranked:
                total += 1
                starts = {
                    o.metadata.get("gt_start_s")
                    for o in scored.item.observations
                }
                if starts & missed_starts:
                    hits += 1
        assert total > 0
        assert hits / total > 0.5

    def test_ghosts_rank_below_real_missed_events(self):
        train_scenes = []
        for seed in range(6):
            rec = generate_recording(f"t2-{seed}", seed=500 + seed)
            lbl = annotate_recording(rec, seed=600 + seed, human_miss_rate=0.0,
                                     ghost_rate_per_minute=0.0)
            train_scenes.append(build_event_scene(lbl))
        fixy = Fixy(timeseries_features(), min_samples=5).fit(train_scenes)

        rec = generate_recording("v2", seed=700)
        lbl = annotate_recording(rec, seed=701, human_miss_rate=0.4,
                                 ghost_rate_per_minute=3.0)
        scene = build_event_scene(lbl)
        ranked = fixy.rank(
            scene, "tracks", filt=lambda t: t.has_model and not t.has_human
        )
        if not ranked:
            pytest.skip("no model-only tracks for this seed")
        missed_starts = {e.start_s for e in lbl.human_missed}
        ghost_starts = {g.start_s for g in lbl.ghost_events}

        def kind(scored):
            starts = {o.metadata.get("gt_start_s") for o in scored.item.observations}
            raw = {o.metadata.get("event_start_s") for o in scored.item.observations}
            if starts & missed_starts:
                return "missed"
            if raw & ghost_starts:
                return "ghost"
            return "other"

        kinds = [kind(s) for s in ranked]
        if "missed" in kinds and "ghost" in kinds:
            mean_rank = lambda k: np.mean([i for i, x in enumerate(kinds) if x == k])
            assert mean_rank("missed") < mean_rank("ghost")
