"""Shared fixtures for serving-layer tests: a fitted engine + scenes."""

import threading

import pytest

from repro.core import Fixy, default_features
from repro.serving import StreamingService

from tests.core.conftest import moving_track, scene_of


def build_training_scenes():
    """Clean human-labeled scenes (cars + trucks), KDE-fittable per class."""
    scenes = []
    for s in range(3):
        tracks = [
            moving_track(
                f"car-{s}-{i}", n_frames=12, speed=2.0 + 0.1 * i,
                start_x=float(10 * i), y=float(3 * s), jitter=0.02,
                seed=s * 10 + i,
            )
            for i in range(6)
        ]
        tracks += [
            moving_track(
                f"truck-{s}-{i}", n_frames=12, speed=1.5, cls="truck",
                start_x=float(100 + 12 * i), y=float(3 * s),
                l=8.5, w=2.6, h=3.2, jitter=0.02, seed=100 + s * 10 + i,
            )
            for i in range(3)
        ]
        scenes.append(scene_of(tracks, scene_id=f"serve-train-{s}"))
    return scenes


@pytest.fixture(scope="session")
def serving_training_scenes():
    return build_training_scenes()


@pytest.fixture(scope="session")
def fitted_fixy(serving_training_scenes):
    """A fitted engine with warmed density grids (deterministic serving)."""
    fixy = Fixy(default_features()).fit(serving_training_scenes)
    fixy.warmup_fast_eval()
    return fixy


def model_scene(scene_id="live", n_tracks=4, n_frames=6):
    """A scene of model-only tracks (rankable by the default feature set)."""
    return scene_of(
        [
            moving_track(
                f"{scene_id}-t{i}", n_frames=n_frames, source="model",
                conf=0.8, start_x=6.0 * i, jitter=0.02, seed=7 * i + 1,
            )
            for i in range(n_tracks)
        ],
        scene_id=scene_id,
    )


class GatedService(StreamingService):
    """A service whose handlers park on an event when asked to.

    A request carrying ``"gate": true`` blocks inside the executor
    thread until :meth:`release` — the deterministic way to hold the
    gateway's admission window open while a test probes shedding,
    coalescing, or drain.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered = threading.Event()
        self._release = threading.Event()

    def release(self):
        self._release.set()

    def handle(self, request):
        if isinstance(request, dict) and request.get("gate"):
            self.entered.set()
            assert self._release.wait(timeout=30), "gate never released"
        return super().handle(request)
