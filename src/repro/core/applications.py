"""The three applications of §7, packaged as ready-to-run pipelines.

1. :class:`MissingTrackFinder` — tracks humans missed entirely. The AOF
   zeroes any track containing a human proposal; remaining (model-only)
   tracks are ranked by plausibility — "consistent predictions from the
   model are likely to be correct".
2. :class:`MissingObservationFinder` — frames humans skipped inside
   otherwise-labeled tracks. The AOF zeroes bundles containing a human
   proposal and tracks with no human proposal at all; remaining bundles
   are ranked by plausibility.
3. :class:`ModelErrorFinder` — erroneous ML predictions with no human
   labels assumed. The AOF *inverts* each learned feature's likelihood,
   so implausible tracks rank first.

Each finder owns a :class:`~repro.core.engine.Fixy` instance configured
with the matching Table 2 feature subset and AOFs, exposing ``fit`` /
``rank``.
"""

from __future__ import annotations

from typing import Callable

from repro.core.aof import AOF, InvertAOF, ZeroIfAOF
from repro.core.engine import Fixy
from repro.core.features import Feature
from repro.core.library import default_features, model_error_features
from repro.core.model import ObservationBundle, Scene, Track
from repro.core.scoring import ScoredItem

__all__ = [
    "MissingTrackFinder",
    "MissingObservationFinder",
    "ModelErrorFinder",
    "top_k_per_class",
]


def top_k_per_class(
    ranked: list[ScoredItem], k: int, class_of: Callable[[ScoredItem], str] | None = None
) -> list[ScoredItem]:
    """Keep the top ``k`` items of each object class, preserving order.

    The recall experiment of §8.2 audits "the top 10 ranked errors
    per-class"; this is that selection.
    """
    get_class = class_of or _default_class_of
    counts: dict[str, int] = {}
    out = []
    for item in ranked:
        cls = get_class(item)
        if counts.get(cls, 0) < k:
            counts[cls] = counts.get(cls, 0) + 1
            out.append(item)
    return out


def _default_class_of(scored: ScoredItem) -> str:
    item = scored.item
    if isinstance(item, Track):
        return item.majority_class()
    if isinstance(item, ObservationBundle):
        return item.representative().object_class
    return item.object_class


class MissingTrackFinder:
    """Find tracks entirely missed by human labelers (§7, §8.2).

    Extra keyword arguments (``vectorized``, ``fast_density``) pass
    through to :class:`~repro.core.engine.Fixy`.
    """

    def __init__(
        self,
        features: list[Feature] | None = None,
        min_samples: int = 8,
        **fixy_options,
    ):
        feats = features if features is not None else default_features()
        aofs: dict[str, AOF] = {}
        # "The AOF zeros out any track that contains any human proposals."
        # Attached to every track-level feature so labeled tracks score -inf;
        # the engine-level filter below also drops them outright (equivalent
        # and cheaper).
        for feature in feats:
            if feature.kind == "track":
                aofs[feature.name] = ZeroIfAOF(
                    lambda track: track.has_human, label="track_has_human"
                )
        self.fixy = Fixy(feats, aofs=aofs, min_samples=min_samples, **fixy_options)

    def fit(self, historical_scenes: list[Scene]) -> "MissingTrackFinder":
        self.fixy.fit(historical_scenes)
        return self

    def rank(
        self, scenes: Scene | list[Scene], top_k: int | None = None
    ) -> list[ScoredItem]:
        """Model-only tracks ranked most-plausible first."""
        return self.fixy.rank(
            scenes,
            "tracks",
            filt=lambda track: not track.has_human and track.has_model,
            top_k=top_k,
        )


class MissingObservationFinder:
    """Find missing labels within human-labeled tracks (§7, §8.3).

    Extra keyword arguments pass through to
    :class:`~repro.core.engine.Fixy`.
    """

    def __init__(
        self,
        features: list[Feature] | None = None,
        min_samples: int = 8,
        **fixy_options,
    ):
        feats = features if features is not None else default_features()
        self.fixy = Fixy(feats, min_samples=min_samples, **fixy_options)

    def fit(self, historical_scenes: list[Scene]) -> "MissingObservationFinder":
        self.fixy.fit(historical_scenes)
        return self

    def rank(
        self, scenes: Scene | list[Scene], top_k: int | None = None
    ) -> list[ScoredItem]:
        """Model-only bundles inside human-labeled tracks, best first.

        Implements the §8.3 AOF: "We set the probability of an observation
        in a bundle with a human proposal to 0. We set the probability of
        any track without a human proposal to 0."
        """

        def keep(bundle: ObservationBundle, track: Track) -> bool:
            return not bundle.has_human and bundle.has_model and track.has_human

        return self.fixy.rank(scenes, "bundles", filt=keep, top_k=top_k)


class ModelErrorFinder:
    """Find erroneous ML model predictions (§7, §8.4)."""

    def __init__(
        self,
        features: list[Feature] | None = None,
        min_samples: int = 8,
        **fixy_options,
    ):
        feats = features if features is not None else model_error_features()
        # "The AOF inverts the probability of each feature, with the goal
        # of inverting the ranking of the tracks that are likely to be
        # correct and the tracks that are likely to be incorrect."
        aofs: dict[str, AOF] = {
            f.name: InvertAOF() for f in feats if f.learnable
        }
        self.fixy = Fixy(feats, aofs=aofs, min_samples=min_samples, **fixy_options)

    def fit(self, historical_scenes: list[Scene]) -> "ModelErrorFinder":
        self.fixy.fit(historical_scenes)
        return self

    def rank(
        self,
        scenes: Scene | list[Scene],
        top_k: int | None = None,
        exclude: Callable[[Track], bool] | None = None,
    ) -> list[ScoredItem]:
        """Model tracks ranked most-suspicious first.

        Args:
            exclude: Optional predicate dropping tracks before ranking —
                §8.4 excludes errors already caught by the ad-hoc
                assertions to measure *novel* errors.
        """

        def keep(track: Track) -> bool:
            if not track.has_model:
                return False
            if exclude is not None and exclude(track):
                return False
            return True

        return self.fixy.rank(scenes, "tracks", filt=keep, top_k=top_k)
