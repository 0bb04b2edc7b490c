"""The Fixy engine: the user-facing facade.

Ties together the offline phase (learning feature distributions from
existing labeled scenes) and the online phase (compiling new scenes and
ranking potential errors), per the workflow of §3:

.. code-block:: python

    fixy = Fixy(features=default_features())
    fixy.fit(historical_scenes)                  # offline
    ranked = fixy.rank(new_scenes, "tracks",     # online
                       filt=lambda t: not t.has_human)

(The declarative equivalent — an :class:`repro.api.AuditSpec` run
through :class:`repro.api.Audit` — adds provenance and pluggable
execution backends on top of this engine.)

The online phase runs on the columnar pipeline by default
(:mod:`repro.core.columnar` / :mod:`repro.core.compile`): scenes compile
to flat potential arrays via batched density evaluation, scoring reads
those arrays directly, and — with ``fast_density`` — eligible KDEs are
served from validated log-density interpolation grids once traffic
amortizes their construction. Two engine-level layers sit on top:

- a **scorer LRU cache** (:meth:`Fixy.compile` is uncached), so
  repeated queries against the same scene object (rank tracks, then
  bundles, then observations) compile once; a multi-scene
  :meth:`Fixy.rank` ranks each scene from its cached scorer and merges
  the per-scene rankings;
- ``vectorized=False`` switches the whole engine to the scalar
  reference pipeline for A/B verification.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from typing import Mapping

from repro.core.aof import AOF
from repro.core.compile import CompiledScene, compile_scene
from repro.core.features import Feature
from repro.core.learning import FeatureDistributionLearner, LearnedModel
from repro.core.model import Scene
from repro.core.scoring import (
    ScoredItem,
    Scorer,
    merge_rankings,
    normalize_rank_kind,
)

__all__ = ["Fixy"]

#: Scorers :meth:`Fixy.scorer` keeps, keyed by scene object identity.
_SCORER_CACHE_SIZE = 16


class Fixy:
    """Learned observation assertions over perception scenes.

    Args:
        features: The feature set (see :mod:`repro.core.library`).
        aofs: Optional per-feature application objective functions,
            keyed by feature name.
        learn_sources: Observation sources treated as the organizational
            resource to learn from (default: human labels).
        min_samples: Minimum per-class sample count when fitting
            class-conditional distributions.
        vectorized: Compile scenes through the columnar batch pipeline
            (default) or the scalar reference loop.
        fast_density: Arm grid-accelerated density evaluation on fit
            (lazy; builds only once batch traffic amortizes it). The
            scalar path is never affected. See
            :meth:`repro.core.learning.LearnedModel.enable_fast_eval`.
    """

    def __init__(
        self,
        features: list[Feature],
        aofs: Mapping[str, AOF] | None = None,
        learn_sources: tuple[str, ...] = ("human",),
        min_samples: int = 8,
        vectorized: bool = True,
        fast_density: bool = True,
    ):
        if not features:
            raise ValueError("Fixy needs at least one feature")
        names = [f.name for f in features]
        duplicates = sorted(
            name for name, count in Counter(names).items() if count > 1
        )
        if duplicates:
            raise ValueError(f"duplicate feature names: {duplicates}")
        self.features = list(features)
        self.aofs = dict(aofs or {})
        self.vectorized = vectorized
        self.fast_density = fast_density
        self._learner = FeatureDistributionLearner(
            self.features, sources=learn_sources, min_samples=min_samples
        )
        self.learned: LearnedModel | None = None
        #: id(scene) -> (scene, scorer); the scene reference keeps the
        #: id stable while cached. The lock guards it: callers may rank
        #: from several threads on one engine.
        self._scorers: OrderedDict[int, tuple[Scene, Scorer]] = OrderedDict()
        self._cache_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Offline phase
    # ------------------------------------------------------------------
    def fit(self, scenes: list[Scene]) -> "Fixy":
        """Learn feature distributions from historical labeled scenes."""
        if not scenes:
            raise ValueError("fit requires at least one historical scene")
        self.learned = self._learner.fit(scenes)
        if self.fast_density:
            self.learned.enable_fast_eval()
        self.clear_compile_cache()
        return self

    def warmup_fast_eval(self) -> int:
        """Build all density grids now (offline prep for serving/benchmarks).

        Returns the number of accelerated distributions; 0 when unfitted
        or ``fast_density`` is off.
        """
        if self.learned is None or not self.fast_density:
            return 0
        return self.learned.enable_fast_eval(eager=True)

    @property
    def is_fitted(self) -> bool:
        return self.learned is not None

    # ------------------------------------------------------------------
    # Serving facade: incremental sessions
    # ------------------------------------------------------------------
    def session(self, scene: Scene, session_id: str | None = None):
        """An incremental :class:`~repro.serving.session.SceneSession`
        over ``scene``, sharing this engine's features/AOFs/model.

        Session edits mutate ``scene`` in place, so every edit also
        evicts it from this engine's identity-keyed scorer cache —
        :meth:`rank` on the same scene object stays fresh.
        """
        from repro.serving.session import SceneSession

        self._require_fitted()
        if not self.vectorized:
            raise ValueError(
                "sessions require the columnar pipeline; this engine was "
                "built with vectorized=False (the scalar reference path "
                "cannot be spliced incrementally)"
            )
        return SceneSession(
            scene,
            self.features,
            learned=self.learned,
            aofs=self.aofs,
            session_id=session_id,
            on_invalidate=lambda: self._evict_scene(scene),
        )

    def _require_fitted(self) -> None:
        needs_learning = any(f.learnable for f in self.features)
        if needs_learning and not self.is_fitted:
            raise RuntimeError(
                "Fixy has learnable features but fit() has not been called"
            )

    # ------------------------------------------------------------------
    # Online phase
    # ------------------------------------------------------------------
    def compile(self, scene: Scene) -> CompiledScene:
        """Compile one scene into its factor graph (uncached: every call
        compiles afresh)."""
        self._require_fitted()
        return compile_scene(
            scene,
            self.features,
            learned=self.learned,
            aofs=self.aofs,
            vectorized=self.vectorized,
        )

    def clear_compile_cache(self) -> None:
        """Drop every cached scorer (and the compiled scene it holds)."""
        with self._cache_lock:
            self._scorers.clear()

    def _evict_scene(self, scene: Scene) -> None:
        """Drop one scene's cached scorer (it was mutated in place)."""
        with self._cache_lock:
            self._scorers.pop(id(scene), None)

    def scorer(self, scene: Scene) -> Scorer:
        """A scorer for one scene, LRU-cached by scene object identity:
        after mutating a cached scene in place, call
        :meth:`clear_compile_cache` (:meth:`session` edits evict it)."""
        key = id(scene)
        with self._cache_lock:
            hit = self._scorers.get(key)
            if hit is not None and hit[0] is scene:
                self._scorers.move_to_end(key)
                return hit[1]
        scorer = Scorer(self.compile(scene))
        with self._cache_lock:
            self._scorers[key] = (scene, scorer)
            while len(self._scorers) > _SCORER_CACHE_SIZE:
                self._scorers.popitem(last=False)
        return scorer

    def rank(
        self,
        scenes: Scene | list[Scene],
        kind: str = "tracks",
        filt=None,
        top_k: int | None = None,
    ) -> list[ScoredItem]:
        """Rank components of ``kind`` across scenes, best score first.

        The one ranking entry point: ``kind`` is ``"tracks"``,
        ``"bundles"``, or ``"observations"`` (singular accepted;
        anything else raises
        :class:`~repro.core.scoring.UnknownRankKindError` before any
        scene compiles). ``filt`` is the kind's filter callable —
        ``(track)``, ``(bundle, track)``, or ``(observation)``
        respectively.

        The declarative form of this call is :class:`repro.api.AuditSpec`
        executed through :class:`repro.api.Audit`, which adds result
        provenance and pluggable execution backends.
        """
        kind = normalize_rank_kind(kind)
        blocks = [
            scorer.rank(kind, filt, top_k)
            for scorer in map(self.scorer, _as_list(scenes))
        ]
        return merge_rankings(blocks, top_k)

    def audit(self, spec, scenes=None, backend: str | None = None, **backend_options):
        """Execute a declarative :class:`repro.api.AuditSpec` on this
        fitted engine, returning a typed :class:`repro.api.AuditResult`.

        Convenience for ``Audit(spec, fixy=self).run(...)``; see
        :mod:`repro.api` for the full surface.
        """
        from repro.api import Audit

        with Audit(spec, fixy=self) as audit:
            return audit.run(scenes=scenes, backend=backend, **backend_options)


def _as_list(scenes: Scene | list[Scene]) -> list[Scene]:
    if isinstance(scenes, Scene):
        return [scenes]
    return list(scenes)
