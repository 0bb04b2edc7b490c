"""Process-sharded ranking: fan rank_* across a ProcessPoolExecutor.

The engine's thread-pool fast path (``Fixy(n_jobs=...)``) only scales
while NumPy holds the GIL released; the Python-side portions of compile
and scoring serialize. This module shards whole scenes across worker
*processes* instead:

- the fitted model travels once per worker, as the JSON-safe
  :meth:`~repro.core.engine.Fixy.to_payload` dict (fitted distributions
  via ``LearnedModel.to_dict`` — including persisted density grids, so
  workers skip the warmup build entirely);
- each scene travels as its ``Scene.to_dict`` payload and is
  reconstructed worker-side;
- every worker keeps its own **compiled-scene LRU cache** keyed by a
  content fingerprint the parent computes. This is the per-process
  replacement for the engine's in-process ``id()``-keyed cache, which
  cannot work across a serialization boundary (each delivery
  reconstructs fresh objects).

Determinism: workers run exactly the columnar compile + array scoring
the in-process path runs, on bit-identical inputs (``to_dict``/
``from_dict`` round floats through Python floats, never text), so the
merged ranking is **byte-identical** to the thread-pool path — asserted
in ``tests/serving/test_sharded.py`` and recorded by the perf harness.
To keep grid-accelerated densities deterministic too, construction
eagerly warms the parent's grids before snapshotting the payload
(otherwise each worker's lazy cutover could flip at a different point
in the traffic). Byte-identity therefore holds between the pool and
any in-process ranking run *after* the ranker was constructed; an
in-process ranking taken before it may have used the pre-cutover exact
densities (equal only to the grid's validated tolerance).

Filters passed to ``rank_*`` must be picklable (module-level functions,
functools.partial, or None) — lambdas cannot cross the process
boundary.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor

from repro.core.model import Scene
from repro.core.scoring import ScoredItem, merge_rankings, normalize_rank_kind

__all__ = ["ShardedRanker"]


# Worker-process state, set once by _init_worker.
_WORKER: dict = {}


def _init_worker(payload: dict, cache_size: int) -> None:
    from repro.core.engine import Fixy

    # The per-worker LRU below replaces the engine's id()-keyed cache;
    # disable the latter so compiled scenes are not held twice.
    fixy = Fixy.from_payload(payload, compile_cache_size=0)
    _WORKER["fixy"] = fixy
    _WORKER["cache"] = OrderedDict()
    _WORKER["cache_size"] = max(1, int(cache_size))
    _WORKER["hits"] = 0
    _WORKER["misses"] = 0


def _worker_scorer(scene_dict: dict, key: str):
    from repro.core.compile import compile_scene
    from repro.core.scoring import Scorer

    cache: OrderedDict = _WORKER["cache"]
    scorer = cache.get(key)
    if scorer is not None:
        cache.move_to_end(key)
        _WORKER["hits"] += 1
        return scorer
    _WORKER["misses"] += 1
    fixy = _WORKER["fixy"]
    scene = Scene.from_dict(scene_dict)
    scorer = Scorer(
        compile_scene(
            scene,
            fixy.features,
            learned=fixy.learned,
            aofs=fixy.aofs,
            vectorized=fixy.vectorized,
        )
    )
    cache[key] = scorer
    while len(cache) > _WORKER["cache_size"]:
        cache.popitem(last=False)
    return scorer


def _worker_rank(task: tuple) -> tuple[int, bool, list[ScoredItem]]:
    """Rank one scene; returns (pid, cache_hit, per-scene top-k)."""
    scene_dict, key, kind, filt, top_k = task
    hits_before = _WORKER["hits"]
    scorer = _worker_scorer(scene_dict, key)
    ranked = scorer.rank(kind, filt, top_k)
    return os.getpid(), _WORKER["hits"] > hits_before, ranked


def _worker_cache_stats(_: object) -> dict:
    return {
        "pid": os.getpid(),
        "hits": _WORKER["hits"],
        "misses": _WORKER["misses"],
        "cached_scenes": len(_WORKER["cache"]),
    }


def scene_fingerprint(scene: Scene) -> str:
    """Content hash of a scene's serialized form (worker cache key)."""
    return _payload_fingerprint(scene.to_dict())


def _payload_fingerprint(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


class ShardedRanker:
    """Rank scenes across worker processes with per-worker caches.

    Args:
        fixy: A fitted :class:`~repro.core.engine.Fixy`; its features,
            AOFs, and learned model are snapshotted into the worker
            payload at construction (refit the engine → build a new
            ranker).
        n_workers: Worker process count.
        cache_size: Compiled scenes each worker retains.
        start_method: ``multiprocessing`` start method; default prefers
            ``fork`` (cheap on Linux), falling back to the platform
            default. All worker entry points are module-level, so
            ``spawn`` works too.

    Use as a context manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        fixy,
        n_workers: int = 2,
        cache_size: int = 8,
        start_method: str | None = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        fixy._require_fitted()
        # Deterministic densities across parent and workers: finish any
        # lazy grid builds now so the payload carries the final state.
        fixy.warmup_fast_eval()
        payload = fixy.to_payload()
        self.n_workers = n_workers
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._pool = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=multiprocessing.get_context(start_method),
            initializer=_init_worker,
            initargs=(payload, cache_size),
        )
        #: pid -> cache hits/misses observed through completed tasks
        self.worker_hits: dict[int, int] = {}
        self.worker_misses: dict[int, int] = {}

    # ------------------------------------------------------------------
    def rank(
        self, scenes, kind: str = "tracks", filt=None, top_k: int | None = None
    ) -> list[ScoredItem]:
        """Rank components of ``kind`` across scenes via the process pool.

        The kind-as-data entry point (mirrors
        :meth:`repro.core.engine.Fixy.rank`); a typo'd kind raises
        :class:`~repro.core.scoring.UnknownRankKindError` before any
        scene is shipped to a worker.
        """
        return self._rank(scenes, normalize_rank_kind(kind), filt, top_k)

    def rank_tracks(self, scenes, track_filter=None, top_k: int | None = None):
        """Rank tracks across scenes via the process pool."""
        return self._rank(scenes, "tracks", track_filter, top_k)

    def rank_bundles(self, scenes, bundle_filter=None, top_k: int | None = None):
        """Rank bundles across scenes via the process pool."""
        return self._rank(scenes, "bundles", bundle_filter, top_k)

    def rank_observations(self, scenes, obs_filter=None, top_k: int | None = None):
        """Rank observations across scenes via the process pool."""
        return self._rank(scenes, "observations", obs_filter, top_k)

    def _rank(self, scenes, kind: str, filt, top_k: int | None) -> list[ScoredItem]:
        if isinstance(scenes, Scene):
            scenes = [scenes]
        payloads = [scene.to_dict() for scene in scenes]
        tasks = [
            (payload, _payload_fingerprint(payload), kind, filt, top_k)
            for payload in payloads
        ]
        blocks: list[list[ScoredItem]] = []
        # map() preserves submission order, so merge_rankings sees
        # per-scene blocks in exactly the order the thread-pool path
        # produces — identical scores ⇒ identical list.
        for pid, hit, scene_ranked in self._pool.map(_worker_rank, tasks):
            if hit:
                self.worker_hits[pid] = self.worker_hits.get(pid, 0) + 1
            else:
                self.worker_misses[pid] = self.worker_misses.get(pid, 0) + 1
            blocks.append(scene_ranked)
        return merge_rankings(blocks, top_k)

    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        """Aggregated per-worker cache statistics (as seen by the parent)."""
        return {
            "n_workers": self.n_workers,
            "hits": sum(self.worker_hits.values()),
            "misses": sum(self.worker_misses.values()),
            "per_worker_hits": dict(self.worker_hits),
            "per_worker_misses": dict(self.worker_misses),
        }

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ShardedRanker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
