#!/usr/bin/env python
"""Ranking floor: array-native ``Scorer.rank`` against the per-item path.

Synthesizes one scene of the synthetic-internal profile with at least
2,000 observations, compiles it once, and for the ``observations`` and
``bundles`` kinds times ``Scorer(compiled).rank(kind, top_k=10)`` on a
fresh scorer (so the one-pass score arrays are built inside the timed
call) against the per-item reference ranking the tier-1 suite checks
it with (``tests/core/test_rank_arrays.py``: every component scored
alone, then a stable sort). It asserts that both return byte-identical
rankings (raw float64 score bytes, factor counts, track ids and the
very same item objects) and that the array path is at least
``MIN_RATIO`` times faster, as a same-process ratio of medians over
interleaved repeats, which shared CI runners cannot skew the way they
skew absolute times.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_rank_kinds.py
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
KINDS = ("observations", "bundles")
TOP_K = 10
#: 50 objects of the synthetic-internal profile: 127 tracks, 2,725
#: observations (the edit_stream benchmark's scene).
N_OBJECTS, SEED = 50, 3000
MIN_OBSERVATIONS = 2000
REPEATS = 15
MIN_RATIO = 5.0


def build_scene(n_objects: int, seed: int):
    """A fitted engine and one labeled scene of ``n_objects`` objects."""
    from repro.core import Fixy, default_features
    from repro.datagen import SceneConfig, SceneGenerator
    from repro.datasets import SYNTHETIC_INTERNAL, build_dataset, build_labeled_scene

    dataset = build_dataset(SYNTHETIC_INTERNAL, n_train_scenes=4, n_val_scenes=0)
    fixy = Fixy(default_features()).fit(dataset.train_scenes)
    fixy.warmup_fast_eval()
    world = SceneGenerator(
        SceneConfig(n_objects_range=(n_objects, n_objects))
    ).generate("rank-bench", seed=seed)
    labeled = build_labeled_scene(
        world, SYNTHETIC_INTERNAL.vendor, SYNTHETIC_INTERNAL.detector, seed=1
    )
    return fixy, labeled.scene


def timed(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def bench_kind(compiled, kind: str, repeats: int) -> dict:
    from repro.core import Scorer

    from tests.core.test_rank_arrays import assert_identical, reference_rank

    per_item, array = [], []
    for _ in range(repeats):
        seconds, want = timed(
            lambda: reference_rank(Scorer(compiled), kind, top_k=TOP_K)
        )
        per_item.append(seconds)
        seconds, got = timed(lambda: Scorer(compiled).rank(kind, top_k=TOP_K))
        array.append(seconds)
        assert_identical(got, want)
    scorer = Scorer(compiled)
    scorer.rank(kind, top_k=TOP_K)
    memoized = [
        timed(lambda: scorer.rank(kind, top_k=TOP_K))[0] for _ in range(repeats)
    ]
    per_item_ms = 1e3 * statistics.median(per_item)
    array_ms = 1e3 * statistics.median(array)
    return {
        "kind": kind,
        "per_item_ms": per_item_ms,
        "array_ms": array_ms,
        "memoized_ms": 1e3 * statistics.median(memoized),
        "ratio": per_item_ms / array_ms,
    }


def main() -> int:
    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    fixy, scene = build_scene(N_OBJECTS, SEED)
    n_obs = sum(track.n_observations for track in scene.tracks)
    if n_obs < MIN_OBSERVATIONS:
        print(f"FAIL: scene has {n_obs} observations, fewer than "
              f"{MIN_OBSERVATIONS}", file=sys.stderr)
        return 1
    compiled = fixy.compile(scene)
    rows = [bench_kind(compiled, kind, REPEATS) for kind in KINDS]

    print(f"scene: {len(scene.tracks)} tracks, {n_obs} observations; "
          f"top_k={TOP_K}, median of {REPEATS} repeats")
    print(f"{'kind':<14}{'per-item ms':>13}{'array ms':>10}"
          f"{'memoized ms':>13}{'ratio':>8}")
    for row in rows:
        print(f"{row['kind']:<14}{row['per_item_ms']:>13.3f}"
              f"{row['array_ms']:>10.3f}{row['memoized_ms']:>13.4f}"
              f"{row['ratio']:>7.1f}x")
    slow = [row for row in rows if row["ratio"] < MIN_RATIO]
    for row in slow:
        print(f"FAIL: {row['kind']} array ranking is only {row['ratio']:.1f}x "
              f"faster than the per-item path (floor {MIN_RATIO}x)",
              file=sys.stderr)
    return 1 if slow else 0


if __name__ == "__main__":
    sys.exit(main())
