"""Shared pieces of the benchmark: seeded inputs, timing loop, statistics.

Everything here stays outside the program under test. Inputs are
synthesized once per run from fixed base seeds (so every run does the
same amount of work per op) and then perturbed by the workload seed, so
two seeds never share scene content.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field

#: Per-size settings shared by every workload. Each workload module sets
#: its own scene sizes and the samples each op kind needs: at least 100,
#: so that ten samples lie beyond p90.
SIZES = {
    "full": {"train_scenes": 4, "setup_repeats": 3, "warmup_blocks": 1},
    "tiny": {"train_scenes": 2, "setup_repeats": 2, "warmup_blocks": 1},
}

#: Standard deviation (metres) of the per-observation position jitter
#: that makes every scene variant distinct content.
JITTER_M = 0.02
#: Each workload's synthesized training and base scenes are kept here
#: between runs: they depend on fixed seeds only, and synthesis takes
#: seconds of each run's time budget.
INPUT_CACHE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench", "inputs"
)
#: Whether this process synthesized inputs that were not cached yet.
synthesized = False


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def cached_inputs(name: str, make):
    """``make()``, a JSON value, read from :data:`INPUT_CACHE` when an
    earlier run already wrote it there.

    ``make`` must synthesize everything a workload needs in one call:
    the program numbers observations from a process-wide counter, so
    only the same calls in the same order give the same inputs.
    """
    global synthesized
    path = os.path.join(INPUT_CACHE, f"{name}.json")
    try:
        with open(path) as cached:
            return json.load(cached)
    except (OSError, ValueError):
        pass
    value = make()
    synthesized = True
    os.makedirs(INPUT_CACHE, exist_ok=True)
    partial = f"{path}.{os.getpid()}"
    with open(partial, "w") as out:
        json.dump(value, out)
    os.replace(partial, path)
    return value


def training_scenes(n: int) -> list[str]:
    """The synthetic-internal profile's first ``n`` training scenes,
    serialized (see :func:`variant_json`)."""
    from repro.datasets import SYNTHETIC_INTERNAL, build_dataset

    dataset = build_dataset(SYNTHETIC_INTERNAL, n_train_scenes=n, n_val_scenes=0)
    return [json.dumps(scene.to_dict()) for scene in dataset.train_scenes]


def base_scene_json(n_objects: int, base_seed: int) -> str:
    """One synthesized labeled scene, serialized (the variant template)."""
    from repro.datagen import SceneConfig, SceneGenerator
    from repro.datasets import SYNTHETIC_INTERNAL, build_labeled_scene

    config = SceneConfig(n_objects_range=(n_objects, n_objects))
    world = SceneGenerator(config).generate(f"base-{base_seed}", seed=base_seed)
    labeled = build_labeled_scene(
        world, SYNTHETIC_INTERNAL.vendor, SYNTHETIC_INTERNAL.detector, seed=1
    )
    return json.dumps(labeled.scene.to_dict())


def _jittered(base_json: str, scene_id: str, rng: random.Random) -> dict:
    """A base scene's dict with every box centre jittered by ``rng``."""
    data = json.loads(base_json)
    data["scene_id"] = scene_id
    gauss = rng.gauss
    for track in data["tracks"]:
        for bundle in track["bundles"]:
            for obs in bundle["observations"]:
                box = obs["box"]
                box["x"] += gauss(0.0, JITTER_M)
                box["y"] += gauss(0.0, JITTER_M)
    return data


def variant_json(base_json: str, scene_id: str, rng: random.Random) -> str:
    """A jittered copy of a base scene, kept serialized: scenes the
    benchmark held as live objects would lengthen the program's
    garbage-collection passes."""
    return json.dumps(_jittered(base_json, scene_id, rng))


def variant(base_json: str, scene_id: str, rng: random.Random):
    """A jittered copy of a base scene as a live ``Scene``."""
    from repro.core.model import Scene

    return Scene.from_dict(_jittered(base_json, scene_id, rng))


def live(scene_json: str):
    """The live ``Scene`` for a serialized one."""
    from repro.core.model import Scene

    return Scene.from_dict(json.loads(scene_json))


def fit_engine(train_json) -> tuple:
    """Model fit plus density-grid warmup, the first step of every set-up.

    Returns ``(engine, seconds)``; decoding the serialized training
    scenes is not timed.
    """
    from repro.core import Fixy, default_features

    train = [live(scene_json) for scene_json in train_json]
    t0 = time.perf_counter()
    fixy = Fixy(default_features())
    fixy.fit(train)
    fixy.warmup_fast_eval()
    return fixy, time.perf_counter() - t0


def signature(items, kind: str) -> list[dict]:
    """Exact ranking signature: the wire form of every ranked item."""
    return [item.to_dict(kind) for item in items]


def inline_reference(fixy, spec, scenes) -> list[dict]:
    """The in-memory ``inline`` audit of ``scenes``, as a signature.

    Clears the engine's compile cache afterwards so reference compiles
    never linger in the cache a timed op might consult.
    """
    from repro.api import Audit

    try:
        result = Audit(spec, fixy=fixy).run(scenes=list(scenes), backend="inline")
    finally:
        fixy.clear_compile_cache()
    return signature(result.items, spec.kind)


# ---------------------------------------------------------------------------
# Statistics and resources
# ---------------------------------------------------------------------------
def percentile(values, q: int) -> float:
    """The ``q``-th percentile (exclusive method, as statistics.quantiles)."""
    if len(values) < 2:
        return float(values[0]) if values else math.nan
    return statistics.quantiles(values, n=100)[q - 1]


def median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def reset_peak_rss() -> None:
    """Restart this process's peak resident set (``VmHWM``) from its
    current resident set, so the next reading covers only what runs
    after this call."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def process_peak_rss_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a live process, this one by default."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------
@dataclass
class OpRecord:
    """One measured op: its kind, wall time and whether it failed."""

    kind: str
    seconds: float
    failed: bool
    traced: bool = False
    extra: dict = field(default_factory=dict)


@dataclass
class Phase:
    """Everything the measured phase produced."""

    records: list = field(default_factory=list)
    mismatches: int = 0
    errors: list = field(default_factory=list)
    busy_s: float = 0.0
    #: Highest peak resident set over the ops themselves: the peak is
    #: reset before each op, so checks between ops never set it.
    peak_rss_mb: float = 0.0

    def latencies(self, kind: str, traced: bool = False) -> list[float]:
        return [
            r.seconds
            for r in self.records
            if r.kind == kind and not r.failed and r.traced == traced
        ]


def run_closed_loop(workload, pattern, seconds=0.0, min_samples=0, tracer=None, n_ops=None):
    """One client, one op at a time, until time and sample floors are met.

    ``pattern`` is the fixed op mix (a list of ``"read"``/``"write"``)
    repeated in order. The phase ends once the ops themselves have taken
    ``seconds`` and each op kind has ``min_samples`` successful samples;
    a wall-clock cap keeps a pathologically slow program inside the
    benchmark's time limit. Input generation and the correctness check of
    each op happen between ops, outside the timed region.

    With a ``tracer`` the loop alternates untraced and traced blocks of
    ``len(pattern)`` ops, so tracing overhead is measured against the
    same stretch of the run. ``n_ops`` runs exactly that many ops instead
    (the untimed warm-up).
    """
    phase = Phase()
    wall_cap = time.monotonic() + 3 * seconds + 60
    counts = {kind: 0 for kind in set(pattern)}
    index = 0
    while True:
        if n_ops is not None:
            done = index >= n_ops
        else:
            done = phase.busy_s >= seconds and all(
                n >= min_samples for n in counts.values()
            )
        if done or time.monotonic() > wall_cap:
            break
        kind = pattern[index % len(pattern)]
        traced = tracer is not None and (index // len(pattern)) % 2 == 1
        args = workload.prepare(kind, index, traced)
        if traced:
            tracer.install()
            tracer.begin_op(index, kind)
        reset_peak_rss()
        t0 = time.perf_counter()
        try:
            out = workload.op(kind, args)
            failed = False
        except Exception as exc:  # a failed op is a measured outcome
            out, failed = exc, True
        elapsed = time.perf_counter() - t0
        phase.peak_rss_mb = max(phase.peak_rss_mb, process_peak_rss_mb())
        if traced:
            tracer.end_op()
            tracer.uninstall()
        record = OpRecord(kind, elapsed, failed, traced)
        if failed:
            phase.errors.append(f"{kind} #{index}: {type(out).__name__}: {out}")
        else:
            problem = workload.check(kind, args, out, record)
            if problem is not None:
                record.failed = True
                phase.mismatches += 1
                phase.errors.append(f"{kind} #{index}: {problem}")
            else:
                counts[kind] += 1
        phase.records.append(record)
        phase.busy_s += elapsed
        index += 1
    return phase


def end_to_end(phase: Phase, setup_times, peak_rss_mb: float) -> dict:
    """Every end-to-end metric as ``name -> (value, sample count)``."""
    reads = phase.latencies("read")
    writes = phase.latencies("write")
    attempted = len(phase.records)
    completed = attempted - sum(1 for r in phase.records if r.failed)
    return {
        "read_p50_ms": (1e3 * median(reads), len(reads)),
        "read_p90_ms": (1e3 * percentile(reads, 90), len(reads)),
        "write_p50_ms": (1e3 * median(writes), len(writes)),
        "write_p90_ms": (1e3 * percentile(writes, 90), len(writes)),
        "ops_per_s": (completed / phase.busy_s if phase.busy_s else 0.0, completed),
        "success_rate": (completed / attempted if attempted else 0.0, attempted),
        "setup_s": (median(setup_times), len(setup_times)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }


def checkout_scratch(root: str) -> str:
    """A fresh private directory under the checkout for run-time files."""
    import tempfile

    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)
