"""remote_audit: this process coordinates ``Audit.run(backend="remote")``
over two ``repro.cli serve --async`` worker processes on loopback.

Reads audit a hot scene set the workers already hold, so only scene
ids travel. Writes audit four fresh scenes, two per worker, whose
bodies are packed, shipped, decoded and compiled.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

from common import (
    base_scene_json, cached_inputs, fit_engine, inline_reference, process_peak_rss_mb, signature,
    training_scenes, variant,
)

CONFIG = {
    # 16 hot scenes of 1.3k-1.8k observations split 8/8: half of each
    # worker's 16-entry compile LRU, so the fresh scenes written between
    # two reads cannot evict them. Each write ships two fresh scenes of
    # ~1.2k observations to every worker (see prepare).
    "full": {"bases": 2, "objects": 25, "hot": 16, "write_objects": 15, "samples": 100},
    "tiny": {"bases": 2, "objects": 4, "hot": 4, "write_objects": 3, "samples": 4},
}
#: One read to one write, in seeded order within each block of four.
BLOCK = ("read", "read", "write", "write")
N_WORKERS = 2
FRESH_PER_WORKER = 2
#: Observation-level audits: enough worker-side scoring per request that
#: cross-process wake-up jitter is a small share of each op.
KIND = "observations"
TOP_K = 10
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


class RemoteAudit:
    def __init__(self, size: str, seed: int, scratch: str, train_scenes: int):
        cfg = CONFIG[size]
        self.seed = seed
        self.scratch = scratch
        self.rng = random.Random(seed)
        # One base for every fresh scene, so every write does the same
        # work: writes that alternated between bases of different sizes
        # fell into two modes with p50 on the edge between them.
        self.train, self.bases, self.write_base = cached_inputs(f"remote_audit-{size}", lambda: (
            training_scenes(train_scenes),
            [base_scene_json(cfg["objects"], 2000 + b) for b in range(cfg["bases"])],
            base_scene_json(cfg["write_objects"], 2100),
        ))
        self.hot = [
            variant(self.bases[i % len(self.bases)], f"s{seed}-h{i:02d}", self.rng)
            for i in range(cfg["hot"])
        ]
        pattern = list(BLOCK)
        self.rng.shuffle(pattern)
        self.pattern = pattern
        self.min_samples = cfg["samples"]
        self.src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.workers: list[subprocess.Popen] = []
        self.logs: list = []
        self.addresses: list[str] = []
        self.fixy = self.audit = None
        self.hot_reference = None
        self.writes = 0
        self.probes: list = []

    # -- set-up -----------------------------------------------------------
    def setup(self, attempt: int) -> float:
        """Model fit, worker start, registration and hot-set priming."""
        from repro.api import Audit, AuditSpec

        self.fixy, elapsed = fit_engine(self.train)
        t0 = time.perf_counter()
        model = os.path.join(self.scratch, f"model-{attempt}.json")
        self.fixy.learned.save(model)
        env = dict(os.environ, PYTHONPATH=self.src)
        # A 16-entry scene cache reaches steady state within the first
        # writes; with the default 256, every fresh scene stays decoded,
        # worker heaps and collection pauses grow through the run, and the
        # write tail depends on how far a run gets.
        for i in range(N_WORKERS):
            log = open(os.path.join(self.scratch, f"worker-{attempt}-{i}.log"), "w+")
            self.logs.append(log)
            self.workers.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "serve", "--listen",
                     "127.0.0.1:0", "--async", "--model", model, "--scene-cache", "16"],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    stderr=log, env=env,
                )
            )
        self.addresses = [self._announced(w, log) for w, log in zip(self.workers, self.logs)]
        self.audit = Audit(AuditSpec(kind=KIND, top_k=TOP_K), fixy=self.fixy)
        self._run(self.hot)
        return elapsed + time.perf_counter() - t0

    def _announced(self, worker, log) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        marker = "gateway listening on "
        while time.monotonic() < deadline:
            log.seek(0)
            for line in log.read().splitlines():
                if line.startswith(marker):
                    return line[len(marker):].split()[0]
            if worker.poll() is not None:
                raise RuntimeError(f"worker exited with {worker.returncode} before listening")
            time.sleep(0.02)
        raise RuntimeError("worker did not announce its address in time")

    def _run(self, scenes):
        return self.audit.run(scenes=scenes, backend="remote", workers=self.addresses)

    def teardown(self) -> None:
        for client in self.probes:
            client.close()
        self.probes = []
        if self.audit is not None:
            self.audit.close()
            self.audit = None
        for worker in self.workers:
            if worker.poll() is None:
                worker.terminate()
        for worker in self.workers:
            try:
                worker.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
        for log in self.logs:
            log.close()
        self.workers, self.logs, self.addresses = [], [], []

    close = teardown

    # -- ops --------------------------------------------------------------
    def _worker_metrics(self) -> list[dict]:
        """Every worker's metrics snapshot, over a side connection."""
        from repro.api.client import AuditClient

        if not self.probes:
            self.probes = [AuditClient.connect(a, timeout=30.0) for a in self.addresses]
        return [client.metrics()["metrics"] for client in self.probes]

    def prepare(self, kind: str, index: int, traced: bool):
        scenes = self.hot
        if kind == "write":
            n = self.writes
            self.writes += 1
            # The same fresh work for every worker, so both serve the
            # same sequence of requests and their generation-2
            # collections (~60 ms) fall on the same ops. With two
            # ~1.2k-observation scenes each, that is one write in five:
            # the write p90 lies inside the paused writes and p50 inside
            # the unpaused ones, and a write is long enough that thread
            # wake-ups are a small share of it. With one scene, all on
            # the first worker, the workers paused apart and a pause
            # fell in one read in twelve and one write in eight, on the
            # p90; with one small scene per worker, in one write in ten
            # to fourteen, close to it.
            scenes = [
                variant(self.write_base, f"s{self.seed}-f{n:05d}-{i}", self.rng)
                for i in range(FRESH_PER_WORKER * N_WORKERS)
            ]
        return scenes, (self._worker_metrics() if traced else None), _pool_counters()

    def op(self, kind: str, args):
        return self._run(args[0])

    def check(self, kind: str, args, result, record):
        from repro.api import AuditSpec

        scenes, before, counters = args
        reports = result.provenance.workers or []
        record.extra.update(
            dispatch_s=max(r["rank_s"] for r in reports),
            encode_s=sum(r.get("encode_s", 0.0) for r in reports),
            bytes_sent=sum(r.get("bytes_sent", 0) for r in reports),
            cache_hits=sum(r.get("scene_cache_hits", 0) for r in reports),
            cache_misses=sum(r.get("scene_cache_misses", 0) for r in reports),
            pool=[b - a for a, b in zip(counters, _pool_counters())],
        )
        if before is not None:
            record.extra["workers"] = _worker_deltas(before, self._worker_metrics())
        spec = AuditSpec(kind=KIND, top_k=TOP_K)
        if kind == "read":
            if self.hot_reference is None:
                self.hot_reference = inline_reference(self.fixy, spec, self.hot)
            expected = self.hot_reference
        else:
            expected = inline_reference(self.fixy, spec, scenes)
        if signature(result.items, KIND) != expected:
            return "ranking differs from the in-memory inline audit"
        return None

    # -- reporting --------------------------------------------------------
    def peak_rss_mb(self, own_mb: float) -> float:
        return own_mb + sum(process_peak_rss_mb(w.pid) for w in self.workers)

    def layer_extras(self, phase) -> dict:
        traced = [r for r in phase.records if r.traced and not r.failed]
        reads = [r for r in traced if r.kind == "read"]
        writes = [r for r in traced if r.kind == "write"]

        def mean(records, key):
            return sum(r.extra[key] for r in records) / len(records) if records else 0.0

        def worker_sum(records, key):
            return sum(r.extra["workers"][key] for r in records)

        dispatch_ms = 1e3 * mean(reads, "dispatch_s")
        gateway_n = worker_sum(reads, "gateway_n")
        gateway_ms = 1e3 * worker_sum(reads, "gateway_s") / gateway_n if gateway_n else 0.0
        execute_n = worker_sum(reads, "execute_n")
        execute_ms = 1e3 * worker_sum(reads, "execute_s") / execute_n if execute_n else 0.0
        hits = sum(r.extra["cache_hits"] for r in reads)
        lookups = hits + sum(r.extra["cache_misses"] for r in reads)
        return {
            "pool.dispatch_ms": dispatch_ms,
            "pool.overhead_ms": (
                1e3 * sum(r.seconds for r in reads) / len(reads) - dispatch_ms if reads else 0.0
            ),
            "pool.wire_ms": dispatch_ms - gateway_ms if reads else 0.0,
            "pool.requests_per_op": worker_sum(reads, "requests") / len(reads) if reads else 0.0,
            "pool.scene_cache_hit_ratio": hits / lookups if lookups else 0.0,
            "pool.encode_ms": 1e3 * mean(writes, "encode_s"),
            "pool.bytes_per_op": mean(writes, "bytes_sent"),
            "pool.refills_per_op": (
                sum(r.extra["pool"][0] for r in writes) / len(writes) if writes else 0.0
            ),
            "pool.requeues": sum(r.extra["pool"][1] for r in traced),
            "gateway.execute_ms": execute_ms,
            "gateway.queue_wait_ms": gateway_ms - execute_ms if gateway_n else 0.0,
            "gateway.shed": worker_sum(traced, "shed"),
        }


def _pool_counters() -> tuple[float, float]:
    """The coordinator's (refills, requeues) counter totals."""
    from repro.obs import metrics

    registry = metrics.get_registry()
    return tuple(
        registry.get(name).total() if registry.get(name) is not None else 0.0
        for name in ("repro_pool_refills_total", "repro_pool_requeues_total")
    )


def _series(snapshot: dict, name: str, op: str | None = "audit") -> tuple[float, float]:
    """(sum, count) of a histogram, or (value, 0) of a counter, for ``op``."""
    total = count = 0.0
    for series in snapshot.get(name, {}).get("series", []):
        if op is not None and series["labels"].get("op") != op:
            continue
        if "sum" in series:
            total += series["sum"]
            count += series["count"]
        else:
            total += series["value"]
    return total, count


def _worker_deltas(before: list[dict], after: list[dict]) -> dict:
    """Per-op changes of the worker metrics the layer table reads."""
    out = dict.fromkeys(
        ("gateway_s", "gateway_n", "execute_s", "execute_n", "requests", "shed"), 0.0
    )
    for b, a in zip(before, after):
        for key, name in (("gateway", "repro_gateway_request_seconds"),
                          ("execute", "repro_service_request_seconds")):
            s1, n1 = _series(a, name)
            s0, n0 = _series(b, name)
            out[f"{key}_s"] += s1 - s0
            out[f"{key}_n"] += n1 - n0
        out["requests"] += _series(a, "repro_service_requests_total")[0] - _series(
            b, "repro_service_requests_total")[0]
        out["shed"] += _series(a, "repro_gateway_shed_total", None)[0] - _series(
            b, "repro_gateway_shed_total", None)[0]
    return out
