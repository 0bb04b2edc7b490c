"""Backend equivalence: one spec, every backend, byte-identical rankings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Audit,
    AuditSpec,
    ExecutionBackend,
    FilterSpec,
    UnknownBackendError,
    available_backends,
    get_backend,
    register_backend,
)
from repro.api.backends import _BACKENDS

from tests.core.conftest import make_obs, make_track, scene_of

ALL_BACKENDS = ("inline", "session", "remote")


def backend_options(backend: str, workers) -> dict:
    """Per-run options: the remote backend needs the live worker pool."""
    return {"workers": list(workers)} if backend == "remote" else {}


def random_scenes(seed: int, n_scenes: int):
    """Randomized scenes: mixed sources, classes, track sizes."""
    rng = np.random.default_rng(seed)
    scenes = []
    for s in range(n_scenes):
        tracks = []
        for t in range(int(rng.integers(2, 6))):
            n_frames = int(rng.integers(3, 10))
            source = "model" if rng.random() < 0.7 else "human"
            cls = "car" if rng.random() < 0.7 else "truck"
            speed = float(rng.uniform(1.0, 3.0))
            start_x = float(rng.uniform(-20.0, 20.0))
            frames = {}
            for f in range(n_frames):
                length = float(4.5 * np.exp(rng.normal(0.0, 0.05)))
                frames[f] = [
                    make_obs(
                        f,
                        start_x + speed * 0.2 * f,
                        y=float(3.0 * t),
                        source=source,
                        cls=cls,
                        l=length,
                        conf=0.8 if source == "model" else None,
                    )
                ]
            tracks.append(make_track(f"seed{seed}-s{s}-t{t}", frames))
        scenes.append(scene_of(tracks, scene_id=f"rand-{seed}-{s}"))
    return scenes


def signature(result):
    """The byte-exact comparable form of a ranking (scores compared as
    floats with ==, i.e. bit-for-bit)."""
    return [item.to_dict(result.spec.kind) for item in result.items]


class TestBackendEquivalence:
    @pytest.mark.parametrize("kind", ["tracks", "bundles", "observations"])
    def test_all_backends_identical_per_kind(self, api_fixy, tcp_workers, kind):
        spec = AuditSpec(kind=kind, top_k=20)
        scenes = random_scenes(seed=7, n_scenes=2)
        reference = None
        with Audit(spec, fixy=api_fixy) as audit:
            for backend in ALL_BACKENDS:
                result = audit.run(
                    scenes=scenes,
                    backend=backend,
                    **backend_options(backend, tcp_workers),
                )
                assert result.provenance.backend == backend
                if reference is None:
                    reference = signature(result)
                    assert reference, "audit returned nothing to compare"
                else:
                    assert signature(result) == reference, backend

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_scenes=st.integers(min_value=1, max_value=3),
        kind=st.sampled_from(["tracks", "bundles", "observations"]),
        top_k=st.one_of(st.none(), st.integers(min_value=1, max_value=15)),
        filtered=st.booleans(),
    )
    def test_equivalence_property(
        self, api_fixy, tcp_workers, seed, n_scenes, kind, top_k, filtered
    ):
        """inline/session/remote return byte-identical
        rankings for the same AuditSpec on randomized scenes (remote
        runs over 2 real TCP workers)."""
        spec = AuditSpec(
            kind=kind,
            top_k=top_k,
            filters=(
                FilterSpec(has_model=True, has_human=False) if filtered else None
            ),
        )
        scenes = random_scenes(seed=seed, n_scenes=n_scenes)
        with Audit(spec, fixy=api_fixy) as audit:
            results = {
                backend: audit.run(
                    scenes=scenes,
                    backend=backend,
                    **backend_options(backend, tcp_workers),
                )
                for backend in ALL_BACKENDS
            }
        reference = signature(results["inline"])
        for backend in ALL_BACKENDS[1:]:
            assert signature(results[backend]) == reference, backend
        if top_k is not None:
            assert len(reference) <= top_k

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_scenes=st.integers(min_value=1, max_value=3),
        kind=st.sampled_from(["tracks", "bundles", "observations"]),
        top_k=st.one_of(st.none(), st.integers(min_value=1, max_value=15)),
        chunk_scenes=st.sampled_from([0, 1, 2]),
    )
    def test_wire_format_equivalence_property(
        self,
        api_fixy,
        tcp_workers,
        seed,
        n_scenes,
        kind,
        top_k,
        chunk_scenes,
    ):
        """The v2 framed wire (content-addressed, chunk-pipelined),
        cold and warm, returns rankings byte-identical to inline for
        the same AuditSpec on randomized scenes — the wire is a
        transport choice, not a results choice."""
        spec = AuditSpec(kind=kind, top_k=top_k)
        scenes = random_scenes(seed=seed, n_scenes=n_scenes)
        with Audit(spec, fixy=api_fixy) as audit:
            reference = signature(audit.run(scenes=scenes))
            variants = {
                "v2": audit.run(
                    scenes=scenes,
                    backend="remote",
                    workers=list(tcp_workers),
                    chunk_scenes=chunk_scenes,
                ),
                "v2-warm": audit.run(
                    scenes=scenes,
                    backend="remote",
                    workers=list(tcp_workers),
                    chunk_scenes=chunk_scenes,
                ),
            }
        for label, result in variants.items():
            assert signature(result) == reference, label
        # The warm framed run resolved every scene from the worker
        # cache (the ids-only fast path really ran).
        warm = variants["v2-warm"].provenance.workers
        assert sum(r["scene_cache_misses"] for r in warm) == 0
        assert sum(r["scene_cache_hits"] for r in warm) == len(scenes)

    def test_spec_hash_constant_across_backends(self, api_fixy, tcp_workers):
        spec = AuditSpec(kind="tracks", top_k=5)
        scenes = random_scenes(seed=3, n_scenes=1)
        with Audit(spec, fixy=api_fixy) as audit:
            hashes = {
                audit.run(
                    scenes=scenes,
                    backend=b,
                    **backend_options(b, tcp_workers),
                ).provenance.spec_hash
                for b in ALL_BACKENDS
            }
        assert hashes == {spec.spec_hash()}

    def test_executor_reused_across_runs_and_released_on_close(
        self, api_fixy, tcp_workers
    ):
        spec = AuditSpec(
            kind="tracks",
            backend="remote",
            backend_options={"workers": list(tcp_workers)},
        )
        key = ("remote", (("workers", tuple(tcp_workers)),))
        scenes = random_scenes(seed=9, n_scenes=1)
        audit = Audit(spec, fixy=api_fixy)
        first = audit.run(scenes=scenes)
        executor = audit._executors[key]
        assert executor._pool is not None  # pool is live between runs
        second = audit.run(scenes=scenes)
        assert audit._executors[key] is executor
        assert signature(first) == signature(second)
        audit.close()
        assert audit._executors == {}
        assert executor._pool is None  # pool shut down
        # close() is idempotent and the audit still runs afterwards.
        audit.close()
        assert signature(audit.run(scenes=scenes)) == signature(first)
        audit.close()

    def test_bad_backend_options_raise_spec_error(self, api_fixy):
        from repro.api import SpecValidationError

        with pytest.raises(SpecValidationError, match="rejected options"):
            get_backend("inline", n_workers=2)


class TestRegistry:
    def test_three_builtin_backends(self):
        assert available_backends() == sorted(ALL_BACKENDS)

    def test_unknown_backend_is_typed_and_lists_valid(self):
        with pytest.raises(UnknownBackendError, match="unknown backend") as exc:
            get_backend("quantum")
        assert set(ALL_BACKENDS) <= set(exc.value.valid)

    def test_register_backend_extends_registry(self, api_fixy):
        @register_backend("loopback")
        class LoopbackBackend(ExecutionBackend):
            def run(self, fixy, spec, scenes, filt):
                return get_backend("inline").run(fixy, spec, scenes, filt)

        try:
            assert "loopback" in available_backends()
            spec = AuditSpec(kind="tracks", top_k=3, backend="loopback")
            scenes = random_scenes(seed=1, n_scenes=1)
            result = Audit(spec, fixy=api_fixy).run(scenes=scenes)
            assert result.provenance.backend == "loopback"
            assert signature(result) == signature(
                Audit(spec, fixy=api_fixy).run(scenes=scenes, backend="inline")
            )
        finally:
            _BACKENDS.pop("loopback", None)

    def test_backend_is_context_manager(self, api_fixy, tcp_workers):
        spec = AuditSpec(kind="tracks")
        scenes = random_scenes(seed=2, n_scenes=1)
        with get_backend("remote", workers=list(tcp_workers)) as backend:
            ranked = backend.run(api_fixy, spec, scenes, None)
        inline = get_backend("inline").run(api_fixy, spec, scenes, None)
        assert [s.to_dict("tracks") for s in ranked] == [
            s.to_dict("tracks") for s in inline
        ]

    def test_spec_backend_options_recorded(self, api_fixy, tcp_workers):
        options = {"workers": list(tcp_workers), "timeout": 30.0}
        spec = AuditSpec(
            kind="tracks", backend="remote", backend_options=options
        )
        scenes = random_scenes(seed=5, n_scenes=3)
        with Audit(spec, fixy=api_fixy) as audit:
            remote = audit.run(scenes=scenes)  # spec's backend + options
            # Overriding the backend drops the spec's options (they
            # belong to the spec's declared backend).
            inline = audit.run(scenes=scenes, backend="inline")
        assert remote.provenance.backend_options == options
        assert inline.provenance.backend_options == {}
        assert signature(remote) == signature(inline)
