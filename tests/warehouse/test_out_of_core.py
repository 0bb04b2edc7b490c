"""The warehouse equivalence property: out-of-core == in-memory, byte for
byte — inline and remote, cold sidecars and warm, pruned and full."""

import pytest

from repro.api import Audit, AuditSpec, SceneSource
from repro.serving import GatewayWorker
from repro.warehouse import ScenePredicate, SceneWarehouse

from tests.warehouse.conftest import build_corpus

KINDS = ("tracks", "bundles", "observations")


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(10)


@pytest.fixture()
def corpus_db(tmp_path, corpus):
    path = tmp_path / "corpus.db"
    with SceneWarehouse(path) as warehouse:
        for i, scene in enumerate(corpus):
            warehouse.ingest(
                scene, tags=("even",) if i % 2 == 0 else ("odd",)
            )
    return str(path)


def rendered(result):
    return [item.to_dict(result.spec.kind) for item in result.items]


def reference(fitted_fixy, corpus, kind, predicate=None):
    """The in-memory ground truth: resolve everything, rank inline."""
    scenes = corpus
    if predicate is not None:
        from repro.warehouse import scene_metadata

        tagged = [
            ("even",) if i % 2 == 0 else ("odd",) for i in range(len(corpus))
        ]
        scenes = [
            s
            for s, tags in zip(corpus, tagged)
            if predicate.matches(scene_metadata(s), set(tags))
        ]
    spec = AuditSpec(kind=kind, top_k=12)
    return rendered(Audit(spec, fixy=fitted_fixy).run(scenes=scenes))


@pytest.mark.parametrize("kind", KINDS)
def test_inline_out_of_core_byte_identity_cold_and_warm(
    fitted_fixy, corpus, corpus_db, kind
):
    expected = reference(fitted_fixy, corpus, kind)
    spec = AuditSpec(
        kind=kind, top_k=12, scenes=SceneSource(warehouse=corpus_db, batch=3)
    )

    cold = Audit(spec, fixy=fitted_fixy).run()
    assert rendered(cold) == expected
    stream = cold.provenance.stream
    assert stream["out_of_core"] is True
    assert stream["peak_resident_scenes"] <= 3
    assert stream["compile_cold"] == len(corpus)
    assert stream["compile_warm"] == 0

    warm = Audit(spec, fixy=fitted_fixy).run()
    assert rendered(warm) == expected
    stream = warm.provenance.stream
    assert stream["compile_cold"] == 0
    assert stream["compile_warm"] == len(corpus)
    assert stream["peak_resident_scenes"] <= 3


def test_pruned_audit_equals_pruned_in_memory(fitted_fixy, corpus, corpus_db):
    predicate = ScenePredicate.tag("even")
    expected = reference(fitted_fixy, corpus, "tracks", predicate)
    spec = AuditSpec(
        kind="tracks",
        top_k=12,
        scenes=SceneSource(
            warehouse=corpus_db, predicate=predicate, batch=4
        ),
    )
    result = Audit(spec, fixy=fitted_fixy).run()
    assert rendered(result) == expected
    stream = result.provenance.stream
    assert stream["corpus_scenes"] == len(corpus)
    assert stream["selected_scenes"] == len(corpus) // 2
    assert stream["pruned_scenes"] == len(corpus) - len(corpus) // 2


def test_pruning_never_drops_a_matching_scene(fitted_fixy, corpus, corpus_db):
    """Every scene the predicate accepts in a full scan contributes to
    the pruned audit exactly as it does to the in-memory audit over the
    full-scan selection — pruning is selection, never loss."""
    predicate = ScenePredicate.any_of(
        ScenePredicate.tag("odd"),
        ScenePredicate.range("n_tracks", low=4),
    )
    with SceneWarehouse(corpus_db, create=False) as warehouse:
        scan = [
            fp
            for fp, meta, tags in warehouse.iter_metadata()
            if predicate.matches(meta, tags)
        ]
        assert sorted(scan) == warehouse.query(predicate)
    expected = reference(fitted_fixy, corpus, "tracks", predicate)
    spec = AuditSpec(
        kind="tracks",
        top_k=12,
        scenes=SceneSource(warehouse=corpus_db, predicate=predicate),
    )
    result = Audit(spec, fixy=fitted_fixy).run()
    assert rendered(result) == expected
    assert result.provenance.stream["selected_scenes"] == len(scan)


def test_remote_out_of_core_byte_identity_mixed_pool(
    fitted_fixy, corpus, corpus_db
):
    """A warehouse-sharing worker and a plain worker in one pool: the
    sharing worker gets hashes only, the plain worker refills via need,
    and the merged ranking is byte-identical to inline in-memory."""
    expected = reference(fitted_fixy, corpus, "tracks")
    with GatewayWorker(
        fitted_fixy, warehouse=corpus_db
    ) as sharing, GatewayWorker(fitted_fixy) as plain:
        spec = AuditSpec(
            kind="tracks",
            top_k=12,
            scenes=SceneSource(warehouse=corpus_db, batch=4),
        ).with_backend(
            "remote", workers=[sharing.address, plain.address]
        )
        audit = Audit(spec, fixy=fitted_fixy)
        try:
            result = audit.run()
        finally:
            audit.close()
    assert rendered(result) == expected
    stream = result.provenance.stream
    assert stream["out_of_core"] is True
    assert stream["peak_resident_scenes"] == 0
    assert stream["warehouse_workers"] == 1
    workers = {w["worker"]: w for w in result.provenance.workers}
    assert len(workers) == 2


def test_remote_pruned_warm_rerun(fitted_fixy, corpus, corpus_db):
    predicate = ScenePredicate.tag("even")
    expected = reference(fitted_fixy, corpus, "bundles", predicate)
    with GatewayWorker(fitted_fixy, warehouse=corpus_db) as worker:
        spec = AuditSpec(
            kind="bundles",
            top_k=12,
            scenes=SceneSource(warehouse=corpus_db, predicate=predicate),
        ).with_backend("remote", workers=[worker.address])
        audit = Audit(spec, fixy=fitted_fixy)
        try:
            cold = audit.run()
            warm = audit.run()
        finally:
            audit.close()
    assert rendered(cold) == expected
    assert rendered(warm) == expected
    assert warm.provenance.stream["pruned_scenes"] == len(corpus) - len(
        corpus
    ) // 2
