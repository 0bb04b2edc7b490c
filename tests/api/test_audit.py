"""The Audit façade: engine binding, provenance, typed results."""

import json

import pytest

from repro.api import (
    Audit,
    AuditError,
    AuditProvenance,
    AuditResult,
    AuditSpec,
    FilterSpec,
    SceneSource,
    run_audit,
)
from repro.core import Fixy, default_features
from repro.core.scoring import ScoredItem

from tests.serving.conftest import build_training_scenes, model_scene


class TestBinding:
    def test_requires_a_model_source(self):
        with pytest.raises(AuditError, match="no model source"):
            Audit(AuditSpec(kind="tracks"))

    def test_binds_existing_engine(self, api_fixy):
        audit = Audit(AuditSpec(kind="tracks"), fixy=api_fixy)
        assert audit.fixy is api_fixy

    def test_fits_on_train_scenes(self):
        audit = Audit(
            AuditSpec(kind="tracks"), train_scenes=build_training_scenes()
        )
        assert audit.fixy.is_fitted

    def test_loads_model_path(self, api_fixy, tmp_path):
        path = tmp_path / "model.json"
        api_fixy.learned.save(path)
        audit = Audit(AuditSpec(kind="tracks", model_path=str(path)))
        assert audit.fixy.is_fitted
        assert (
            audit.fixy.learned.fingerprint() == api_fixy.learned.fingerprint()
        )
        # Same model → same ranking as the original engine.
        scene = model_scene("load", n_tracks=3)
        assert [
            s.to_dict("tracks") for s in audit.run(scenes=scene).items
        ] == [
            s.to_dict("tracks")
            for s in Audit(AuditSpec(kind="tracks"), fixy=api_fixy)
            .run(scenes=scene)
            .items
        ]

    def test_fits_profile_training_split_from_scene_source(self):
        spec = AuditSpec(
            kind="tracks",
            top_k=3,
            scenes=SceneSource(profile="internal", n_train=2, n_val=1),
        )
        result = Audit(spec).run()  # scenes resolved from the spec
        assert len(result.items) == 3
        assert result.provenance.n_scenes == 1
        assert "resolve_scenes_s" in result.provenance.timings

    def test_invalid_spec_rejected_at_bind(self, api_fixy):
        from repro.api import SpecValidationError

        with pytest.raises(SpecValidationError):
            Audit(AuditSpec(kind="tracks", top_k=-1), fixy=api_fixy)


class TestRun:
    def test_no_scenes_anywhere_is_an_error(self, api_fixy):
        with pytest.raises(AuditError, match="no scenes"):
            Audit(AuditSpec(kind="tracks"), fixy=api_fixy).run()

    def test_single_scene_accepted(self, api_fixy):
        result = Audit(AuditSpec(kind="tracks"), fixy=api_fixy).run(
            scenes=model_scene("one", n_tracks=2)
        )
        assert result.provenance.n_scenes == 1
        assert len(result.items) == 2

    def test_provenance_fields(self, api_fixy):
        spec = AuditSpec(kind="tracks", top_k=2)
        result = Audit(spec, fixy=api_fixy).run(scenes=model_scene("prov"))
        prov = result.provenance
        assert prov.backend == "inline"
        assert prov.spec_hash == spec.spec_hash()
        assert prov.model_fingerprint == api_fixy.learned.fingerprint()
        assert prov.api_version == 1
        assert prov.timings["rank_s"] <= prov.timings["total_s"]

    def test_run_audit_one_shot(self):
        result = run_audit(
            AuditSpec(
                kind="tracks",
                filters=FilterSpec(has_model=True),
                top_k=4,
            ),
            scenes=model_scene("oneshot", n_tracks=5),
            train_scenes=build_training_scenes(),
        )
        assert len(result.items) == 4

    def test_filters_applied(self, api_fixy):
        spec = AuditSpec(
            kind="tracks", filters=FilterSpec(has_human=True)
        )
        result = Audit(spec, fixy=api_fixy).run(
            scenes=model_scene("filtered", n_tracks=3)  # all model-only
        )
        assert result.items == []


class TestResult:
    def test_sequence_protocol(self, api_fixy):
        result = Audit(AuditSpec(kind="tracks"), fixy=api_fixy).run(
            scenes=model_scene("seq", n_tracks=3)
        )
        assert len(result) == 3
        assert list(result)[0] is result[0]
        assert isinstance(result[0], ScoredItem)

    def test_json_round_trip(self, api_fixy):
        spec = AuditSpec(kind="observations", top_k=5)
        result = Audit(spec, fixy=api_fixy).run(scenes=model_scene("rt"))
        clone = AuditResult.from_json(result.to_json())
        assert clone.spec == spec
        assert clone.provenance == result.provenance
        # Round-tripped items keep every wire field, bit-for-bit.
        assert [i.to_dict() for i in clone.items] == [
            i.to_dict(spec.kind) for i in result.items
        ]
        # Items lose the live object but keep the summary.
        assert clone.items[0].item is None
        assert clone.items[0].summary["obs_id"]
        assert clone.items[0].kind == "observation"
        # The whole payload is plain JSON.
        json.dumps(result.to_dict())

    def test_provenance_round_trip(self):
        prov = AuditProvenance(
            backend="remote",
            spec_hash="abc",
            model_fingerprint=None,
            n_scenes=3,
            api_version=1,
            timings={"rank_s": 0.5},
            backend_options={"workers": ["h:1", "h:2"]},
        )
        assert AuditProvenance.from_dict(prov.to_dict()) == prov


class TestEngineFacade:
    def test_fixy_audit_convenience(self):
        fixy = Fixy(default_features()).fit(build_training_scenes())
        result = fixy.audit(
            AuditSpec(kind="tracks", top_k=2),
            scenes=model_scene("facade", n_tracks=3),
            backend="session",
        )
        assert result.provenance.backend == "session"
        assert len(result.items) == 2
