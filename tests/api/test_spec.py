"""DeploymentSpec: validation, presets, and lossless round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    PRESETS,
    AutoscaleSpec,
    DeploymentSpec,
    SchedulerSpec,
    ServingSpec,
    SpecValidationError,
    TelemetrySpec,
    TopologySpec,
)
from repro.api.serialization import dumps_json, dumps_toml, tomllib
from repro.core.seeding import SeedPolicy


class TestValidation:
    def test_default_spec_is_valid(self):
        assert DeploymentSpec().validate() == []
        assert DeploymentSpec().check() is not None

    @pytest.mark.parametrize("name, _", PRESETS)
    def test_presets_are_valid(self, name, _):
        spec = DeploymentSpec.preset(name)
        assert spec.validate() == []
        assert spec.name == name

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown preset"):
            DeploymentSpec.preset("planetary")

    def test_shard_divisibility_is_cross_checked(self):
        spec = DeploymentSpec(topology=TopologySpec(cluster_scale=3, shards=2))
        issues = spec.validate()
        assert [issue.path for issue in issues] == ["topology.cluster_scale"]
        assert "divisible" in issues[0].message

    def test_all_errors_reported_at_once_with_paths(self):
        spec = DeploymentSpec(
            name="",
            topology=TopologySpec(cluster_scale=0, shards=0),
            scheduler=SchedulerSpec(rescheduling_interval_s=-1.0, default_energy_weight=2.0),
            serving=ServingSpec(max_batch_size=0, flush_tick_s=0.0),
            autoscale=AutoscaleSpec(enabled=True, scale_up_utilisation=1.5),
            telemetry=TelemetrySpec(enabled=False),
        )
        with pytest.raises(SpecValidationError) as excinfo:
            spec.check()
        paths = {issue.path for issue in excinfo.value.issues}
        # One raise carries every layer's problems, path-tagged.
        assert {
            "name",
            "topology.cluster_scale",
            "topology.shards",
            "scheduler.rescheduling_interval_s",
            "scheduler.default_energy_weight",
            "serving.max_batch_size",
            "serving.flush_tick_s",
            "autoscale.scale_up_utilisation",
            "telemetry.enabled",
        } <= paths

    def test_spec_validation_error_is_a_value_error(self):
        # Callers that guarded the kwarg facade with ValueError keep working.
        with pytest.raises(ValueError):
            DeploymentSpec(topology=TopologySpec(cluster_scale=-1)).check()

    def test_autoscale_requires_telemetry(self):
        spec = DeploymentSpec(autoscale=AutoscaleSpec(enabled=True))
        paths = [issue.path for issue in spec.validate()]
        assert "telemetry.enabled" in paths
        # The same sections with telemetry on are fine.
        assert DeploymentSpec.preset("autoscaled").validate() == []

    def test_cooldown_shorter_than_control_interval_is_rejected(self):
        spec = DeploymentSpec(
            autoscale=AutoscaleSpec(
                enabled=True, control_interval_s=5.0, scale_up_cooldown_s=1.0
            ),
            telemetry=TelemetrySpec(enabled=True),
        )
        paths = [issue.path for issue in spec.validate()]
        assert "autoscale.scale_up_cooldown_s" in paths
        # Disabled autoscaling does not enforce the cross-section rule.
        relaxed = DeploymentSpec(
            autoscale=AutoscaleSpec(
                enabled=False, control_interval_s=5.0, scale_up_cooldown_s=1.0
            )
        )
        assert relaxed.validate() == []

    def test_unknown_grow_model_is_rejected(self):
        spec = DeploymentSpec(
            autoscale=AutoscaleSpec(
                enabled=True, grow_node_models=("xeon-d-x86", "quantum-box")
            ),
            telemetry=TelemetrySpec(enabled=True),
        )
        messages = [str(issue) for issue in spec.validate()]
        assert any("quantum-box" in message for message in messages)

    def test_seed_policy_validates_at_construction(self):
        with pytest.raises(ValueError):
            SeedPolicy(shard_stride=0)
        with pytest.raises(ValueError):
            SeedPolicy(probe_stride=-5)


class TestSectionConversions:
    def test_scheduler_spec_heats_config_round_trip(self):
        config = SchedulerSpec(
            rescheduling_interval_s=30.0, migration_improvement_threshold=0.2
        ).to_heats_config()
        assert config.rescheduling_interval_s == 30.0
        spec = SchedulerSpec.from_heats_config(config, score_cache=False)
        assert spec.rescheduling_interval_s == 30.0
        assert not spec.score_cache

    def test_serving_spec_batch_policy_round_trip(self):
        policy = ServingSpec(max_batch_size=4, max_delay_s=1.0).to_batch_policy()
        assert policy.max_batch_size == 4
        assert ServingSpec.from_batch_policy(policy).max_delay_s == 1.0

    def test_autoscale_spec_config_round_trip(self):
        spec = AutoscaleSpec(enabled=True, max_shards=6)
        config = spec.to_config()
        assert config.max_shards == 6
        assert AutoscaleSpec.from_config(config, enabled=True) == spec


class TestDictRoundTrip:
    def test_to_dict_from_dict_identity(self):
        spec = DeploymentSpec.preset("federated")
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec

    def test_missing_sections_default(self):
        spec = DeploymentSpec.from_dict({"name": "partial"})
        assert spec == DeploymentSpec(name="partial")

    def test_unknown_section_and_field_report_paths(self):
        with pytest.raises(SpecValidationError) as excinfo:
            DeploymentSpec.from_dict(
                {
                    "warp_drive": {},
                    "topology": {"cluster_scale": 2, "warp_factor": 9},
                    "scheduler": {"score_cache": "yes"},
                }
            )
        paths = {issue.path for issue in excinfo.value.issues}
        assert paths == {"warp_drive", "topology.warp_factor", "scheduler.score_cache"}

    def test_type_errors_are_path_tagged(self):
        with pytest.raises(SpecValidationError) as excinfo:
            DeploymentSpec.from_dict(
                {
                    "name": 7,
                    "serving": {"max_batch_size": 2.5},
                    "autoscale": {"grow_node_models": [1, 2]},
                    "telemetry": {"enabled": 1},
                }
            )
        paths = {issue.path for issue in excinfo.value.issues}
        assert paths == {
            "name",
            "serving.max_batch_size",
            "autoscale.grow_node_models",
            "telemetry.enabled",
        }

    def test_integers_coerce_to_float_fields(self):
        # TOML/JSON authors write `max_delay_s = 2`; that must not fail.
        spec = DeploymentSpec.from_dict({"serving": {"max_delay_s": 2}})
        assert spec.serving.max_delay_s == 2.0
        assert isinstance(spec.serving.max_delay_s, float)

    def test_bad_seed_policy_reported_with_path(self):
        with pytest.raises(SpecValidationError) as excinfo:
            DeploymentSpec.from_dict(
                {"topology": {"seed": {"shard_stride": 0}}}
            )
        assert any("topology" in issue.path for issue in excinfo.value.issues)


# Strategy: structurally valid specs with varied values, built through the
# constructors so equality after a round trip is exact.
_seed_policies = st.builds(
    SeedPolicy,
    base=st.integers(min_value=-(10**6), max_value=10**6),
    shard_stride=st.integers(min_value=1, max_value=10**4),
    probe_stride=st.integers(min_value=1, max_value=10**4),
)
_topologies = st.builds(
    TopologySpec,
    cluster_scale=st.integers(min_value=1, max_value=64),
    shards=st.integers(min_value=1, max_value=8),
    seed=_seed_policies,
)
_schedulers = st.builds(
    SchedulerSpec,
    rescheduling_interval_s=st.floats(min_value=0.5, max_value=600.0),
    migration_improvement_threshold=st.floats(min_value=0.0, max_value=0.99),
    default_energy_weight=st.floats(min_value=0.0, max_value=1.0),
    score_cache=st.booleans(),
    score_cache_capacity=st.integers(min_value=1, max_value=1 << 20),
)
_servings = st.builds(
    ServingSpec,
    max_batch_size=st.integers(min_value=1, max_value=256),
    max_delay_s=st.floats(min_value=0.0, max_value=60.0),
    memory_bucket_gib=st.floats(min_value=0.125, max_value=8.0),
    flush_tick_s=st.floats(min_value=0.05, max_value=5.0),
)
_autoscales = st.builds(
    AutoscaleSpec,
    enabled=st.booleans(),
    control_interval_s=st.floats(min_value=0.5, max_value=30.0),
    min_shards=st.integers(min_value=1, max_value=3),
    max_shards=st.integers(min_value=3, max_value=12),
    grow_node_models=st.sampled_from(
        [("xeon-d-x86",), ("arm64-server", "xeon-d-x86")]
    ),
)
_telemetries = st.builds(
    TelemetrySpec, enabled=st.booleans(), histogram_window=st.integers(2, 4096)
)
_specs = st.builds(
    DeploymentSpec,
    name=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
        min_size=1,
        max_size=12,
    ),
    topology=_topologies,
    scheduler=_schedulers,
    serving=_servings,
    autoscale=_autoscales,
    telemetry=_telemetries,
)


class TestSerializedRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(spec=_specs)
    def test_dict_round_trip_property(self, spec):
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=60, deadline=None)
    @given(spec=_specs)
    def test_json_round_trip_property(self, spec):
        assert DeploymentSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=60, deadline=None)
    @given(spec=_specs)
    def test_toml_round_trip_property(self, spec):
        if tomllib is None:
            pytest.skip("tomllib needs Python >= 3.11")
        assert DeploymentSpec.from_toml(spec.to_toml()) == spec

    def test_toml_document_parses_as_plain_toml(self):
        if tomllib is None:
            pytest.skip("tomllib needs Python >= 3.11")
        document = DeploymentSpec.preset("autoscaled").to_toml()
        parsed = tomllib.loads(document)
        assert parsed["autoscale"]["enabled"] is True
        assert parsed["topology"]["seed"]["base"] == 7


class TestRetiredFastPath:
    """``serving.fast_path`` was removed in 1.6: an old spec fails loudly."""

    @staticmethod
    def _old_spec_dict():
        data = DeploymentSpec().to_dict()
        data["serving"]["fast_path"] = False
        return data

    @staticmethod
    def _assert_rejected(excinfo):
        issues = [(issue.path, issue.message) for issue in excinfo.value.issues]
        assert issues == [("serving.fast_path", "unknown field")]

    def test_from_dict_rejects_fast_path(self):
        with pytest.raises(SpecValidationError) as excinfo:
            DeploymentSpec.from_dict({"serving": {"fast_path": False}})
        self._assert_rejected(excinfo)

    def test_json_round_trip_rejects_fast_path(self):
        with pytest.raises(SpecValidationError) as excinfo:
            DeploymentSpec.from_json(dumps_json(self._old_spec_dict()))
        self._assert_rejected(excinfo)

    def test_toml_round_trip_rejects_fast_path(self):
        if tomllib is None:
            pytest.skip("tomllib needs Python >= 3.11")
        document = dumps_toml(self._old_spec_dict())
        assert "fast_path = false" in document
        with pytest.raises(SpecValidationError) as excinfo:
            DeploymentSpec.from_toml(document)
        self._assert_rejected(excinfo)


class TestDiff:
    def test_default_spec_has_empty_diff(self):
        assert DeploymentSpec().diff() == {}

    def test_diff_reports_only_overridden_leaves(self):
        spec = DeploymentSpec(
            name="edge",
            topology=TopologySpec(cluster_scale=8, shards=4, seed=SeedPolicy(base=11)),
        )
        diff = spec.diff()
        assert diff["name"] == {"value": "edge", "baseline": "deployment"}
        assert diff["topology.cluster_scale"]["value"] == 8
        assert diff["topology.seed.base"] == {"value": 11, "baseline": 7}
        assert "scheduler.rescheduling_interval_s" not in diff
