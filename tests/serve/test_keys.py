"""Canonical job specs, cache keys, fingerprints, config round-trips."""

import json

import pytest

from repro.dist.scheduler import SplitConfig
from repro.eval.campaign import CampaignConfig
from repro.indverif.crs import CRSConfig
from repro.isa.arch import SMALL_PROFILE, TINY_PROFILE, ArchParams
from repro.serve.keys import JobSpec, canonical_json
from repro.uarch.versions import version_by_name


def _personality(name, var_decay=0.95, restart_base=100, phase=False, pre=False):
    return {
        "format": 1,
        "name": name,
        "var_decay": var_decay,
        "clause_decay": 0.999,
        "restart_base": restart_base,
        "default_phase": phase,
        "preprocess": pre,
        "blocked": pre,
    }


#: The six cube-worker solver personalities, as configs of that time
#: serialized them.
PERSONALITIES = [
    _personality("baseline"),
    _personality("preprocessed", pre=True),
    _personality("positive-phase", phase=True),
    _personality("rapid-restart", restart_base=16),
    _personality("slow-decay", var_decay=0.99),
    _personality("agile", var_decay=0.85, restart_base=32, phase=True),
]

#: Every setting SplitConfig has lost, at the default it had.
REMOVED_SETTINGS = {
    "strategy": "auto",
    "lookahead_depth": 2,
    "max_initial_cubes": 32,
    "max_resplit_depth": 4,
    "share_clauses": True,
    "share_max_lbd": 3,
    "share_queue_size": 1024,
    "configs": PERSONALITIES,
}


class TestConfigRoundTrips:
    """Every knob dataclass must round-trip through its canonical JSON."""

    def test_arch_params(self):
        for profile in (TINY_PROFILE, SMALL_PROFILE):
            data = json.loads(json.dumps(profile.to_json_dict()))
            assert ArchParams.from_json_dict(data) == profile

    def test_crs_config(self):
        config = CRSConfig(num_programs=7, seed=42, reuse_register_bias=0.5)
        data = json.loads(json.dumps(config.to_json_dict()))
        assert CRSConfig.from_json_dict(data) == config

    def test_split_config(self):
        config = SplitConfig(
            workers=3,
            cube_conflict_budget=None,
            prefer_input_prefixes=("instr_in",),
        )
        data = json.loads(json.dumps(config.to_json_dict()))
        assert SplitConfig.from_json_dict(data) == config

    def test_split_config_with_nested_portfolio(self):
        # The canonical dict of a config written before SplitConfig lost
        # its strategy, tuning and personality settings: all 11 keys, at
        # their defaults, the six worker personalities nested in their JSON
        # form.
        data = {
            "format": 1,
            "workers": 1,
            "strategy": "auto",
            "lookahead_depth": 2,
            "max_initial_cubes": 32,
            "cube_conflict_budget": 4000,
            "max_resplit_depth": 4,
            "share_clauses": True,
            "share_max_lbd": 3,
            "share_queue_size": 1024,
            "configs": PERSONALITIES,
            "prefer_input_prefixes": [],
        }
        assert SplitConfig.from_json_dict(json.loads(json.dumps(data))) == (
            SplitConfig()
        )

    def test_split_config_written_with_clause_sharing(self):
        # The canonical dict of a config written while pool workers still
        # shared learned clauses: four keys, sharing at its default.
        data = {
            "format": 1,
            "workers": 2,
            "cube_conflict_budget": 4000,
            "share_clauses": True,
            "prefer_input_prefixes": [],
        }
        assert SplitConfig.from_json_dict(json.loads(json.dumps(data))) == (
            SplitConfig(workers=2)
        )
        assert len(SplitConfig().to_json_dict()) == 4  # format + 3 fields

    @pytest.mark.parametrize(
        "key, value",
        [
            ("strategy", "portfolio"),
            ("max_resplit_depth", 3),
            ("configs", PERSONALITIES[:1]),
            ("share_clauses", False),
            ("lookahead_depth", 3),
            ("max_initial_cubes", 64),
            ("share_max_lbd", 5),
            ("share_queue_size", 2048),
        ],
    )
    def test_split_config_refuses_a_removed_setting_off_its_default(
        self, key, value
    ):
        # Loading it as the default would silently run a different query.
        with pytest.raises(ValueError, match=key):
            SplitConfig.from_json_dict({"workers": 2, key: value})

    @pytest.mark.parametrize("key", sorted(REMOVED_SETTINGS))
    def test_split_config_takes_a_removed_setting_at_its_default(self, key):
        # A dict written while the setting existed loads as the config it
        # meant then, whichever of the removed keys it happens to carry.
        data = {"workers": 2, key: REMOVED_SETTINGS[key]}
        assert SplitConfig.from_json_dict(json.loads(json.dumps(data))) == (
            SplitConfig(workers=2)
        )

    def test_campaign_config_defaults_and_nested(self):
        config = CampaignConfig(
            bug_ids=["sra_zero_fill"],
            run_industrial_flow=False,
            split=SplitConfig(workers=2),
            max_conflicts_per_query=500,
        )
        data = json.loads(json.dumps(config.to_json_dict()))
        assert CampaignConfig.from_json_dict(data) == config
        # Defaults round-trip too (the empty dict is a valid wire form).
        assert CampaignConfig.from_json_dict({}) == CampaignConfig()


class TestFingerprint:
    def test_content_not_name(self):
        # Different RTL content => different fingerprint...
        assert (
            version_by_name("A.v3").fingerprint()
            != version_by_name("A.v4").fingerprint()
        )
        # ...but identical content shares one, even across version names:
        # the final B and C versions are bug-free builds of the same
        # feature set (single ROM + SATADD), i.e. the same netlist.
        assert (
            version_by_name("B.v6").fingerprint()
            == version_by_name("C.v6").fingerprint()
        )

    def test_arch_changes_fingerprint(self):
        version = version_by_name("A.v3")
        assert version.fingerprint(TINY_PROFILE) != version.fingerprint(
            SMALL_PROFILE
        )

    def test_memoized_and_deterministic(self):
        version = version_by_name("B.v2")
        assert version.fingerprint() == version.fingerprint()


class TestJobSpec:
    CONFIG = CampaignConfig(
        run_industrial_flow=False, run_directed_tests=False
    )

    def test_from_campaign_derives_the_plan(self):
        spec = JobSpec.from_campaign("wrport_collision", self.CONFIG)
        assert spec.version == "A.v3"
        assert spec.mode == "eddiv"
        assert spec.bound == 8
        assert spec.focus_opcodes == tuple(sorted(["LDI", "MOV", "INC", "ADD"]))
        assert len(spec.fingerprint) == 64
        assert "bug_ids" not in spec.config  # selection is not semantics

    def test_round_trip_preserves_key(self):
        spec = JobSpec.from_campaign("bz_flag_misread", self.CONFIG)
        clone = JobSpec.from_dict(json.loads(json.dumps(spec.canonical_dict())))
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()

    def test_semantically_identical_requests_collide(self):
        spec = JobSpec.from_campaign("wrport_collision", self.CONFIG)
        shuffled = JobSpec(
            bug_id=spec.bug_id,
            version=spec.version,
            fingerprint=spec.fingerprint,
            mode=spec.mode,
            focus_opcodes=tuple(reversed(spec.focus_opcodes)),
            bound=spec.bound,
            config=dict(reversed(list(spec.config.items()))),
        )
        assert shuffled.cache_key() == spec.cache_key()

    def test_default_spelling_collides(self):
        """An empty wire config and a fully spelled-out default config are
        the same job -- from_dict must normalize them to one key."""
        base = JobSpec.from_campaign("wrport_collision", CampaignConfig())
        explicit = base.canonical_dict()
        terse = dict(explicit)
        terse["config"] = {}
        assert (
            JobSpec.from_dict(terse).cache_key()
            == JobSpec.from_dict(explicit).cache_key()
            == base.cache_key()
        )

    def test_unknown_config_keys_still_distinguish(self):
        base = JobSpec.from_campaign("wrport_collision", CampaignConfig())
        tagged = base.canonical_dict()
        tagged["config"] = dict(tagged["config"], experiment="x1")
        assert JobSpec.from_dict(tagged).cache_key() != base.cache_key()

    def test_validate_derived_rejects_lying_specs(self):
        spec = JobSpec.from_campaign("wrport_collision", self.CONFIG)
        spec.validate_derived()  # the honest spec passes
        lying = JobSpec(
            bug_id=spec.bug_id,
            version="B.v1",
            fingerprint=spec.fingerprint,
            mode=spec.mode,
            focus_opcodes=spec.focus_opcodes,
            bound=999,
            config=spec.config,
        )
        with pytest.raises(ValueError, match="misdescribes"):
            lying.validate_derived()

    def test_key_sensitivity(self):
        base = JobSpec.from_campaign("wrport_collision", self.CONFIG)
        deeper = JobSpec.from_campaign(
            "wrport_collision",
            CampaignConfig(
                run_industrial_flow=False,
                run_directed_tests=False,
                extra_bound=1,
            ),
        )
        budgeted = JobSpec.from_campaign(
            "wrport_collision",
            CampaignConfig(
                run_industrial_flow=False,
                run_directed_tests=False,
                max_conflicts_per_query=100,
            ),
        )
        keys = {base.cache_key(), deeper.cache_key(), budgeted.cache_key()}
        assert len(keys) == 3
        assert deeper.bound == base.bound + 1

    def test_fingerprint_is_part_of_the_key(self):
        spec = JobSpec.from_campaign("wrport_collision", self.CONFIG)
        tampered = JobSpec(
            bug_id=spec.bug_id,
            version=spec.version,
            fingerprint="0" * 64,
            mode=spec.mode,
            focus_opcodes=spec.focus_opcodes,
            bound=spec.bound,
            config=spec.config,
        )
        assert tampered.cache_key() != spec.cache_key()

    def test_unresolved_spec_refuses_to_key(self):
        spec = JobSpec.from_campaign(
            "wrport_collision", self.CONFIG, resolve_fingerprint=False
        )
        with pytest.raises(ValueError, match="fingerprint"):
            spec.cache_key()
        resolved = spec.resolved()
        assert resolved.fingerprint
        assert resolved.cache_key()

    def test_campaign_config_round_trip(self):
        spec = JobSpec.from_campaign("sra_zero_fill", self.CONFIG)
        rebuilt = spec.campaign_config()
        expected = CampaignConfig.from_json_dict(self.CONFIG.to_json_dict())
        rebuilt_dict = rebuilt.to_json_dict()
        expected_dict = expected.to_json_dict()
        rebuilt_dict.pop("bug_ids"), expected_dict.pop("bug_ids")
        assert canonical_json(rebuilt_dict) == canonical_json(expected_dict)
