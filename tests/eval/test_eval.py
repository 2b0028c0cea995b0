"""Tests for the effort model, campaign plumbing and report formatting."""

import pytest

from repro.eval import (
    EffortModel,
    FOCUS_SETS,
    PersonTime,
    detection_breakdown,
    design_inventory,
    format_table,
    runtime_statistics,
    setup_effort_table,
    solver_reuse_statistics,
)
from repro.eval.campaign import (
    BugDetectionRecord,
    CampaignError,
    CampaignResult,
)
from repro.eval import CampaignConfig, detect_bug, run_campaign
from repro.uarch.bugs import BUGS


class TestEffortModel:
    def test_unit_conversions(self):
        assert PersonTime.months(1).days == 21
        assert PersonTime.weeks(2).days == 10
        assert PersonTime.hours(8).days == 1

    def test_headline_factors_match_paper(self):
        factors = EffortModel().headline_factors()
        # Paper: >8X for the initial design, ~60X for subsequent designs.
        assert 8.0 <= factors["initial"] <= 10.0
        assert 40.0 <= factors["subsequent"] <= 65.0

    def test_table1_rows(self):
        rows = setup_effort_table()
        techniques = [row["technique"] for row in rows]
        assert "Symbolic QED" in techniques
        assert any("Improvement" in t for t in techniques)

    def test_fig7_breakdown_sums_to_eight_weeks(self):
        breakdown = EffortModel().qed_setup_breakdown()
        total = sum(item.person_weeks for _, item in breakdown)
        assert total == pytest.approx(8.0)

    def test_describe_uses_natural_units(self):
        assert "person-months" in PersonTime.months(3).describe()
        assert "person-weeks" in PersonTime.weeks(2).describe()
        assert "person-days" in PersonTime(2).describe()


class TestReports:
    def test_design_inventory_has_sixteen_rows(self):
        rows = design_inventory()
        assert len(rows) == 16
        table = format_table(rows, ["version", "rom_interface", "bugs_present"])
        assert "A.v3" in table

    def test_focus_sets_cover_every_bug(self):
        assert set(FOCUS_SETS) == {bug.bug_id for bug in BUGS}

    def test_runtime_statistics(self):
        stats = runtime_statistics([2.0, 4.0, 6.0])
        assert stats == {"min": 2.0, "avg": 4.0, "max": 6.0}
        assert runtime_statistics([]) is None

    def test_detection_breakdown_percentages(self):
        # Synthetic campaign with the paper's detection pattern.
        records = []
        for bug in BUGS:
            record = BugDetectionRecord(bug_id=bug.bug_id, version_name="X")
            record.detected_by[bug.primary_feature] = True
            record.crs_detected = bug.detected_by_crs
            records.append(record)
        breakdown = detection_breakdown(CampaignResult(records=records))
        assert breakdown["total_bugs"] == 14
        assert breakdown["symbolic_qed_detected"] == 14
        assert breakdown["industrial_flow_detected"] == 13
        assert breakdown["qed_unique_bugs"] == ["cmpi_carry_spec"]
        assert breakdown["qed_vs_industrial_percent"] == pytest.approx(107.7, abs=0.1)
        percent = breakdown["feature_breakdown_percent"]
        assert percent["eddiv"] == pytest.approx(35.7, abs=0.1)
        assert percent["qed_cf"] == pytest.approx(28.6, abs=0.1)
        assert percent["qed_mem"] == pytest.approx(7.1, abs=0.1)
        assert percent["single_i"] == pytest.approx(28.6, abs=0.1)

    def test_solver_reuse_throughput_is_total_propagations_over_solve_time(
        self,
    ):
        records = []
        for propagations, seconds, reused in ((3000, 1.0, 0), (9000, 2.0, 5)):
            record = BugDetectionRecord(bug_id="b", version_name="X")
            record.qed_solver_conflicts = 10
            record.qed_learned_clauses = 7
            record.qed_learned_clauses_reused = reused
            record.qed_solver_propagations = propagations
            record.qed_solve_seconds = seconds
            records.append(record)
        stats = solver_reuse_statistics(CampaignResult(records=records))
        assert stats["conflicts"] == 20
        assert stats["learned_clauses"] == 14
        assert stats["learned_clauses_reused"] == 5
        assert stats["throughput"] == {
            "propagations": 12000,
            "solve_seconds": 3.0,
            "propagations_per_second": 4000.0,
        }
        # No solver time (every query answered before the solver ran):
        # the ratio reads 0, not a division error.
        empty = solver_reuse_statistics(CampaignResult(records=[]))
        assert empty["throughput"]["propagations_per_second"] == 0.0


class TestParallelCampaign:
    """Fanning out over several workers must not change what the campaign
    records."""

    BUG_IDS = ["sra_zero_fill", "cmpi_carry_spec"]

    @staticmethod
    def _comparable(record):
        """Every field except the wall-clock measurements."""
        return {
            "bug_id": record.bug_id,
            "version_name": record.version_name,
            "detected_by": dict(record.detected_by),
            "qed_counterexample_cycles": record.qed_counterexample_cycles,
            "qed_solver_conflicts": record.qed_solver_conflicts,
            "qed_learned_clauses": record.qed_learned_clauses,
            "qed_variables_eliminated": record.qed_variables_eliminated,
            "qed_clauses_subsumed": record.qed_clauses_subsumed,
            "crs_detected": record.crs_detected,
            "ocsfv_detected": record.ocsfv_detected,
            "dst_detected": record.dst_detected,
        }

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(bug_ids=self.BUG_IDS), workers=0)

    def test_parallel_records_match_serial(self):
        # Industrial-flow baselines are covered elsewhere; skipping them
        # keeps this tier-1 test in the sub-second-per-job range.
        config = CampaignConfig(
            bug_ids=self.BUG_IDS,
            run_industrial_flow=False,
            run_directed_tests=False,
        )
        serial = run_campaign(config, workers=1)
        parallel = run_campaign(config, workers=2)
        assert [self._comparable(r) for r in serial.records] == [
            self._comparable(r) for r in parallel.records
        ]
        # Deterministic merge: records come back in bug-selection order.
        assert [r.bug_id for r in parallel.records] == self.BUG_IDS

    def test_failed_job_raises_naming_the_bug(self, monkeypatch):
        from repro.serve import queue as serve_queue

        def broken(bug_id, config, **kwargs):
            raise ValueError(f"no harness for {bug_id}")

        # The solver child forks after the patch, so it runs ``broken``.
        monkeypatch.setattr(serve_queue, "detect_bug", broken)
        config = CampaignConfig(
            bug_ids=self.BUG_IDS[:1],
            run_industrial_flow=False,
            run_directed_tests=False,
        )
        with pytest.raises(CampaignError) as failure:
            run_campaign(config)
        message = str(failure.value)
        assert repr(self.BUG_IDS[0]) in message
        assert f"ValueError: no harness for {self.BUG_IDS[0]}" in message

    def test_detect_bug_matches_campaign_record(self):
        config = CampaignConfig(
            bug_ids=self.BUG_IDS[:1],
            run_industrial_flow=False,
            run_directed_tests=False,
        )
        campaign = run_campaign(config)
        single = detect_bug(self.BUG_IDS[0], config)
        assert self._comparable(campaign.records[0]) == self._comparable(single)
