"""Unit tests for the metrics registry and its wire formats."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    parse_prometheus,
    process_metrics,
    reset_process_metrics,
)
from repro.obs.trace import capture


class TestRecording:
    def test_counters_accumulate_per_label_set(self):
        registry = MetricsRegistry()
        registry.inc("requests_total")
        registry.inc("requests_total", 2.0)
        registry.inc("requests_total", status="500")
        assert registry.counter_value("requests_total") == 3.0
        assert registry.counter_value("requests_total", status="500") == 1.0
        assert registry.counter_value("absent_total") == 0.0

    def test_gauges_take_last_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 5.0)
        registry.set_gauge("depth", 2.0)
        assert "depth 2" in registry.render_prometheus()

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        registry.observe("wait_seconds", 0.03)
        registry.observe("wait_seconds", 7.0)
        text = registry.render_prometheus()
        parsed = parse_prometheus(text)
        # 0.03 lands at le=0.05 and every wider bucket; 7.0 first at le=10.
        assert parsed['wait_seconds_bucket{le="0.025"}'] == 0
        assert parsed['wait_seconds_bucket{le="0.05"}'] == 1
        assert parsed['wait_seconds_bucket{le="10"}'] == 2
        assert parsed['wait_seconds_bucket{le="+Inf"}'] == 2
        assert parsed["wait_seconds_count"] == 2
        assert parsed["wait_seconds_sum"] == pytest.approx(7.03)

    def test_observation_above_every_bound_only_counts_inf(self):
        registry = MetricsRegistry()
        registry.observe("wait_seconds", DEFAULT_BUCKETS[-1] + 1.0)
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed[f'wait_seconds_bucket{{le="{int(DEFAULT_BUCKETS[-1])}"}}'] == 0
        assert parsed['wait_seconds_bucket{le="+Inf"}'] == 1


class TestSnapshotsAndMerge:
    def test_merge_adds_counters_and_histograms(self):
        child = MetricsRegistry()
        child.inc("conflicts_total", 10.0)
        child.observe("stage_seconds", 0.2, stage="solve")
        parent = MetricsRegistry()
        parent.inc("conflicts_total", 5.0)
        parent.merge(child.snapshot())
        parent.merge(child.snapshot())
        assert parent.counter_value("conflicts_total") == 25.0
        parsed = parse_prometheus(parent.render_prometheus())
        assert parsed['stage_seconds_count{stage="solve"}'] == 2

    def test_merge_overwrites_gauges(self):
        child = MetricsRegistry()
        child.set_gauge("depth", 9.0)
        parent = MetricsRegistry()
        parent.set_gauge("depth", 1.0)
        parent.merge(child.snapshot())
        assert "depth 9" in parent.render_prometheus()

    def test_capture_ships_only_the_delta(self):
        registry = process_metrics()
        registry.inc("jobs_total", 4.0)
        registry.observe("wait_seconds", 0.1)
        with capture() as batch:
            process_metrics().inc("jobs_total", 2.0)
            process_metrics().observe("wait_seconds", 0.2)
        receiver = MetricsRegistry()
        receiver.merge(batch["metrics"])
        assert receiver.counter_value("jobs_total") == 2.0
        parsed = parse_prometheus(receiver.render_prometheus())
        assert parsed["wait_seconds_count"] == 1
        assert parsed["wait_seconds_sum"] == pytest.approx(0.2)
        # The delta was merged back: the process registry saw it all.
        assert process_metrics() is registry
        assert registry.counter_value("jobs_total") == 6.0

    def test_capture_of_no_work_ships_an_empty_delta(self):
        process_metrics().inc("jobs_total")
        with capture() as batch:
            pass
        assert batch["metrics"]["counters"] == {}
        assert batch["metrics"]["histograms"] == {}


class TestRenderingAndParsing:
    def test_render_is_deterministic(self):
        registry = MetricsRegistry()
        registry.inc("b_total", 1.0, z="1", a="2")
        registry.inc("a_total")
        assert registry.render_prometheus() == registry.render_prometheus()
        lines = registry.render_prometheus().splitlines()
        assert lines[0] == "# TYPE a_total counter"
        assert 'b_total{a="2",z="1"} 1' in lines

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus("justonetoken")

    def test_parse_skips_comments_and_blanks(self):
        parsed = parse_prometheus("# HELP x\n\nx_total 3\n")
        assert parsed == {"x_total": 3.0}


class TestProcessRegistry:
    def test_process_registry_is_ambient_and_resettable(self):
        process_metrics().inc("ambient_total")
        assert process_metrics().counter_value("ambient_total") == 1.0
        fresh = reset_process_metrics()
        assert fresh is process_metrics()
        assert process_metrics().counter_value("ambient_total") == 0.0


class TestParseRenderRoundTrip:
    """``parse_prometheus(render_prometheus())`` recovers every sample."""

    def test_histogram_round_trip_including_inf_bucket(self):
        registry = MetricsRegistry()
        observations = (0.003, 0.04, 2.5, 99.0, 12345.0)
        for value in observations:
            registry.observe("solve_seconds", value)
        parsed = parse_prometheus(registry.render_prometheus())
        # +Inf bucket == _count == number of observations; the cumulative
        # bucket counts are non-decreasing up to it.
        assert parsed['solve_seconds_bucket{le="+Inf"}'] == len(observations)
        assert parsed["solve_seconds_count"] == len(observations)
        assert parsed["solve_seconds_sum"] == pytest.approx(
            sum(observations)
        )
        counts = [
            parsed[f'solve_seconds_bucket{{le="{bound:g}"}}']
            for bound in DEFAULT_BUCKETS
            if f'solve_seconds_bucket{{le="{bound:g}"}}' in parsed
        ]
        assert counts  # %g must match the rendered bucket bounds
        assert counts == sorted(counts)
        assert all(
            count <= len(observations) for count in counts
        )

    def test_every_bucket_line_parses_back(self):
        registry = MetricsRegistry()
        registry.observe("wait_seconds", 0.5, kind="queue")
        parsed = parse_prometheus(registry.render_prometheus())
        bucket_keys = [
            key for key in parsed if key.startswith("wait_seconds_bucket")
        ]
        # one line per DEFAULT_BUCKETS bound plus the +Inf bucket
        assert len(bucket_keys) == len(DEFAULT_BUCKETS) + 1
        assert all('kind="queue"' in key for key in bucket_keys)

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        tricky = 'he said "hi" \\ back'
        registry.inc("events_total", 2.0, msg=tricky)
        text = registry.render_prometheus()
        # escaped on the wire...
        assert '\\"hi\\"' in text and "\\\\" in text
        parsed = parse_prometheus(text)
        key = 'events_total{msg="he said \\"hi\\" \\\\ back"}'
        assert parsed[key] == 2.0

    def test_zero_count_series_render_and_parse(self):
        registry = MetricsRegistry()
        registry.inc("errors_total", 0.0)
        registry.set_gauge("depth", 0.0, queue="main")
        parsed = parse_prometheus(registry.render_prometheus())
        # a zero-valued series is a real sample, not an omitted one
        assert parsed["errors_total"] == 0.0
        assert parsed['depth{queue="main"}'] == 0.0

    def test_round_trip_is_stable_under_reparse(self):
        registry = MetricsRegistry()
        registry.inc("a_total", 3.0, k="v")
        registry.observe("h_seconds", 1.5)
        registry.set_gauge("g", 7.25)
        text = registry.render_prometheus()
        first = parse_prometheus(text)
        second = parse_prometheus(text)
        assert first == second
        assert first["g"] == 7.25
