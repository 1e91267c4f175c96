"""Tests for the ``spllift obs`` subcommands, the trace-file error
contract, and batch progress/event-log wiring."""

import json

import pytest

from repro.cli import main
from repro.obs.flight import FlightRecorder
from repro.spl.examples import FIGURE1_SOURCE


@pytest.fixture
def dump_file(tmp_path):
    recorder = FlightRecorder(capacity=16)
    recorder.note_job({"label": "fig1", "analysis": "taint"})
    recorder.span_begin("pool/task")
    recorder.record("pulse", "ide/phase1", pops=256)
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(recorder.dump("timeout after 5s")))
    return str(path)


@pytest.fixture
def crash_manifest(tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({
        "jobs": [
            {"source": FIGURE1_SOURCE, "analysis": "taint", "label": "fig1"},
            {
                "source": FIGURE1_SOURCE,
                "analysis": "uninit",
                "label": "fig1",
                "options": {"_test_crash_always": True},
            },
        ]
    }))
    return str(path)


def metrics_file(tmp_path, name, counters, gauges=None, histograms=None):
    path = tmp_path / name
    path.write_text(json.dumps({
        "schema": "spllift-metrics/v1",
        "metrics": {
            "counters": counters,
            "gauges": gauges or {},
            "histograms": histograms or {},
        },
    }))
    return str(path)


class TestPostmortem:
    def test_renders_raw_dump(self, dump_file, capsys):
        rc = main(["obs", "postmortem", dump_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reason: timeout after 5s" in out
        assert "in-flight job: fig1" in out
        assert "pool/task" in out

    def test_renders_crash_report(self, crash_manifest, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main([
            "batch", crash_manifest, "--no-store", "--retries", "0",
            "--report", str(report),
        ])
        assert rc == 1  # the crashing job fails
        capsys.readouterr()
        rc = main(["obs", "postmortem", str(report)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "worker crashed (exit code -9" in out
        assert "analysis=uninit" in out
        assert "open spans at death" in out

    def test_error_contract_on_bad_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "nope"}')
        rc = main(["obs", "postmortem", str(bogus)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("spllift: error:")
        assert len(err.strip().splitlines()) == 1

    def test_error_contract_on_missing_file(self, tmp_path, capsys):
        rc = main(["obs", "postmortem", str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("spllift: error:")


class TestObsDiff:
    def test_ok_within_threshold(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {"ide.jumps": 100})
        b = metrics_file(tmp_path, "b.json", {"ide.jumps": 105})
        rc = main(["obs", "diff", a, b])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out

    def test_identical_snapshots_pass(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {"ide.jumps": 100})
        b = metrics_file(tmp_path, "b.json", {"ide.jumps": 100})
        rc = main(["obs", "diff", a, b])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out
        assert main(["obs", "diff", a, a]) == 0

    def test_drift_fails(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {"ide.jumps": 100})
        b = metrics_file(tmp_path, "b.json", {"ide.jumps": 200})
        rc = main(["obs", "diff", a, b])
        out = capsys.readouterr().out
        assert rc == 1
        assert "DRIFT" in out

    def test_injected_drift_fails(self, tmp_path, capsys):
        """The CI self-test: a 50% counter blowup must exit nonzero and
        name the counter."""
        a = metrics_file(
            tmp_path, "a.json", {"ide.jumps": 1000, "bdd.apply_cache_misses": 400}
        )
        b = metrics_file(
            tmp_path, "b.json", {"ide.jumps": 1500, "bdd.apply_cache_misses": 400}
        )
        rc = main(["obs", "diff", a, b, "--threshold", "0.1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ide.jumps" in out
        assert "DRIFT" in out

    def test_drift_within_threshold_passes(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {"ide.jumps": 1000})
        b = metrics_file(tmp_path, "b.json", {"ide.jumps": 1049})
        assert main(["obs", "diff", a, b, "--threshold", "0.05"]) == 0

    def test_large_drop_also_fails(self, tmp_path, capsys):
        """A silent work drop is as suspicious as a blowup."""
        a = metrics_file(tmp_path, "a.json", {"ide.jumps": 1000})
        b = metrics_file(tmp_path, "b.json", {"ide.jumps": 100})
        assert main(["obs", "diff", a, b]) == 1

    def test_threshold_override_by_pattern(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {"ide.jumps": 100})
        b = metrics_file(tmp_path, "b.json", {"ide.jumps": 200})
        rc = main([
            "obs", "diff", a, b, "--threshold-for", "ide.*=2.0",
        ])
        assert rc == 0

    def test_per_counter_threshold_override(self, tmp_path, capsys):
        a = metrics_file(
            tmp_path, "a.json", {"bdd.apply_calls": 100, "ide.jumps": 100}
        )
        b = metrics_file(
            tmp_path, "b.json", {"bdd.apply_calls": 140, "ide.jumps": 100}
        )
        # 40% over a 10% default fails...
        assert main(["obs", "diff", a, b]) == 1
        # ...but a bdd.* override admits it without loosening ide.jumps.
        assert main(["obs", "diff", a, b, "--threshold-for", "bdd.*=0.5"]) == 0
        drifted = metrics_file(
            tmp_path, "c.json", {"bdd.apply_calls": 140, "ide.jumps": 200}
        )
        assert main(
            ["obs", "diff", a, drifted, "--threshold-for", "bdd.*=0.5"]
        ) == 1

    def test_most_specific_override_wins(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {"bdd.apply_calls": 100})
        b = metrics_file(tmp_path, "b.json", {"bdd.apply_calls": 140})
        rc = main([
            "obs", "diff", a, b,
            "--threshold-for", "bdd.*=0.5",
            "--threshold-for", "bdd.apply_calls=0.1",
        ])
        assert rc == 1

    def test_missing_key_fails_unless_allowed(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {"ide.jumps": 10})
        b = metrics_file(tmp_path, "b.json", {})
        assert main(["obs", "diff", a, b]) == 1
        assert main(["obs", "diff", a, b, "--allow-missing"]) == 0

    def test_missing_key_named_in_diff(self, tmp_path, capsys):
        """A one-sided counter must be named, not skipped or crashed on."""
        a = metrics_file(
            tmp_path, "a.json", {"ide.jumps": 10, "datalog.rules_fired": 7}
        )
        b = metrics_file(tmp_path, "b.json", {"ide.jumps": 10})
        rc = main(["obs", "diff", a, b])
        out = capsys.readouterr().out
        assert rc == 1
        assert "datalog.rules_fired: missing from current" in out
        assert "MISSING" in out
        assert "1 missing" in out

    def test_missing_key_printed_under_quiet(self, tmp_path, capsys):
        """--quiet must still surface what failed the gate."""
        a = metrics_file(tmp_path, "a.json", {"datalog.iterations": 3})
        b = metrics_file(tmp_path, "b.json", {})
        rc = main(["obs", "diff", a, b, "--quiet"])
        assert rc == 1
        assert "datalog.iterations: missing from current" in capsys.readouterr().out

    def test_missing_from_baseline_also_reported(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {})
        b = metrics_file(tmp_path, "b.json", {"datalog.strata": 1})
        rc = main(["obs", "diff", a, b])
        assert rc == 1
        assert "datalog.strata: missing from baseline" in capsys.readouterr().out

    def test_allow_missing_not_marked_as_violation(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {"ide.jumps": 10})
        b = metrics_file(tmp_path, "b.json", {})
        rc = main(["obs", "diff", a, b, "--allow-missing"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out
        assert "MISSING" not in out  # reported, not flagged

    def test_only_and_ignore_filters(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {"ide.jumps": 100, "noise.value": 1})
        b = metrics_file(tmp_path, "b.json", {"ide.jumps": 100, "noise.value": 99})
        assert main(["obs", "diff", a, b]) == 1
        assert main(["obs", "diff", a, b, "--only", "ide.*"]) == 0
        assert main(["obs", "diff", a, b, "--ignore", "noise.*"]) == 0

    def test_gauges_and_histograms_compared(self, tmp_path, capsys):
        a = metrics_file(
            tmp_path,
            "a.json",
            {},
            gauges={"bdd.unique_load_factor": 0.5},
            histograms={"span.solve": {"count": 4, "mean": 1.0}},
        )
        b = metrics_file(
            tmp_path,
            "b.json",
            {},
            gauges={"bdd.unique_load_factor": 0.95},
            histograms={"span.solve": {"count": 4, "mean": 2.0}},
        )
        rc = main(["obs", "diff", a, b])
        out = capsys.readouterr().out
        assert rc == 1
        assert "bdd.unique_load_factor" in out
        # Histogram means are derived, not gated; counts are.
        assert "span.solve.count" in out

    def test_real_snapshot_roundtrip(self, tmp_path, capsys):
        """A snapshot produced by the live registry gates against itself."""
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.inc("ide.jumps", 42)
        registry.gauge("bdd.unique_load_factor", 0.25)
        registry.observe("solve.seconds", 1.5)
        path = tmp_path / "live.json"
        path.write_text(json.dumps({
            "schema": "spllift-metrics/v1",
            "metrics": registry.describe(),
        }))
        assert main(["obs", "diff", str(path), str(path)]) == 0

    def test_error_contract(self, tmp_path, capsys):
        a = metrics_file(tmp_path, "a.json", {"ide.jumps": 1})
        rc = main(["obs", "diff", a, str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("spllift: error:")

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        good = metrics_file(tmp_path, "good.json", {})
        rc = main(["obs", "diff", str(bad), good])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("spllift: error:")
        assert len(err.strip().splitlines()) == 1  # no traceback


class TestObsTail:
    def test_renders_formatted_lines(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text(
            '{"ts": 1.0, "level": "info", "event": "job.start", "pid": 7}\n'
            '{"ts": 2.0, "level": "error", "event": "job.failed", "pid": 7}\n'
        )
        rc = main(["obs", "tail", str(log)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "job.start" in out
        assert "job.failed" in out
        assert "pid=7" in out

    def test_lines_limit(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text("".join(
            json.dumps({"ts": float(i), "event": f"e{i}"}) + "\n"
            for i in range(10)
        ))
        rc = main(["obs", "tail", str(log), "--lines", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "e9" in out and "e7" in out
        assert "e6" not in out

    def test_error_contract_on_missing_file(self, tmp_path, capsys):
        rc = main(["obs", "tail", str(tmp_path / "nope.jsonl")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("spllift: error:")


class TestTraceErrorContract:
    def test_empty_trace_file(self, tmp_path, capsys):
        empty = tmp_path / "trace.json"
        empty.write_text("")
        rc = main(["trace", "summary", str(empty)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("spllift: error:")
        assert len(err.strip().splitlines()) == 1  # no traceback

    def test_truncated_trace_file(self, tmp_path, capsys):
        torn = tmp_path / "trace.json"
        torn.write_text('[\n{"name": "solve", "ph": "B", "ts": 1,')
        rc = main(["trace", "summary", str(torn), "--folded"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("spllift: error:")


class TestBatchObservability:
    def test_progress_line_on_stderr(self, crash_manifest, tmp_path, capsys):
        manifest = tmp_path / "ok.json"
        manifest.write_text(json.dumps({
            "jobs": [
                {"source": FIGURE1_SOURCE, "analysis": "taint",
                 "label": "fig1"},
            ]
        }))
        rc = main(["batch", str(manifest), "--no-store", "--progress"])
        err = capsys.readouterr().err
        assert rc == 0
        assert "batch" in err
        assert "wave" in err
        assert "jobs" in err

    def test_log_records_batch_lifecycle(self, tmp_path, capsys):
        from repro.obs.log import iter_log

        manifest = tmp_path / "ok.json"
        manifest.write_text(json.dumps({
            "jobs": [
                {"source": FIGURE1_SOURCE, "analysis": "taint",
                 "label": "fig1"},
            ]
        }))
        log = tmp_path / "events.jsonl"
        rc = main([
            "batch", str(manifest), "--no-store", "--log", str(log),
        ])
        assert rc == 0
        events = [r["event"] for r in iter_log(log)]
        assert events[0] == "batch.start"
        assert events[-1] == "batch.done"
        assert "job.start" in events
        assert "job.computed" in events
        run_ids = {r.get("run_id") for r in iter_log(log)}
        assert len(run_ids) == 1 and None not in run_ids
