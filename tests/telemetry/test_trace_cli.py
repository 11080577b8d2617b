"""``python -m repro.trace`` CLI tests: formats, targets, exit codes."""

from __future__ import annotations

import json
import textwrap

import numpy as np
import pytest

import repro
from repro.config import FlorConfig
from repro.record.recorder import record_source
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.serializer import snapshot_value
from repro.telemetry import current_document, get_metrics, get_tracer
from repro.trace import main

SCRIPT = textwrap.dedent("""
    import numpy as np
    from repro import api as flor

    state = np.zeros(8, dtype='float32')
    for epoch in range(4):
        for _step in range(1):
            state = state + 1.0
        flor.log("loss", float(state.sum()))
""")


@pytest.fixture()
def traced_run(tmp_path):
    config = FlorConfig(home=tmp_path / "flor_home", telemetry=True)
    repro.set_config(config)
    result = record_source(SCRIPT, name="traced", config=config)
    yield result.run_id
    repro.reset_config()


class TestTraceCLI:
    def test_table_output_for_a_run(self, traced_run, capsys):
        assert main([traced_run]) == 0
        out = capsys.readouterr().out
        assert "record.session" in out
        assert out.splitlines()[0].split() == \
            ["OFFSET", "DURATION", "PID", "NAME"]

    def test_chrome_output_is_valid_trace_json(self, traced_run, tmp_path):
        out_file = tmp_path / "trace.json"
        assert main([traced_run, "--format", "chrome",
                     "--output", str(out_file)]) == 0
        trace = json.loads(out_file.read_text(encoding="utf-8"))
        assert trace["traceEvents"]
        assert all(event["ph"] == "X" for event in trace["traceEvents"])
        categories = {event["cat"] for event in trace["traceEvents"]}
        assert {"record", "spool", "storage"} <= categories

    def test_chrome_trace_spans_record_through_query(self, traced_run,
                                                     tmp_path):
        """One document covering record, spool, storage, AND query seams."""
        probe = SCRIPT.replace(
            'flor.log("loss", float(state.sum()))',
            'flor.log("loss", float(state.sum()))\n'
            '    flor.log("norm", float(np.linalg.norm(state)))')
        repro.query(values="norm", runs=traced_run, source=probe)
        document_file = tmp_path / "document.json"
        document_file.write_text(json.dumps(current_document()),
                                 encoding="utf-8")
        out_file = tmp_path / "trace.json"
        assert main([str(document_file), "--format", "chrome",
                     "--output", str(out_file)]) == 0
        trace = json.loads(out_file.read_text(encoding="utf-8"))
        categories = {event["cat"] for event in trace["traceEvents"]}
        assert {"record", "spool", "storage", "query"} <= categories

    def test_file_target_round_trips(self, traced_run, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        main([traced_run, "--format", "chrome", "--output", str(out_file)])
        assert main([str(out_file), "--limit", "5"]) == 0
        assert "record.session" in capsys.readouterr().out

    def test_restore_chunk_reuse_shows_in_spans_and_counters(
            self, enabled_telemetry, tmp_path, capsys):
        """``storage.get`` spans and counters tell decoded from reused."""
        frozen = np.random.default_rng(0).standard_normal(4096)
        store = CheckpointStore(tmp_path / "run", chunking="fixed",
                                chunk_nbytes=1024)
        epochs = 3
        for epoch in range(epochs):
            store.put("train", epoch,
                      [snapshot_value("frozen", frozen),
                       snapshot_value("epoch", epoch)])
        recipes = [store.describe("train", epoch).recipe_digests()
                   for epoch in range(epochs)]
        enabled_telemetry.reset()
        get_metrics().reset()
        for epoch in range(epochs):
            store.get("train", epoch)
        store.close()

        gets = [span for span in get_tracer().spans()
                if span.name == "storage.get"]
        assert [span.attrs["chunks"] for span in gets] == \
            [len(recipe) for recipe in recipes]
        # Every chunk the previous restore held is copied, not decoded.
        expected_reused = [0] + [
            sum(digest in set(previous) for digest in recipe)
            for previous, recipe in zip(recipes, recipes[1:])]
        assert [span.attrs["reused"] for span in gets] == expected_reused
        assert all(reused > 0 for reused in expected_reused[1:])
        counters = get_metrics().snapshot()["counters"]
        assert counters["storage.read_chunks_reused"] == sum(expected_reused)
        assert counters["storage.read_chunks_decoded"] == \
            sum(map(len, recipes)) - sum(expected_reused)

        document_file = tmp_path / "document.json"
        document_file.write_text(json.dumps(current_document()),
                                 encoding="utf-8")
        assert main([str(document_file)]) == 0
        get_lines = [line for line in capsys.readouterr().out.splitlines()
                     if "storage.get" in line]
        assert len(get_lines) == epochs
        assert f"reused={expected_reused[-1]}" in get_lines[-1]

    def test_unknown_target_exits_2(self, flor_config, capsys):
        assert main(["definitely-not-a-run"]) == 2
        assert "neither a file nor a cataloged run" in \
            capsys.readouterr().err

    def test_run_without_telemetry_exits_2(self, flor_config, capsys):
        result = record_source(SCRIPT, name="dark", config=flor_config)
        assert main([result.run_id]) == 2
        assert "no persisted telemetry" in capsys.readouterr().err

    def test_empty_document_file_exits_1(self, flor_config, tmp_path,
                                         capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"schema": 1, "spans": []}),
                         encoding="utf-8")
        assert main([str(empty)]) == 1
        assert "(no spans)" in capsys.readouterr().out

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"neither\": true}", encoding="utf-8")
        assert main([str(bad)]) == 2
        capsys.readouterr()
