"""Tests for the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import checks
import layers
import run as bench_run
import workloads
from spans import NESTED, Span, Tracer, descendants, self_times

TINY = {
    "clone_cv": workloads.Size(source_s=30.0, items=4),
    "prep_lj": workloads.Size(source_s=40.0, items=0),
    "convert_cv": workloads.Size(source_s=0.0, items=4),
}


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("pipeline.run", 0.0, 10.0, None),
        Span("synthesis.batch_synthesize", 1.0, 7.0, 0),
        Span("synthesis.synthesize", 1.5, 4.0, 1),
        Span("adapters.tts.synthesize", 2.0, 3.5, 2),
        Span("synthesis.save_wav", 4.0, 5.0, 1),
        Span("corpus.write_common_voice", 8.0, 9.5, 0),
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.5, 1.0, 1.5, 1.0, 1.5])
    assert descendants(spans, 1) == [2, 3, 4]
    metrics = layers.span_metrics(spans, 0, n_sentences=1)
    assert metrics["pipeline.self_s"] == pytest.approx(2.5)
    assert metrics["pipeline.span_coverage"] == pytest.approx(0.75)
    # batch 6.0 minus TTS adapter 1.5 and WAV I/O 1.0
    assert metrics["synthesis.self_s"] == pytest.approx(3.5)
    assert metrics["adapters.tts_calls"] == 1
    assert metrics["synthesis.attempts_per_sentence"] == 1.0


def test_every_metric_table_entry_is_in_benchmark_json():
    spec = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert listed == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_inputs_follow_the_seed_and_keep_their_size():
    a = workloads.clone_sentences(1, 200)
    assert a == workloads.clone_sentences(1, 200)
    b = workloads.clone_sentences(2, 200)
    assert a != b
    assert len(set(a)) == 200
    assert sorted(map(len, a)) == sorted(map(len, b))
    durations = lambda seed: sorted(c["duration_s"] for c in workloads.convert_clips(seed, 200))
    assert durations(1) == durations(2)


def test_digest_ignores_clip_ids():
    pairs = [("एक", b"audio-1"), ("दो", b"audio-2")]
    assert checks.digest(pairs) == checks.digest(list(reversed(pairs)))
    assert checks.digest(pairs) != checks.digest([("एक", b"audio-2"), ("दो", b"audio-1")])


def _tiny_config(tmp_path: Path, name: str, tag: str, corpus: Path | None = None):
    from voiceforge import load_config

    run_dir = tmp_path / tag
    run_dir.mkdir()
    path = run_dir / "config.yaml"
    config = workloads.config_for(name, 3, TINY[name], run_dir / "dataset", corpus)
    workloads.write_config(path, config)
    return load_config(path)


def test_digest_does_not_depend_on_cache_directory(tmp_path, monkeypatch):
    from voiceforge import pipeline, read_common_voice

    found = []
    for tag in ("a", "b"):
        monkeypatch.setenv("VOICEFORGE_CACHE_DIR", str(tmp_path / f"cache_{tag}"))
        config = _tiny_config(tmp_path, "clone_cv", tag)
        pipeline.run(config)
        validation = pipeline.validate_dataset(config)
        outcome = checks.check_clone_cv(config, validation, list(config.generation.sentences))
        assert outcome.ok, outcome.problems
        ids = sorted(e.clip_id for e in read_common_voice(config.output.root))
        found.append((ids, outcome.digest))
    (ids_a, digest_a), (ids_b, digest_b) = found
    assert ids_a != ids_b  # clip ids follow the cache path ...
    assert digest_a == digest_b  # ... the digest does not


def test_traced_run_restores_every_wrapped_name(tmp_path, monkeypatch):
    from voiceforge import default_registry, pipeline

    monkeypatch.setenv("VOICEFORGE_CACHE_DIR", str(tmp_path / "cache"))
    before = dict(vars(pipeline))
    nested = {(m, a): getattr(sys.modules[m], a) for m, a in NESTED}
    tracer = Tracer()
    tracer.patch_pipeline(pipeline, sys.modules)
    assert vars(pipeline)["transcode"] is not before["transcode"]
    try:
        summary = tracer.call(
            "pipeline.run",
            pipeline.run,
            _tiny_config(tmp_path, "clone_cv", "t"),
            tracer.traced_registry(default_registry()),
        )
    finally:
        tracer.restore()
    assert summary.entries_written == TINY["clone_cv"].items
    assert dict(vars(pipeline)) == before
    assert {(m, a): getattr(sys.modules[m], a) for m, a in NESTED} == nested
    names = {s.name for s in tracer.spans}
    assert {"ingest.resample", "synthesis.save_wav", "adapters.tts.synthesize"} <= names


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_of_each_workload_passes_its_check(tmp_path, name):
    bench = bench_run.Bench(name, 5, TINY[name], tmp_path)
    bench.prepare()
    plain = bench.iteration(trace=False)
    traced = bench.iteration(trace=True)
    for result in (plain, traced):
        assert result["problems"] == []
        assert result["failed"] == 0
        assert result["audio_s_per_s"] > 0
    assert plain["digest"] == traced["digest"]
    assert set(traced["layers"]) == {
        n for n, _, _ in layers.PER_LAYER
    } - set(bench_run.SETUP_KEYS) - {"trace.overhead_frac"}
