"""One measured iteration, run in a fresh process started by run.py.

    python3 perfbench/child.py {prepare|setup|run} SPEC_JSON

`prepare` writes the convert_cv input corpus. `setup` times only the
set-up. `run` times the set-up, then one `voiceforge.pipeline.run`
(traced when the spec says so), then checks the output. The result is
written as JSON to the spec's `result` path. Nothing here imports
voiceforge before the set-up clock starts.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def setup(spec: dict):
    t0 = time.perf_counter()
    import voiceforge

    t1 = time.perf_counter()
    registry = voiceforge.default_registry()
    t2 = time.perf_counter()
    config = voiceforge.load_config(spec["config"])
    t3 = time.perf_counter()
    times = {
        "setup_s": t3 - t0,
        "voiceforge.import_s": t1 - t0,
        "adapters.registry_s": t2 - t1,
        "config.load_s": t3 - t2,
    }
    return registry, config, times


def cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(spec: dict) -> dict:
    registry, config, setup_times = setup(spec)
    from voiceforge import pipeline

    import checks
    from layers import span_metrics
    from spans import Tracer

    tracer = Tracer() if spec["trace"] else None
    run_registry = registry
    if tracer:
        tracer.patch_pipeline(pipeline, sys.modules)
        run_registry = tracer.traced_registry(registry)
    summary, error = None, None
    cpu0 = cpu_s()
    t0 = time.perf_counter()
    try:
        if tracer:
            summary = tracer.call("pipeline.run", pipeline.run, config, run_registry)
        else:
            summary = pipeline.run(config, run_registry)
    except Exception as exc:  # the run failed: all its items count as failed
        error = repr(exc)
    finally:
        wall = time.perf_counter() - t0
        cpu = cpu_s() - cpu0
        if tracer:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    t_validate = time.perf_counter()
    try:
        validation = pipeline.validate_dataset(config, registry)
    except Exception as exc:  # reported by the check, or as a known defect
        validation = exc
    validate_s = time.perf_counter() - t_validate

    workload = spec["workload"]
    if workload == "clone_cv":
        outcome = checks.check_clone_cv(config, validation, list(config.generation.sentences))
    elif workload == "prep_lj":
        outcome = checks.check_prep_lj(config, summary)
    else:
        outcome = checks.check_convert_cv(config)
    if error:
        outcome.problems.insert(0, f"pipeline.run raised {error}")

    result = {
        "ok": outcome.ok,
        "problems": outcome.problems[:5],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "audio_s": outcome.audio_s,
        "audio_s_per_s": outcome.audio_s / wall,
        "validate_error": repr(validation) if isinstance(validation, Exception) else "",
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        **setup_times,
    }
    if tracer:
        root = next(i for i, s in enumerate(tracer.spans) if s.name == "pipeline.run")
        layer = span_metrics(tracer.spans, root, len(config.generation.sentences))
        journal = pipeline.work_dir_for(config.output.root) / "synth" / "journal.jsonl"
        dataset = [p for p in Path(config.output.root).rglob("*") if p.is_file()]
        quality = summary.quality if summary else None
        checked = len(quality.per_clip) if quality else 0
        layer.update(
            {
                "synthesis.journal_lines": (
                    len(journal.read_text(encoding="utf-8").splitlines()) if journal.is_file() else 0
                ),
                "corpus.bytes_written": sum(p.stat().st_size for p in dataset),
                "corpus.files_written": len(dataset),
                "quality.pass_ratio": (
                    (checked - len(quality.failing_clip_ids())) / checked if checked else 0.0
                ),
                "pipeline.validate_s": 0.0 if isinstance(validation, Exception) else validate_s,
            }
        )
        result["layers"] = layer
        result["span_table"] = span_table(tracer.spans)
        result["spans_file"] = spec["spans"]
        Path(spec["spans"]).write_text(
            json.dumps([[s.name, s.start, s.end, s.parent, s.items] for s in tracer.spans]),
            encoding="utf-8",
        )
    return result


def span_table(spans) -> list[list]:
    """[name, calls, total s, self s] per span name, in order of first call."""
    from spans import self_times

    table: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, [span.name, 0, 0.0, 0.0])
        row[1] += 1
        row[2] += span.end - span.start
        row[3] += own
    return list(table.values())


def prepare(spec: dict) -> dict:
    """Write the convert_cv input corpus and the model files conversion expects."""
    from voiceforge import (
        AudioClip,
        AudioFormat,
        CorpusEntry,
        SplitSpec,
        transcode,
        write_common_voice,
    )
    from voiceforge.adapters.mocks import MockTranscodeAdapter
    from voiceforge.corpus import client_id_for

    transcoder = MockTranscodeAdapter()
    rate = spec["rate_hz"]
    entries, audio = [], {}
    for clip in spec["clips"]:
        samples = speech(round(clip["duration_s"] * rate), rate, clip["wave_seed"])
        encoded = transcode(AudioClip(samples=samples, sample_rate_hz=rate), AudioFormat.MP3, transcoder)
        audio[clip["clip_id"]] = encoded
        entries.append(
            CorpusEntry(
                clip_id=clip["clip_id"],
                relative_audio_path=f"clips/{clip['clip_id']}.mp3",
                sentence=clip["sentence"],
                client_id=client_id_for(f"speaker-{clip['wave_seed'] % 7}"),
                locale="hi",
            )
        )
    split = SplitSpec(**spec["split"])
    write_common_voice(entries, audio, spec["corpus"], split)
    for name in spec["model_files"]:
        Path(name).write_bytes(b"")
    return {"ok": True}


def speech(n: int, rate: int, seed: int):
    """Harmonic voiced stretches of 0.5-2 s separated by 0.1-0.3 s of silence."""
    import numpy as np

    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    f0 = rng.uniform(100.0, 220.0)
    wave = 0.5 * np.sin(2 * np.pi * f0 * t) + 0.2 * np.sin(4 * np.pi * f0 * t + rng.uniform(0, 6.28))
    voiced = np.zeros(n, dtype=bool)
    pos = 0
    while pos < n:
        length = int(rng.uniform(0.5, 2.0) * rate)
        voiced[pos : pos + length] = True
        pos += length + int(rng.uniform(0.1, 0.3) * rate)
    return (0.6 * wave * voiced).astype(np.float32)


def main() -> None:
    mode, spec_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if mode == "prepare":
        result = prepare(spec)
    elif mode == "setup":
        result = setup(spec)[2]
    else:
        result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
