"""Metric tables and the per-layer numbers derived from a traced run's spans."""

from __future__ import annotations

import math

from spans import Span, descendants, self_times

# (name, unit, better) for every metric the benchmark reports.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("audio_s_per_s", "s/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

MAXRSS_MODULES = (
    "ingest",
    "preprocess",
    "voiceprompt",
    "synthesis",
    "transcribe",
    "conversion",
    "quality",
    "corpus",
    "adapters",
)

PER_LAYER = (
    ("adapters.tts_s", "s", "lower"),
    ("adapters.tts_calls", "count", "lower"),
    ("synthesis.batch_s", "s", "lower"),
    ("synthesis.self_s", "s", "lower"),
    ("synthesis.tts_ms_p50", "ms", "lower"),
    ("synthesis.tts_ms_p95", "ms", "lower"),
    ("synthesis.attempts_per_sentence", "ratio", "lower"),
    ("synthesis.journal_lines", "count", "lower"),
    ("audio.wav_io_s", "s", "lower"),
    ("audio.wav_io_calls", "count", "lower"),
    ("ingest.acquire_s", "s", "lower"),
    ("ingest.decode_s", "s", "lower"),
    ("adapters.decoder_s", "s", "lower"),
    ("audio.resample_s", "s", "lower"),
    ("transcribe.transcribe_s", "s", "lower"),
    ("adapters.asr_s", "s", "lower"),
    ("transcribe.diarize_s", "s", "lower"),
    ("transcribe.slice_s", "s", "lower"),
    ("transcribe.segments", "count", "higher"),
    ("conversion.convert_s", "s", "lower"),
    ("adapters.vc_s", "s", "lower"),
    ("adapters.vc_calls", "count", "lower"),
    ("conversion.clip_ms_p50", "ms", "lower"),
    ("conversion.clip_ms_p95", "ms", "lower"),
    ("preprocess.transcode_s", "s", "lower"),
    ("preprocess.transcode_calls", "count", "lower"),
    ("adapters.transcode_s", "s", "lower"),
    ("corpus.write_s", "s", "lower"),
    ("corpus.read_s", "s", "lower"),
    ("corpus.bytes_written", "B", "lower"),
    ("corpus.files_written", "count", "lower"),
    ("voiceprompt.extract_s", "s", "lower"),
    ("adapters.codec_s", "s", "lower"),
    ("adapters.semantic_s", "s", "lower"),
    ("preprocess.segment_s", "s", "lower"),
    ("quality.gate_s", "s", "lower"),
    ("quality.clips_checked", "count", "higher"),
    ("quality.pass_ratio", "ratio", "higher"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.span_coverage", "ratio", "higher"),
    ("pipeline.validate_s", "s", "lower"),
    *((f"{module}.maxrss_after_mb", "MB", "lower") for module in MAXRSS_MODULES),
    ("trace.overhead_frac", "ratio", "lower"),
    ("voiceforge.import_s", "s", "lower"),
    ("adapters.registry_s", "s", "lower"),
    ("config.load_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

WAV_IO = ("synthesis.save_wav", "synthesis.load_wav")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def span_metrics(spans: list[Span], root: int, n_sentences: int) -> dict[str, float]:
    """Per-layer numbers from the spans below the `pipeline.run` span at `root`."""
    below = [spans[i] for i in descendants(spans, root)]

    def durations(*names: str) -> list[float]:
        return [s.end - s.start for s in below if s.name in names]

    def adapter_durations(*roles: str) -> list[float]:
        prefixes = tuple(f"adapters.{role}." for role in roles)
        return [s.end - s.start for s in below if s.name.startswith(prefixes)]

    def items(name: str) -> int:
        return sum(s.items or 0 for s in below if s.name == name)

    root_span = spans[root]
    wall = root_span.end - root_span.start
    own = self_times(spans)[root]
    tts = adapter_durations("tts")
    wav_io = durations(*WAV_IO)
    synth_calls = durations("synthesis.synthesize")
    convert = durations("conversion.convert_voice")

    # synthesis.self_s: batch time not spent in adapters or WAV I/O (which
    # never nest in one another).
    batches = [i for i in descendants(spans, root) if spans[i].name == "synthesis.batch_synthesize"]
    in_batch = [spans[j] for i in batches for j in descendants(spans, i)]
    synthesis_self = sum(spans[i].end - spans[i].start for i in batches) - sum(
        s.end - s.start for s in in_batch if s.name.startswith("adapters.") or s.name in WAV_IO
    )

    maxrss: dict[str, float] = {module: 0.0 for module in MAXRSS_MODULES}
    for s in below:
        module = s.name.split(".", 1)[0]
        if s.parent == root and module in maxrss:
            maxrss[module] = max(maxrss[module], s.maxrss_kb / 1024)

    return {
        "adapters.tts_s": sum(tts),
        "adapters.tts_calls": len(tts),
        "synthesis.batch_s": sum(durations("synthesis.batch_synthesize")),
        "synthesis.self_s": synthesis_self,
        "synthesis.tts_ms_p50": 1000 * percentile(synth_calls, 50),
        "synthesis.tts_ms_p95": 1000 * percentile(synth_calls, 95),
        "synthesis.attempts_per_sentence": len(synth_calls) / n_sentences if n_sentences else 0.0,
        "audio.wav_io_s": sum(wav_io),
        "audio.wav_io_calls": len(wav_io),
        "ingest.acquire_s": sum(durations("ingest.acquire_source")),
        "ingest.decode_s": sum(durations("ingest.decode_to_audio")),
        "adapters.decoder_s": sum(adapter_durations("decoder")),
        "audio.resample_s": sum(durations("ingest.resample")),
        "transcribe.transcribe_s": sum(durations("transcribe.transcribe")),
        "adapters.asr_s": sum(adapter_durations("asr")),
        "transcribe.diarize_s": sum(durations("transcribe.diarize")),
        "transcribe.slice_s": sum(durations("transcribe.slice_by_segments")),
        "transcribe.segments": items("transcribe.transcribe"),
        "conversion.convert_s": sum(convert),
        "adapters.vc_s": sum(adapter_durations("vc")),
        "adapters.vc_calls": len(adapter_durations("vc")),
        "conversion.clip_ms_p50": 1000 * percentile(convert, 50),
        "conversion.clip_ms_p95": 1000 * percentile(convert, 95),
        "preprocess.transcode_s": sum(durations("preprocess.transcode")),
        "preprocess.transcode_calls": len(durations("preprocess.transcode")),
        "adapters.transcode_s": sum(adapter_durations("transcode")),
        "corpus.write_s": sum(durations("corpus.write_common_voice", "corpus.write_lj")),
        "corpus.read_s": sum(durations("corpus.read_common_voice", "corpus.read_lj")),
        "voiceprompt.extract_s": sum(s.end - s.start for s in below if s.name.startswith("voiceprompt.")),
        "adapters.codec_s": sum(adapter_durations("codec")),
        "adapters.semantic_s": sum(adapter_durations("semantic_encoder", "token_quantizer")),
        "preprocess.segment_s": sum(durations("preprocess.segment")),
        "quality.gate_s": sum(durations("quality.validate_clip")),
        "quality.clips_checked": len(durations("quality.validate_clip")),
        "pipeline.self_s": own,
        "pipeline.span_coverage": 1.0 - own / wall if wall > 0 else 0.0,
        **{f"{module}.maxrss_after_mb": mb for module, mb in maxrss.items()},
    }
