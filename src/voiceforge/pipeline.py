"""Orchestration of the two corpus-building methodologies plus per-stage entry points.

Methodology 1 (bark_prompt): acquire -> decode -> optional passes -> segment
-> build speaker prompt -> batch-synthesize sentences -> quality gate ->
package as a dataset.

Methodology 2 (rvc_convert): without a trained model, prepare an LJ training
corpus (transcribe, diarize, slice) and emit the trainer config; with
model_ref/index_ref set, convert an existing corpus into the cloned voice
and package it as Common Voice.

Every run ends in `_package`, the one path from gated clips to a dataset.
All intermediate artifacts live in a `<output root>.work/` sibling so the
dataset tree contains exactly the deliverable files. Each run packages into
the staging dir of `corpus.publishing`, which swaps the finished tree in for
the root, so the root holds either the old tree or the new one, never a mix.
"""

from __future__ import annotations

import os
import shutil
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

from .adapters import AdapterRegistry, AdapterRole, default_registry
from .audio import AudioClip, decode_wav_pcm16, save_wav
from .config import Methodology, OutputFormat, PipelineConfig
from .conversion import convert_voice, validate_training_data, write_training_config
from .corpus import (
    QUALITY_REPORT_NAME,
    TRAINING_CONFIG_NAME,
    CommonVoiceWriter,
    CorpusEntry,
    LjWriter,
    _check_root,
    client_id_for,
    make_clip_id,
    publishing,
    read_common_voice,
    read_lj,
    work_dir_for,
)
from .errors import BatchError, ConfigurationError, DecodeError, StageError, ValidationError
from .ingest import CACHE_DIR_ENV, SourceKind, acquire_source, decode_to_audio
from .preprocess import (
    AudioFormat,
    denoise,
    segment,
    separate_vocals,
    transcode,
)
from .quality import ClipConstraints, Issue, QualityReport, Severity, validate_clip
from .synthesis import BatchResult, batch_synthesize, prompt_digest
from .transcribe import diarize, minority_speaker_fraction, slice_by_segments, transcribe
from .voiceprompt import (
    SpeakerPrompt,
    build_prompt,
    extract_codebooks,
    extract_semantic_tokens,
    save_prompt,
)

PROMPT_N_COARSE = 2
MULTI_SPEAKER_WARN_FRACTION = 0.1


@dataclass
class RunSummary:
    """What a pipeline run did, for logging and exit-code decisions."""

    methodology: str
    output_root: str
    clips_in: int = 0
    prompts_built: int = 0
    sentences_generated: int = 0
    entries_written: int = 0
    quality: QualityReport = field(default_factory=QualityReport)
    partial: bool = False
    messages: list[str] = field(default_factory=list)


def _cache_dir(work: Path) -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV) or work / "cache")


def _required_roles(config: PipelineConfig) -> list[AdapterRole]:
    roles: list[AdapterRole] = [AdapterRole.TRANSCODE]
    if config.methodology is Methodology.BARK_PROMPT:
        roles += [
            AdapterRole.DECODER,
            AdapterRole.CODEC,
            AdapterRole.SEMANTIC_ENCODER,
            AdapterRole.TOKEN_QUANTIZER,
            AdapterRole.TTS,
        ]
    elif config.conversion.model_ref is None:
        roles += [AdapterRole.DECODER, AdapterRole.ASR, AdapterRole.DIARIZATION]
    else:
        roles += [AdapterRole.VC]
    needs_source = not (
        config.methodology is Methodology.RVC_CONVERT and config.conversion.model_ref
    )
    if needs_source:
        if config.source.kind is SourceKind.REMOTE:
            roles.append(AdapterRole.DOWNLOADER)
        if config.preprocessing.denoise_strength is not None:
            roles.append(AdapterRole.DENOISE)
        if config.preprocessing.stems is not None:
            roles.append(AdapterRole.STEMS)
    return roles


def resolve_adapters(config: PipelineConfig, registry: AdapterRegistry) -> dict[AdapterRole, object]:
    """Fail-fast lookup of every adapter the configured run will touch."""
    return {role: registry.resolve(role, config.adapters[role]) for role in _required_roles(config)}


def _dataset_format(config: PipelineConfig) -> OutputFormat:
    """The layout a run writes: conversion always writes Common Voice."""
    if config.methodology is Methodology.RVC_CONVERT and config.conversion.model_ref is not None:
        return OutputFormat.COMMON_VOICE
    return config.output.format


def _clip_rate_hz(config: PipelineConfig, adapters: dict[AdapterRole, object]) -> int:
    """The rate every dataset clip must have: TTS native, training, or VC native."""
    if config.methodology is Methodology.BARK_PROMPT:
        return adapters[AdapterRole.TTS].native_rate_hz
    if config.conversion.model_ref is None:
        return config.training.target_sample_rate_hz
    return adapters[AdapterRole.VC].native_rate_hz


def plan(config: PipelineConfig) -> list[str]:
    """Human-readable stage list for --dry-run output."""
    steps: list[str] = [f"source: {config.source.uri} ({config.source.kind.value})"]
    pp = config.preprocessing
    if config.methodology is Methodology.BARK_PROMPT:
        steps.append("decode to codec native rate")
        if pp.denoise_strength is not None:
            steps.append(f"denoise at strength {pp.denoise_strength}")
        if pp.stems is not None:
            steps.append(f"isolate vocals ({pp.stems.value})")
        steps.append(
            f"segment into {pp.segmentation.target_len_s} s clips ({pp.segmentation.tail.value})"
        )
        steps.append(f"build speaker prompt ({PROMPT_N_COARSE} coarse codebooks)")
        steps.append(f"synthesize {len(config.generation.sentences)} sentences")
    elif config.conversion.model_ref is None:
        steps.append(f"decode to {config.training.target_sample_rate_hz} Hz")
        if pp.denoise_strength is not None:
            steps.append(f"denoise at strength {pp.denoise_strength}")
        if pp.stems is not None:
            steps.append(f"isolate vocals ({pp.stems.value})")
        steps.append(f"diarize and transcribe ({config.asr.language}, {config.asr.task.value})")
        steps.append("slice into per-sentence clips")
        steps.append(f"emit trainer config ({TRAINING_CONFIG_NAME})")
    else:
        steps.append(f"read input corpus {config.conversion.input_corpus}")
        steps.append(f"convert every clip with model {config.conversion.model_ref}")
    steps.append("quality-gate clips and write the quality report")
    steps.append(
        f"package as {_dataset_format(config).value} at {config.output.root} "
        f"(valid fraction {config.output.split.valid_fraction})"
    )
    return steps


def _acquire_decoded(
    config: PipelineConfig, adapters: dict[AdapterRole, object], work: Path, target_rate_hz: int
) -> AudioClip:
    downloader = adapters.get(AdapterRole.DOWNLOADER)
    handle = acquire_source(config.source, downloader, cache_dir=_cache_dir(work))
    clip = decode_to_audio(handle, target_rate_hz, adapters[AdapterRole.DECODER])
    pp = config.preprocessing
    if pp.denoise_strength is not None:
        clip = denoise(clip, pp.denoise_strength, adapters[AdapterRole.DENOISE])
    if pp.stems is not None:
        clip = separate_vocals(clip, pp.stems, adapters[AdapterRole.STEMS])
    return clip


def _read_dataset(config: PipelineConfig, root: Path) -> list[CorpusEntry]:
    if _dataset_format(config) is OutputFormat.COMMON_VOICE:
        return read_common_voice(root)
    return read_lj(root)


def _decode_clip(root: Path, entry: CorpusEntry, fmt: OutputFormat, transcoder) -> AudioClip:
    """Decode one clip of a dataset: MP3 through the transcoder, or LJ's PCM16 WAV."""
    payload = (root / entry.relative_audio_path).read_bytes()
    try:
        if fmt is OutputFormat.COMMON_VOICE:
            samples, rate = transcoder.decode(payload, AudioFormat.MP3.value)
        else:
            samples, rate = decode_wav_pcm16(payload)
    except Exception as exc:
        raise DecodeError(
            f"cannot decode {entry.relative_audio_path}: {exc}",
            stage="decode",
            source_id=entry.clip_id,
        ) from exc
    return AudioClip(samples=samples, sample_rate_hz=rate, source_id=entry.clip_id)


def _package(
    config: PipelineConfig,
    adapters: dict[AdapterRole, object],
    candidates: Iterable[tuple[CorpusEntry, AudioClip]],
    summary: RunSummary,
    staging: Path,
) -> list[float]:
    """Gate, transcode and write each clip into `staging`, then read it back.

    Returns the kept durations. Each clip is written as soon as it is
    transcoded and then dropped; only its entry stays. The dataset format
    alone decides the writer (and so the audio format, clip path and text
    rules), the reader, and how much of each entry the read-back must
    reproduce (LJ manifests keep only the path and sentence). A clip whose
    text the layout cannot hold fails with a `layout` issue and is skipped.
    """
    common_voice = _dataset_format(config) is OutputFormat.COMMON_VOICE
    writer = (CommonVoiceWriter if common_voice else LjWriter)(staging)
    constraints = ClipConstraints(required_rate_hz=_clip_rate_hz(config, adapters))
    transcoder = adapters[AdapterRole.TRANSCODE]
    durations: list[float] = []
    for entry, clip in candidates:
        issues = validate_clip(clip, constraints)
        passed = not any(issue.severity is Severity.FAIL for issue in issues)
        if passed:
            try:
                writer.check(entry)
            except ValidationError as exc:
                issues.append(Issue(code="layout", severity=Severity.FAIL, message=str(exc)))
                passed = False
        summary.quality.add(entry.clip_id, issues)
        if not passed:
            continue
        writer.add(entry, transcode(clip, writer.audio_format, transcoder))
        durations.append(clip.duration_s)
    entries = writer.entries
    if not entries:
        raise StageError("no clip passed quality gating", stage="quality")

    summary.entries_written = len(entries)
    summary.quality.metrics.update(
        {"clips_in": float(summary.clips_in), "entries_written": float(len(entries))}
    )
    writer.finish(config.output.split)

    def shown(e: CorpusEntry):
        return e if common_voice else (e.clip_id, e.relative_audio_path, e.sentence)

    by_id = lambda e: e.clip_id
    written = [shown(e) for e in sorted(entries, key=by_id)]
    if written != [shown(e) for e in sorted(_read_dataset(config, staging), key=by_id)]:
        raise StageError(
            f"read-back of {staging} does not match the written manifest", stage="package"
        )
    return durations


def _numbered(
    config: PipelineConfig, source_id: str, speaker_ref: str, pairs: Iterable[tuple[str, AudioClip]]
) -> Iterator[tuple[CorpusEntry, AudioClip]]:
    """Turn one source's (sentence, clip) pairs, in order, into `_package` candidates."""
    for i, (sentence, clip) in enumerate(pairs):
        yield CorpusEntry(
            clip_id=make_clip_id(source_id, i),
            relative_audio_path="",
            sentence=sentence,
            client_id=client_id_for(speaker_ref),
            locale=config.output.locale,
        ), clip


def _segments(
    config: PipelineConfig, adapters: dict[AdapterRole, object], work: Path, rate_hz: int
) -> tuple[AudioClip, list[AudioClip]]:
    """Acquire and decode the source at `rate_hz`, run the optional passes, segment it."""
    source_clip = _acquire_decoded(config, adapters, work, rate_hz)
    return source_clip, segment(source_clip, config.preprocessing.segmentation)


def _speaker_prompt(
    config: PipelineConfig, adapters: dict[AdapterRole, object], work: Path
) -> tuple[str, int, SpeakerPrompt, Path]:
    """Build the prompt from the source's first segment and save it under `work`.

    Returns the source id, the segment count, the prompt and its path.
    """
    codec = adapters[AdapterRole.CODEC]
    source_clip, segments = _segments(config, adapters, work, codec.native_rate_hz)
    if not segments:
        raise StageError(
            f"source ({source_clip.duration_s:.1f} s) yields no full "
            f"{config.preprocessing.segmentation.target_len_s} s segment",
            stage="segment",
            source_id=source_clip.source_id,
        )
    fine, _ = extract_codebooks(segments[0], codec, PROMPT_N_COARSE)
    semantic = extract_semantic_tokens(
        segments[0],
        adapters[AdapterRole.SEMANTIC_ENCODER],
        adapters[AdapterRole.TOKEN_QUANTIZER],
    )
    prompt = build_prompt(semantic, fine, PROMPT_N_COARSE, source_clip.source_id)
    assets = work / "assets"
    assets.mkdir(parents=True, exist_ok=True)
    path = assets / f"prompt_{prompt_digest(prompt)}.npz"
    save_prompt(prompt, path)
    return source_clip.source_id, len(segments), prompt, path


def _m1_generate(
    config: PipelineConfig,
    adapters: dict[AdapterRole, object],
    summary: RunSummary,
    resume: bool,
) -> tuple[str, str, BatchResult]:
    """Shared front half of methodology 1: acquire through batch synthesis.

    Returns the source id, the prompt digest and the batch.
    """
    work = work_dir_for(config.output.root)
    synth_dir = work / "synth"
    if not resume and synth_dir.exists():
        shutil.rmtree(synth_dir)
    work.mkdir(parents=True, exist_ok=True)

    source_id, summary.clips_in, prompt, _ = _speaker_prompt(config, adapters, work)
    summary.prompts_built = 1

    batch = batch_synthesize(
        list(config.generation.sentences),
        prompt,
        config.generation.params,
        adapters[AdapterRole.TTS],
        config.adapters[AdapterRole.TTS],
        work_dir=synth_dir,
        retries=config.generation.retries,
    )
    summary.sentences_generated = len(batch.clips)
    summary.partial = not batch.complete
    for sentence, cause in batch.failures.items():
        summary.messages.append(f"failed sentence {sentence[:40]!r}: {cause}")
    return source_id, prompt_digest(prompt), batch


def synth_stage(
    config: PipelineConfig,
    registry: AdapterRegistry | None = None,
    resume: bool = False,
) -> RunSummary:
    """Generate (or resume generating) the batch clips without packaging them."""
    if config.methodology is not Methodology.BARK_PROMPT:
        raise ConfigurationError("the synth stage applies to methodology: bark_prompt")
    registry = registry or default_registry()
    adapters = resolve_adapters(config, registry)
    summary = RunSummary(methodology=config.methodology.value, output_root=config.output.root)
    _m1_generate(config, adapters, summary, resume)
    return summary


def run_methodology_1(
    config: PipelineConfig,
    registry: AdapterRegistry | None = None,
    resume: bool = False,
) -> RunSummary:
    """Prompted-TTS corpus generation; with `resume`, clips already in the work dir are reused."""
    if config.methodology is not Methodology.BARK_PROMPT:
        raise ConfigurationError("run_methodology_1 requires methodology: bark_prompt")
    registry = registry or default_registry()
    adapters = resolve_adapters(config, registry)
    summary = RunSummary(methodology=config.methodology.value, output_root=config.output.root)
    source_id, pid, batch = _m1_generate(config, adapters, summary, resume)
    candidates = _numbered(config, source_id, pid, batch.load())
    with publishing(config.output.root) as staging:
        durations = _package(config, adapters, candidates, summary, staging)
        summary.quality.metrics.update(
            {
                "sentences_requested": float(len(config.generation.sentences)),
                "sentences_generated": float(len(batch.clips)),
                "mean_clip_duration_s": sum(durations) / len(durations),
            }
        )
        summary.quality.save(staging / QUALITY_REPORT_NAME)
    return summary


def _prepare_lj_training_set(
    config: PipelineConfig, adapters: dict[AdapterRole, object], summary: RunSummary
) -> None:
    source_clip = _acquire_decoded(
        config, adapters, work_dir_for(config.output.root), config.training.target_sample_rate_hz
    )
    turns = diarize(source_clip, adapters[AdapterRole.DIARIZATION])
    minority = minority_speaker_fraction(turns)
    if minority > MULTI_SPEAKER_WARN_FRACTION:
        summary.messages.append(
            f"diarization found {minority:.0%} of speech from non-dominant speakers; "
            "the training set assumes one voice"
        )
    segments = transcribe(source_clip, config.asr, adapters[AdapterRole.ASR])
    pairs = slice_by_segments(source_clip, segments)
    summary.clips_in = len(pairs)
    if not pairs:
        raise StageError(
            "transcription produced no speech segments",
            stage="transcribe",
            source_id=source_clip.source_id,
        )

    source_id = source_clip.source_id
    candidates = _numbered(config, source_id, source_id, ((text, clip) for clip, text in pairs))
    with publishing(config.output.root) as staging:
        total_s = float(sum(_package(config, adapters, candidates, summary, staging)))
        summary.messages.extend(validate_training_data(total_s))
        summary.quality.metrics["total_speech_s"] = total_s
        write_training_config(config.training, staging / TRAINING_CONFIG_NAME)
        summary.quality.save(staging / QUALITY_REPORT_NAME)
    summary.messages.append(
        f"training corpus and {TRAINING_CONFIG_NAME} written to {config.output.root}; "
        "train a model on it, then set conversion.model_ref and conversion.index_ref "
        "to run the conversion phase"
    )


def _convert_corpus(
    config: PipelineConfig, adapters: dict[AdapterRole, object], summary: RunSummary
) -> None:
    conv = config.conversion
    assert conv.model_ref and conv.index_ref and conv.input_corpus
    input_root = Path(conv.input_corpus)
    input_entries = read_common_voice(input_root)
    summary.clips_in = len(input_entries)
    if not input_entries:
        raise StageError(f"input corpus {input_root} has no entries", stage="convert")

    transcoder, vc = adapters[AdapterRole.TRANSCODE], adapters[AdapterRole.VC]

    def converted() -> Iterator[tuple[CorpusEntry, AudioClip]]:
        """Decode and convert one clip at a time; a clip that fails is only skipped."""
        causes: dict[str, str] = {}
        for entry in input_entries:
            try:
                clip = _decode_clip(input_root, entry, OutputFormat.COMMON_VOICE, transcoder)
                clip = convert_voice(clip, conv.model_ref, conv.index_ref, conv.params, vc)
            except StageError as exc:
                causes[entry.clip_id] = str(exc)
                summary.messages.append(f"failed clip {entry.clip_id}: {exc}")
                summary.partial = True
                continue
            locale = entry.locale or config.output.locale
            yield replace(entry, client_id=client_id_for(conv.model_ref), locale=locale), clip
        if len(causes) == len(input_entries):
            raise BatchError("every clip failed conversion", causes=causes, stage="convert")

    with publishing(config.output.root) as staging:
        _package(config, adapters, converted(), summary, staging)
        summary.quality.save(staging / QUALITY_REPORT_NAME)


def run_methodology_2(
    config: PipelineConfig, registry: AdapterRegistry | None = None
) -> RunSummary:
    """Voice-conversion workflow: LJ training prep, or corpus conversion once trained."""
    if config.methodology is not Methodology.RVC_CONVERT:
        raise ConfigurationError("run_methodology_2 requires methodology: rvc_convert")
    registry = registry or default_registry()
    adapters = resolve_adapters(config, registry)
    summary = RunSummary(methodology=config.methodology.value, output_root=config.output.root)
    if config.conversion.model_ref is None:
        _prepare_lj_training_set(config, adapters, summary)
    else:
        _convert_corpus(config, adapters, summary)
    return summary


def run(
    config: PipelineConfig, registry: AdapterRegistry | None = None, resume: bool = False
) -> RunSummary:
    """Dispatch to the configured methodology; only methodology 1 has clips to resume from."""
    if config.methodology is Methodology.BARK_PROMPT:
        return run_methodology_1(config, registry, resume=resume)
    return run_methodology_2(config, registry)


def validate_dataset(
    config: PipelineConfig, registry: AdapterRegistry | None = None
) -> QualityReport:
    """Re-validate an already-written dataset at the configured output root."""
    adapters = resolve_adapters(config, registry or default_registry())
    root = Path(config.output.root)
    fmt = _dataset_format(config)
    constraints = ClipConstraints(required_rate_hz=_clip_rate_hz(config, adapters))
    entries = _read_dataset(config, root)
    report = QualityReport()
    for entry in entries:
        clip = _decode_clip(root, entry, fmt, adapters[AdapterRole.TRANSCODE])
        report.add(entry.clip_id, validate_clip(clip, constraints))
    report.metrics["entries"] = float(len(entries))
    report.metrics["failing_entries"] = float(len(report.failing_clip_ids()))
    return report


def acquire_stage(config: PipelineConfig, registry: AdapterRegistry | None = None) -> Path:
    """Resolve and cache the configured source; returns the local media path."""
    registry = registry or default_registry()
    downloader = None
    if config.source.kind is SourceKind.REMOTE:
        downloader = registry.resolve(
            AdapterRole.DOWNLOADER, config.adapters[AdapterRole.DOWNLOADER]
        )
    work = work_dir_for(config.output.root)
    work.mkdir(parents=True, exist_ok=True)
    handle = acquire_source(config.source, downloader, cache_dir=_cache_dir(work))
    return handle.path


def prep_stage(config: PipelineConfig, registry: AdapterRegistry | None = None) -> list[Path]:
    """Acquire, decode, run optional passes, and segment; writes work-dir WAVs."""
    registry = registry or default_registry()
    adapters = resolve_adapters(config, registry)
    work = work_dir_for(config.output.root)
    work.mkdir(parents=True, exist_ok=True)
    if config.methodology is Methodology.BARK_PROMPT:
        target_rate = adapters[AdapterRole.CODEC].native_rate_hz
    else:
        target_rate = config.training.target_sample_rate_hz
    clip, segments = _segments(config, adapters, work, target_rate)
    seg_dir = work / "segments"
    seg_dir.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for i, piece in enumerate(segments):
        path = seg_dir / f"{make_clip_id(clip.source_id, i)}.wav"
        save_wav(piece, path)
        paths.append(path)
    return paths


def prompt_stage(config: PipelineConfig, registry: AdapterRegistry | None = None) -> Path:
    """Build and save the speaker prompt; returns the npz path."""
    if config.methodology is not Methodology.BARK_PROMPT:
        raise ConfigurationError("the prompt stage applies to methodology: bark_prompt")
    registry = registry or default_registry()
    adapters = resolve_adapters(config, registry)
    work = work_dir_for(config.output.root)
    work.mkdir(parents=True, exist_ok=True)
    return _speaker_prompt(config, adapters, work)[3]


def train_config_stage(config: PipelineConfig) -> Path:
    """Emit the external trainer's config file under the output root.

    The root is refused as a run refuses it: a symlink, or a root holding
    names no dataset tree has, raises `StageError` before anything is written.
    """
    root = Path(config.output.root)
    _check_root(root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / TRAINING_CONFIG_NAME
    write_training_config(config.training, path)
    return path
