"""Orchestration: the three jobs a run can do, plus per-stage entry points.

The paper's two workflows make three jobs, and `job_for(config)` is the one
place that tells them apart:

- clone (`bark_prompt`): acquire -> decode at the codec's rate -> optional
  passes -> segment -> speaker prompt -> batch synthesis -> Common Voice or LJ.
- LJ prep (`rvc_convert` without `model_ref`): acquire -> decode at the
  training rate -> optional passes -> windows cut at silences -> diarize,
  transcribe and slice each window -> an LJ training corpus plus the
  trainer's config.
- conversion (`rvc_convert` with `model_ref`): read `conversion.input_corpus`
  and convert each clip -> always Common Voice.

A `Job` holds everything that differs between them, so `run` is one path:
resolve adapters -> `job.produce` -> `publishing` -> `_package` ->
`job.finish` -> save the quality report. All intermediate artifacts live in
a `<output root>.work/` sibling so the dataset tree contains exactly the
deliverable files, and `corpus.publishing` swaps the finished tree in for the
root, so the root holds either the old tree or the new one, never a mix.
"""

from __future__ import annotations

import os
import shutil
from collections.abc import Callable, Iterable, Iterator
from contextlib import closing, contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import ingest
from .adapters import AdapterRegistry, AdapterRole, default_registry
from .audio import AudioClip, SampleBlocks, resampled_length, resampled_pieces
from .config import Methodology, OutputFormat, PipelineConfig
from .conversion import convert_voice, validate_training_data, write_training_config
from .corpus import (
    QUALITY_REPORT_NAME,
    TRAINING_CONFIG_NAME,
    CommonVoiceWriter,
    CorpusEntry,
    CorpusWriter,
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
from .preprocess import AudioFormat, denoise, segment_bounds, separate_vocals, transcode
from .quality import SILENCE_EPS, SPEECH_GAP_S, ClipConstraints, Issue, QualityReport, Severity, validate_clip
from .synthesis import batch_synthesize, prompt_digest
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
# LJ prep diarizes and transcribes windows of at least WINDOW_S seconds, each
# cut inside at least SPEECH_GAP_S seconds below SILENCE_EPS.
WINDOW_S = 30

Adapters = dict[AdapterRole, object]
Candidates = Iterator[tuple[CorpusEntry, AudioClip]]


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


@dataclass(frozen=True)
class Job:
    """Everything that differs between clone, LJ prep and conversion.

    A rate is the named adapter's `native_rate_hz`, or the training rate for
    None. `produce` works up to the first clip, then yields `_package`'s
    candidates one at a time, and `run` closes them however packaging ends;
    `finish` adds the job's metrics, files and messages to staging. Both look
    each stage up in this module's globals when they run, so a stage patched
    on the module (as perfbench's tracer does) is the one called.
    """

    roles: tuple[AdapterRole, ...]
    reads_source: bool
    decode_at: AdapterRole | None  # the source's decode rate, when the job reads it
    clip_at: AdapterRole | None  # the rate every dataset clip must have
    fixed_format: OutputFormat | None  # None: `output.format` decides
    steps: Callable[[PipelineConfig], list[str]]  # its own --dry-run steps
    produce: Callable[[PipelineConfig, Adapters, RunSummary, bool], Candidates]
    finish: Callable[[PipelineConfig, RunSummary, list[float], Path], None] = lambda *_: None

    def dataset_format(self, config: PipelineConfig) -> OutputFormat:
        return self.fixed_format or config.output.format


def job_for(config: PipelineConfig) -> Job:
    """The job a config asks for: the one place that branches on the methodology."""
    if config.methodology is Methodology.BARK_PROMPT:
        return CLONE
    return LJ_PREP if config.conversion.model_ref is None else CONVERT


def _rate_hz(role: AdapterRole | None, config: PipelineConfig, adapters: Adapters) -> int:
    return config.training.target_sample_rate_hz if role is None else adapters[role].native_rate_hz


def _cache_dir(work: Path) -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV) or work / "cache")


def resolve_adapters(config: PipelineConfig, registry: AdapterRegistry) -> Adapters:
    """Fail-fast lookup of every adapter the configured run will touch."""
    job = job_for(config)
    roles = [AdapterRole.TRANSCODE, *job.roles]
    if job.reads_source:
        if config.source.kind is SourceKind.REMOTE:
            roles.append(AdapterRole.DOWNLOADER)
        if config.preprocessing.denoise_strength is not None:
            roles.append(AdapterRole.DENOISE)
        if config.preprocessing.stems is not None:
            roles.append(AdapterRole.STEMS)
    return {role: registry.resolve(role, config.adapters[role]) for role in roles}


def plan(config: PipelineConfig) -> list[str]:
    """Human-readable stage list for --dry-run output."""
    job = job_for(config)
    steps: list[str] = []
    pp = config.preprocessing
    if job.reads_source:
        steps.append(f"source: {config.source.uri} ({config.source.kind.value})")
        steps.append(
            f"decode to {job.decode_at.value} native rate" if job.decode_at
            else f"decode to {config.training.target_sample_rate_hz} Hz"
        )
        if pp.denoise_strength is not None:
            steps.append(f"denoise at strength {pp.denoise_strength}")
        if pp.stems is not None:
            steps.append(f"isolate vocals ({pp.stems.value})")
    steps += job.steps(config)
    steps.append("quality-gate clips and write the quality report")
    steps.append(
        f"package as {job.dataset_format(config).value} at {config.output.root} "
        f"(valid fraction {config.output.split.valid_fraction})"
    )
    return steps


def _layout(fmt: OutputFormat) -> tuple[type[CorpusWriter], Callable[[Path], list[CorpusEntry]]]:
    """The writer and the reader of a dataset format."""
    if fmt is OutputFormat.COMMON_VOICE:
        return CommonVoiceWriter, read_common_voice
    return LjWriter, read_lj


def _decode_clip(root: Path, entry: CorpusEntry, audio_format: AudioFormat, transcoder) -> AudioClip:
    """Decode one clip of a dataset through the transcoder, in its layout's audio format."""
    try:
        payload = (root / entry.relative_audio_path).read_bytes()
        samples, rate = transcoder.decode(payload, audio_format.value)
    except Exception as exc:
        raise DecodeError(
            f"cannot decode {entry.relative_audio_path}: {exc}",
            stage="decode",
            source_id=entry.clip_id,
        ) from exc
    return AudioClip(samples=samples, sample_rate_hz=rate, source_id=entry.clip_id)


def _package(
    config: PipelineConfig,
    adapters: Adapters,
    candidates: Candidates,
    summary: RunSummary,
    staging: Path,
) -> list[float]:
    """Gate, transcode and write each clip into `staging`, then read it back.

    Returns the kept durations. Each clip is written as soon as it is
    transcoded and then dropped; only its entry, as the manifests hold it,
    stays. The dataset format alone decides the writer (and so the audio
    format, clip path and text rules) and the reader. A clip whose text the
    layout cannot hold fails with a `layout` issue and is skipped.
    """
    job = job_for(config)
    writer_type, read = _layout(job.dataset_format(config))
    writer = writer_type(staging)
    constraints = ClipConstraints(required_rate_hz=_rate_hz(job.clip_at, config, adapters))
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
    by_id = lambda e: e.clip_id
    if sorted(entries, key=by_id) != sorted(read(staging), key=by_id):
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


def _source(config: PipelineConfig, adapters: Adapters, work: Path) -> tuple[SampleBlocks, int]:
    """Acquire the source: its stream of blocks, and the rate the job decodes it at.

    Without the optional passes it is the decoder's stream at its native rate.
    The passes take the whole source (stem separation may change its length),
    so with either one the source is decoded and passed whole, and the stream
    is that array as one block at the job's rate. Either way its blocks are
    an `ingest.Ahead`.
    """
    downloader = adapters.get(AdapterRole.DOWNLOADER)
    handle = acquire_source(config.source, downloader, cache_dir=_cache_dir(work))
    rate_hz = _rate_hz(job_for(config).decode_at, config, adapters)
    decoder, pp = adapters[AdapterRole.DECODER], config.preprocessing
    if pp.denoise_strength is None and pp.stems is None:
        return ingest.open_source(handle, rate_hz, decoder), rate_hz
    clip = decode_to_audio(handle, rate_hz, decoder)
    if pp.denoise_strength is not None:
        clip = denoise(clip, pp.denoise_strength, adapters[AdapterRole.DENOISE])
    if pp.stems is not None:
        clip = separate_vocals(clip, pp.stems, adapters[AdapterRole.STEMS])
    blocks = SampleBlocks(rate_hz, clip.n_samples, ingest.Ahead([clip.samples]), clip.source_id)
    return blocks, rate_hz


@contextmanager
def _speaker_prompt(
    config: PipelineConfig, adapters: Adapters, work: Path
) -> Iterator[tuple[str, int, SpeakerPrompt, Callable[[], None]]]:
    """Build the prompt from the source's first segment.

    Yields the source id, the segment count, the prompt and `check`. Only
    the first segment is resampled and kept, and the count comes from the
    source's length. The rest of the source is pulled and checked on the
    decode-ahead worker beside the prompt and the caller's block, and
    `check()` raises the fault it has met so far, if any. Unless the run is
    interrupted, the whole source's verdict is waited for before this
    leaves, however the prompt or the block ends, and a fault in the source
    outranks any other error, as it did when the source was checked first.
    The worker is stopped and joined on every path.
    """
    policy = config.preprocessing.segmentation
    source, rate_hz = _source(config, adapters, work)
    with closing(source.blocks) as rest:
        n = resampled_length(source.n_samples, source.sample_rate_hz, rate_hz)
        bounds = segment_bounds(n, rate_hz, policy)
        # called through `ingest`, as decode_to_audio calls it, so one wrapper there sees both
        first = ingest.resample(source, rate_hz, stop=bounds[0][1] if bounds else 0)
        rest.detach()
        try:
            if not bounds:
                raise StageError(
                    f"source ({n / rate_hz:.1f} s) yields no full {policy.target_len_s} s segment",
                    stage="segment",
                    source_id=source.source_id,
                )
            first = first.slice_samples(*bounds[0])
            fine, _ = extract_codebooks(first, adapters[AdapterRole.CODEC], PROMPT_N_COARSE)
            semantic = extract_semantic_tokens(
                first,
                adapters[AdapterRole.SEMANTIC_ENCODER],
                adapters[AdapterRole.TOKEN_QUANTIZER],
            )
            del first  # not held through the caller's block
            prompt = build_prompt(semantic, fine, PROMPT_N_COARSE, source.source_id)
            yield source.source_id, len(bounds), prompt, rest.check
        except Exception:
            rest.check(wait=True)  # a fault in the source outranks this error
            raise
        rest.check(wait=True)


def _save_prompt(prompt: SpeakerPrompt, work: Path) -> Path:
    """Save the prompt as `<work>/assets/prompt_<digest>.npz`; returns the path."""
    assets = work / "assets"
    assets.mkdir(parents=True, exist_ok=True)
    path = assets / f"prompt_{prompt_digest(prompt)}.npz"
    save_prompt(prompt, path)
    return path


def _clone(
    config: PipelineConfig, adapters: Adapters, summary: RunSummary, resume: bool
) -> Candidates:
    """Acquire through batch synthesis (with `resume`, reusing the clips already made).

    The clips are loaded one at a time as they are packaged.
    """
    work = work_dir_for(config.output.root)
    synth_dir = work / "synth"
    if not resume and synth_dir.exists():
        shutil.rmtree(synth_dir)
    work.mkdir(parents=True, exist_ok=True)

    # the source's tail is checked beside the batch: a fault in it stops the
    # batch at the next sentence and is raised before any candidate
    with _speaker_prompt(config, adapters, work) as (source_id, n_segments, prompt, check):
        summary.clips_in, summary.prompts_built = n_segments, 1
        batch = batch_synthesize(
            list(config.generation.sentences),
            prompt,
            config.generation.params,
            adapters[AdapterRole.TTS],
            config.adapters[AdapterRole.TTS],
            work_dir=synth_dir,
            retries=config.generation.retries,
            check=check,
        )
    _save_prompt(prompt, work)  # only once the whole source has passed its check
    summary.sentences_generated = len(batch.clips)
    summary.partial = not batch.complete
    for sentence, cause in batch.failures.items():
        summary.messages.append(f"failed sentence {sentence[:40]!r}: {cause}")
    return _numbered(config, source_id, prompt_digest(prompt), batch.load())


def _clone_finish(
    config: PipelineConfig, summary: RunSummary, durations: list[float], staging: Path
) -> None:
    metrics = summary.quality.metrics
    metrics["sentences_requested"] = float(len(config.generation.sentences))
    metrics["sentences_generated"] = float(summary.sentences_generated)
    metrics["mean_clip_duration_s"] = sum(durations) / len(durations)


def _lj_prep(
    config: PipelineConfig, adapters: Adapters, summary: RunSummary, resume: bool
) -> Candidates:
    """Diarize, transcribe and slice the source into (transcript, clip) candidates.

    The source streams through one window at a time (see `_windows`), so
    memory holds about one window plus a few blocks where the source has
    digital silence to cut at; a source without it (a noise floor above
    about -80 dBFS) is one window, held whole. The adapters see each
    window on its own: their timestamps are window-local, and so are the
    diarizer's labels. `clips_in`, the multi-speaker warning and the "no
    speech" error come at the end of the stream.
    """
    source, rate_hz = _source(config, adapters, work_dir_for(config.output.root))

    def pairs() -> Iterator[tuple[str, AudioClip]]:
        spoken_s = minority_s = 0.0
        n_out = resampled_length(source.n_samples, source.sample_rate_hz, rate_hz)
        pieces = resampled_pieces(source, rate_hz)
        for window in _windows(pieces, n_out, rate_hz, source.source_id):
            turns = diarize(window, adapters[AdapterRole.DIARIZATION])
            spoken = sum(turn.end_s - turn.start_s for turn in turns)
            spoken_s += spoken
            minority_s += minority_speaker_fraction(turns) * spoken
            segments = transcribe(window, config.asr, adapters[AdapterRole.ASR])
            sliced = slice_by_segments(window, segments)
            summary.clips_in += len(sliced)
            yield from ((text, clip) for clip, text in sliced)
        # the minority share of each window, weighted by the window's diarized speech
        if spoken_s and minority_s / spoken_s > MULTI_SPEAKER_WARN_FRACTION:
            summary.messages.append(
                f"diarization found {minority_s / spoken_s:.0%} of speech from non-dominant "
                "speakers; the training set assumes one voice"
            )
        if not summary.clips_in:
            raise StageError(
                "transcription produced no speech segments",
                stage="transcribe",
                source_id=source.source_id,
            )

    return _numbered(config, source.source_id, source.source_id, pairs())


def _windows(
    pieces: Iterable[np.ndarray], n_out: int, rate_hz: int, source_id: str
) -> Iterator[AudioClip]:
    """The `n_out` samples of consecutive pieces as consecutive windows, each cut inside a silence.

    A window closes at its first sample c at or after WINDOW_S s such that
    the SPEECH_GAP_S s before c are all below SILENCE_EPS (after the cast to
    float32, as the adapters see them). Each window is a fresh float32 buffer
    that the pieces are cast into once; its `offset_s` is its first sample's
    index over the rate. A window that finds no such silence in its first
    2 * WINDOW_S s is moved once into a buffer for the rest of the source.
    """
    least, quiet = int(WINDOW_S * rate_hz), int(SPEECH_GAP_S * rate_hz)
    start = n = 0  # the window's first sample in the source, and its samples so far
    buf = np.empty(min(2 * least, n_out), dtype=np.float32)
    quiet_from = 0  # where the silence that ends the window began
    for piece in pieces:
        # a part holds at most one cut: what follows a cut is shorter than `least`
        for k in range(0, piece.size, least):
            part = piece[k : k + least]
            end = n + part.size
            if end > buf.size:  # no silence to cut at yet
                grown = np.empty(n_out - start, dtype=np.float32)
                grown[:n] = buf[:n]
                buf = grown
            buf[n:end] = part
            silent = np.abs(buf[n:end]) < SILENCE_EPS
            edges = np.diff(silent.view(np.int8), prepend=np.int8(0), append=np.int8(0))
            runs, run_ends = n + np.flatnonzero(edges == 1), n + np.flatnonzero(edges == -1)
            if runs.size and runs[0] == n:
                runs[0] = quiet_from  # the silence goes on from the previous part
            cuts = np.maximum(runs + quiet, least)
            cut = np.flatnonzero(cuts <= run_ends)
            quiet_from = int(runs[-1]) if silent[-1] else end
            n = end
            if cut.size:
                c = int(cuts[cut[0]])
                yield AudioClip(buf[:c], rate_hz, source_id, offset_s=start / rate_hz)
                rest = buf[c:end]
                start += c
                buf = np.empty(min(2 * least, n_out - start), dtype=np.float32)
                buf[: rest.size] = rest
                n, quiet_from = end - c, max(quiet_from, c) - c
    if n:
        yield AudioClip(buf[:n], rate_hz, source_id, offset_s=start / rate_hz)


def _lj_prep_finish(
    config: PipelineConfig, summary: RunSummary, durations: list[float], staging: Path
) -> None:
    total_s = float(sum(durations))
    summary.messages.extend(validate_training_data(total_s))
    summary.quality.metrics["total_speech_s"] = total_s
    write_training_config(config.training, staging / TRAINING_CONFIG_NAME)
    summary.messages.append(
        f"training corpus and {TRAINING_CONFIG_NAME} written to {config.output.root}; "
        "train a model on it, then set conversion.model_ref and conversion.index_ref "
        "to run the conversion phase"
    )


def _convert(
    config: PipelineConfig, adapters: Adapters, summary: RunSummary, resume: bool
) -> Candidates:
    """Read the input corpus; its clips are decoded and converted one at a time."""
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
                clip = _decode_clip(input_root, entry, CommonVoiceWriter.audio_format, transcoder)
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

    return converted()


CLONE = Job(
    roles=(
        AdapterRole.DECODER,
        AdapterRole.CODEC,
        AdapterRole.SEMANTIC_ENCODER,
        AdapterRole.TOKEN_QUANTIZER,
        AdapterRole.TTS,
    ),
    reads_source=True,
    decode_at=AdapterRole.CODEC,
    clip_at=AdapterRole.TTS,
    fixed_format=None,
    steps=lambda config: [
        f"segment into {config.preprocessing.segmentation.target_len_s} s clips "
        f"({config.preprocessing.segmentation.tail.value})",
        f"build speaker prompt ({PROMPT_N_COARSE} coarse codebooks)",
        f"synthesize {len(config.generation.sentences)} sentences",
    ],
    produce=_clone,
    finish=_clone_finish,
)
LJ_PREP = Job(
    roles=(AdapterRole.DECODER, AdapterRole.ASR, AdapterRole.DIARIZATION),
    reads_source=True,
    decode_at=None,
    clip_at=None,
    fixed_format=None,
    steps=lambda config: [
        f"diarize and transcribe ({config.asr.language}, {config.asr.task.value})",
        "slice into per-sentence clips",
        f"emit trainer config ({TRAINING_CONFIG_NAME})",
    ],
    produce=_lj_prep,
    finish=_lj_prep_finish,
)
CONVERT = Job(
    roles=(AdapterRole.VC,),
    reads_source=False,
    decode_at=None,
    clip_at=AdapterRole.VC,
    fixed_format=OutputFormat.COMMON_VOICE,
    steps=lambda config: [
        f"read input corpus {config.conversion.input_corpus}",
        f"convert every clip with model {config.conversion.model_ref}",
    ],
    produce=_convert,
)


# The stages that apply to some jobs only: the jobs they take, and the refusal.
_STAGE_JOBS = {
    "prompt": ((CLONE,), "the prompt stage applies to methodology: bark_prompt"),
    "synth": ((CLONE,), "the synth stage applies to methodology: bark_prompt"),
    "convert": (
        (CONVERT,),
        "convert needs methodology: rvc_convert with conversion.model_ref, "
        "conversion.index_ref and conversion.input_corpus",
    ),
}


def check_stage(stage: str, config: PipelineConfig) -> None:
    """Raise ConfigurationError if `stage` does not apply to the config's job."""
    jobs, refusal = _STAGE_JOBS.get(stage, (None, ""))
    if jobs is not None and job_for(config) not in jobs:
        raise ConfigurationError(refusal)


def run(
    config: PipelineConfig, registry: AdapterRegistry | None = None, resume: bool = False
) -> RunSummary:
    """Run the configured job end to end; only a clone run has clips to resume from."""
    job = job_for(config)
    adapters = resolve_adapters(config, registry or default_registry())
    summary = RunSummary(methodology=config.methodology.value, output_root=config.output.root)
    candidates = job.produce(config, adapters, summary, resume)
    # closed on a fault too, so a streaming source lets its decoder go at once
    with closing(candidates), publishing(config.output.root) as staging:
        durations = _package(config, adapters, candidates, summary, staging)
        job.finish(config, summary, durations, staging)
        summary.quality.save(staging / QUALITY_REPORT_NAME)
    return summary


def synth_stage(
    config: PipelineConfig,
    registry: AdapterRegistry | None = None,
    resume: bool = False,
) -> RunSummary:
    """Generate (or resume generating) the batch clips without packaging them."""
    check_stage("synth", config)
    adapters = resolve_adapters(config, registry or default_registry())
    summary = RunSummary(methodology=config.methodology.value, output_root=config.output.root)
    _clone(config, adapters, summary, resume)  # the candidates load lazily, so none is read
    return summary


def validate_dataset(
    config: PipelineConfig, registry: AdapterRegistry | None = None
) -> QualityReport:
    """Re-validate an already-written dataset at the configured output root."""
    adapters = resolve_adapters(config, registry or default_registry())
    job = job_for(config)
    root = Path(config.output.root)
    constraints = ClipConstraints(required_rate_hz=_rate_hz(job.clip_at, config, adapters))
    writer_type, read = _layout(job.dataset_format(config))
    entries = read(root)
    report = QualityReport()
    for entry in entries:
        try:
            clip = _decode_clip(root, entry, writer_type.audio_format, adapters[AdapterRole.TRANSCODE])
        except DecodeError as exc:
            report.add(entry.clip_id, [Issue(code="decode", severity=Severity.FAIL, message=str(exc))])
            continue
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


def prompt_stage(config: PipelineConfig, registry: AdapterRegistry | None = None) -> Path:
    """Build and save the speaker prompt; returns the npz path."""
    check_stage("prompt", config)
    adapters = resolve_adapters(config, registry or default_registry())
    work = work_dir_for(config.output.root)
    work.mkdir(parents=True, exist_ok=True)
    with _speaker_prompt(config, adapters, work) as (_, _, prompt, _):
        pass
    return _save_prompt(prompt, work)


def train_config_stage(config: PipelineConfig) -> Path:
    """Emit the external trainer's config file under the output root.

    The root is refused as a run refuses it: a symlink, or a root holding
    names no dataset tree has, raises `StageError` before anything is written.
    """
    root = Path(config.output.root)
    _check_root(root, "train-config", f"write {TRAINING_CONFIG_NAME} into")
    root.mkdir(parents=True, exist_ok=True)
    path = root / TRAINING_CONFIG_NAME
    write_training_config(config.training, path)
    return path
