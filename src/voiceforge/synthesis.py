"""Prompted text-to-speech generation, single-shot and resumable batches.

A batch writes each finished clip to `<sentence sha256>-<context>.wav`, where
the context is the SHA-256 of the prompt, the generation params and the TTS
adapter id. The file is the record: a rerun reuses a clip exactly when a file
of that name exists, and every clip is written atomically, so a killed write
never leaves audio under a final name and audio made under other settings is
never reused. A batch returns clip files, not audio: callers read every clip
back from disk, so a resumed run is byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .adapters.base import TtsAdapter
from .audio import AudioClip, load_wav, save_wav
from .errors import BatchError, GenerationError, ValidationError, backend_call
from .voiceprompt import SpeakerPrompt

CLIP_DIR_NAME = "clips"
DEFAULT_RETRIES = 2


@dataclass(frozen=True)
class GenerationParams:
    """Sampling knobs passed through to the TTS backend."""

    text_temp: float
    waveform_temp: float
    seed: int | None = None

    def __post_init__(self) -> None:
        for name, temp in (("text_temp", self.text_temp), ("waveform_temp", self.waveform_temp)):
            if not 0.0 < temp <= 2.0:
                raise ValidationError(f"{name} must be in (0, 2], got {temp}")
        if self.seed is not None and not -(2**63) <= self.seed < 2**63:
            raise ValidationError("seed must fit in 64 bits")


def default_generation_params() -> GenerationParams:
    """The sampling defaults the corpus experiments settled on."""
    return GenerationParams(text_temp=0.85, waveform_temp=0.7)


@dataclass
class BatchResult:
    """Outcome of batch_synthesize: (sentence, clip file) pairs in sentence order plus failures."""

    clips: list[tuple[str, Path]]
    failures: dict[str, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.failures

    def load(self) -> Iterator[tuple[str, AudioClip]]:
        """Read the clips back one at a time, in sentence order."""
        for sentence, path in self.clips:
            yield sentence, load_wav(path)


def prompt_digest(prompt: SpeakerPrompt) -> str:
    """Stable 16-hex identifier for a speaker prompt's content."""
    h = hashlib.sha256()
    h.update(prompt.semantic_tokens.tobytes())
    h.update(prompt.coarse.codes.tobytes())
    h.update(prompt.fine.codes.tobytes())
    h.update(prompt.source_id.encode("utf-8"))
    return h.hexdigest()[:16]


def sentence_digest(sentence: str) -> str:
    return hashlib.sha256(sentence.encode("utf-8")).hexdigest()


def synthesize(
    text: str, prompt: SpeakerPrompt, params: GenerationParams, backend: TtsAdapter
) -> AudioClip:
    """Generate one clip in the prompt's voice at the backend's native rate."""
    if not text.strip():
        raise ValidationError("text must be non-empty")
    message = f"TTS backend failed on {text[:40]!r}"
    with backend_call(
        message, stage="synthesize", source_id=prompt.source_id, error=GenerationError
    ):
        samples = backend.synthesize(
            text,
            prompt.semantic_tokens,
            prompt.coarse.codes,
            prompt.fine.codes,
            params,
        )
    samples = np.asarray(samples, dtype=np.float32)
    if samples.size == 0:
        raise GenerationError(
            f"TTS backend returned empty audio for {text[:40]!r}",
            stage="synthesize",
            source_id=prompt.source_id,
        )
    try:
        return AudioClip(
            samples=samples,
            sample_rate_hz=backend.native_rate_hz,
            source_id=f"{prompt_digest(prompt)}:{sentence_digest(text)[:8]}",
        )
    except ValidationError as exc:
        raise GenerationError(
            f"TTS backend returned invalid audio for {text[:40]!r}: {exc}",
            stage="synthesize",
            source_id=prompt.source_id,
        ) from exc


def batch_synthesize(
    sentences: list[str],
    prompt: SpeakerPrompt,
    params: GenerationParams,
    backend: TtsAdapter,
    backend_id: str,
    work_dir: str | Path,
    retries: int = DEFAULT_RETRIES,
    check: Callable[[], None] = lambda: None,
) -> BatchResult:
    """Generate one clip per sentence with fault isolation and resumption.

    Clips land in `<work_dir>/clips/<sentence sha256>-<context>.wav`, where
    `context` is the SHA-256 of the prompt digest, `params` and `backend_id`
    (the TTS adapter's registry id). A sentence whose clip file exists is not
    generated again. A batch that returns deletes every other entry in
    `<work_dir>/clips/`: clips of other contexts or of dropped sentences, and
    the temp file of a killed write. `check` is called before each sentence;
    what it raises ends the batch there.
    """
    if not sentences:
        return BatchResult(clips=[])
    for sentence in sentences:
        if not sentence.strip():
            raise ValidationError("sentences must all be non-empty")

    clip_dir = Path(work_dir) / CLIP_DIR_NAME
    clip_dir.mkdir(parents=True, exist_ok=True)
    context_doc = {"prompt": prompt_digest(prompt), "params": asdict(params), "tts": backend_id}
    context = hashlib.sha256(json.dumps(context_doc, sort_keys=True).encode("utf-8")).hexdigest()

    def generate(sentence: str) -> AudioClip:
        for attempt in range(1 + retries):
            try:
                return synthesize(sentence, prompt, params, backend)
            except GenerationError:
                if attempt == retries:
                    raise

    clips: list[tuple[str, Path]] = []
    failures: dict[str, str] = {}
    for sentence in sentences:
        check()
        clip_path = clip_dir / f"{sentence_digest(sentence)}-{context}.wav"
        if not clip_path.is_file():
            try:
                clip = generate(sentence)
            except GenerationError as exc:
                failures[sentence] = str(exc)
                continue
            save_wav(clip, clip_path)
        clips.append((sentence, clip_path))

    if failures and not clips:
        raise BatchError("every sentence in the batch failed", causes=failures)
    current = {path.name for _, path in clips}
    for stale in clip_dir.iterdir():
        if stale.name not in current:
            stale.unlink()
    return BatchResult(clips=clips, failures=failures)
