"""Transcription and diarization wrappers used to label extracted speech."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .adapters.base import AsrAdapter, DiarizationAdapter
from .audio import AudioClip
from .errors import StageError, ValidationError, backend_call

# slack for adapter timestamps that overshoot the clip edge by float noise
_EDGE_TOLERANCE_S = 1e-6


class AsrTask(str, Enum):
    TRANSCRIBE = "transcribe"
    TRANSLATE = "translate"


@dataclass(frozen=True)
class AsrConfig:
    """Recognition task settings; defaults match the Hindi transcription setup."""

    language: str = "hi"
    task: AsrTask = AsrTask.TRANSCRIBE

    def __post_init__(self) -> None:
        if not self.language:
            raise ValidationError("language must be non-empty")


@dataclass(frozen=True)
class TranscriptSegment:
    start_s: float
    end_s: float
    text: str

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValidationError("start_s must be non-negative")
        if not self.start_s < self.end_s:
            raise ValidationError(f"segment start {self.start_s} must precede end {self.end_s}")
        if not self.text.strip():
            raise ValidationError("segment text must be non-empty")


@dataclass(frozen=True)
class SpeakerTurn:
    start_s: float
    end_s: float
    speaker_label: str

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValidationError("start_s must be non-negative")
        if not self.start_s < self.end_s:
            raise ValidationError(f"turn start {self.start_s} must precede end {self.end_s}")
        if not self.speaker_label:
            raise ValidationError("speaker_label must be non-empty")


def _normalize_text(text: str) -> str:
    """Trim and collapse whitespace runs; scripts (Devanagari included) pass through."""
    return " ".join(text.split())


def transcribe(clip: AudioClip, config: AsrConfig, asr: AsrAdapter) -> list[TranscriptSegment]:
    """Run ASR over a clip; returns sorted, non-overlapping, in-bounds segments."""
    clip.require_non_empty("transcription input")
    with backend_call("ASR adapter failed", stage="transcribe", source_id=clip.source_id):
        raw = asr.transcribe(clip.samples, clip.sample_rate_hz, config)
    segments = sorted(
        (
            TranscriptSegment(start_s=s.start_s, end_s=s.end_s, text=_normalize_text(s.text))
            for s in raw
        ),
        key=lambda s: s.start_s,
    )
    duration = clip.duration_s
    prev_end = 0.0
    for seg in segments:
        if seg.end_s > duration + _EDGE_TOLERANCE_S:
            raise StageError(
                f"ASR segment ends at {seg.end_s:.3f} s beyond clip duration {duration:.3f} s",
                stage="transcribe",
                source_id=clip.source_id,
            )
        if seg.start_s < prev_end - _EDGE_TOLERANCE_S:
            raise StageError(
                "ASR segments overlap", stage="transcribe", source_id=clip.source_id
            )
        prev_end = seg.end_s
    return segments


def diarize(clip: AudioClip, dia: DiarizationAdapter) -> list[SpeakerTurn]:
    """Run speaker diarization; turns come back sorted by start time."""
    clip.require_non_empty("diarization input")
    with backend_call("diarization adapter failed", stage="diarize", source_id=clip.source_id):
        turns = list(dia.diarize(clip.samples, clip.sample_rate_hz))
    return sorted(turns, key=lambda t: t.start_s)


def slice_by_segments(
    clip: AudioClip, segments: list[TranscriptSegment]
) -> list[tuple[AudioClip, str]]:
    """Cut the clip into per-segment slices paired with their transcript text.

    Slice k spans samples [round(start_s*rate), round(end_s*rate)).
    """
    rate = clip.sample_rate_hz
    n = clip.n_samples
    out: list[tuple[AudioClip, str]] = []
    for seg in segments:
        lo = round(seg.start_s * rate)
        hi = round(seg.end_s * rate)
        if hi > n:
            raise ValidationError(
                f"segment [{seg.start_s}, {seg.end_s}] s exceeds clip duration {clip.duration_s} s"
            )
        out.append((clip.slice_samples(lo, hi), seg.text))
    return out


def minority_speaker_fraction(turns: list[SpeakerTurn]) -> float:
    """Fraction of spoken time not belonging to the dominant speaker."""
    if not turns:
        return 0.0
    per_label: dict[str, float] = {}
    for turn in turns:
        per_label[turn.speaker_label] = per_label.get(turn.speaker_label, 0.0) + (
            turn.end_s - turn.start_s
        )
    total = sum(per_label.values())
    if total <= 0:
        return 0.0
    return 1.0 - max(per_label.values()) / total
