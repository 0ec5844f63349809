"""Denoise/stem passes, fixed-length segmentation, and audio transcoding."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .adapters.base import DenoiseAdapter, StemAdapter, TranscodeAdapter
from .audio import AudioClip
from .errors import ConfigurationError, FormatError, StageError, ValidationError, backend_call


class TailPolicy(str, Enum):
    DROP_LAST = "drop_last"
    KEEP_LAST = "keep_last"


class StemModel(str, Enum):
    TWO_STEMS = "two_stems"
    FOUR_STEMS = "four_stems"
    FIVE_STEMS = "five_stems"


class AudioFormat(str, Enum):
    WAV_PCM16 = "wav_pcm16"
    MP3 = "mp3"


# magic prefixes per format; mp3 may open with an ID3 tag or a bare frame sync
_FORMAT_MAGIC = {
    AudioFormat.WAV_PCM16: (b"RIFF",),
    AudioFormat.MP3: (b"ID3", b"\xff\xfb", b"\xff\xf3", b"\xff\xf2"),
}


@dataclass(frozen=True)
class SegmentationPolicy:
    """How to cut a long clip into fixed-length pieces.

    Boundaries are computed as round(k * target_len_s * rate) in sample
    indices, so repeated float addition can never drift.
    """

    target_len_s: float = 10.0
    tail: TailPolicy = TailPolicy.DROP_LAST
    min_tail_s: float = 0.0

    def __post_init__(self) -> None:
        if self.target_len_s <= 0:
            raise ValidationError("target_len_s must be positive")
        if self.min_tail_s < 0:
            raise ValidationError("min_tail_s must be non-negative")
        if self.tail is TailPolicy.KEEP_LAST and self.min_tail_s >= self.target_len_s:
            raise ValidationError("min_tail_s must be smaller than target_len_s")


@dataclass(frozen=True)
class EncodedAudio:
    """A serialized audio payload in a known format."""

    payload: bytes
    format: AudioFormat

    def __post_init__(self) -> None:
        if not self.payload:
            raise ValidationError("encoded payload must be non-empty")
        if not self.payload.startswith(_FORMAT_MAGIC[self.format]):
            raise FormatError(f"payload does not look like {self.format.value}")


def denoise(clip: AudioClip, strength: float, adapter: DenoiseAdapter) -> AudioClip:
    """Noise-reduction pass; optional in the pipeline and skippable by config."""
    clip.require_non_empty("denoise input")
    if not 0.0 <= strength <= 1.0:
        raise ConfigurationError(f"denoise strength must be in [0, 1], got {strength}")
    with backend_call("denoise adapter failed", stage="denoise", source_id=clip.source_id):
        out = adapter.denoise(clip.samples, clip.sample_rate_hz, strength)
    out = np.asarray(out, dtype=np.float32)
    if out.size != clip.n_samples:
        raise StageError(
            f"denoise adapter changed length {clip.n_samples} -> {out.size}",
            stage="denoise",
            source_id=clip.source_id,
        )
    return replace(clip, samples=out)


def separate_vocals(clip: AudioClip, stem_model: StemModel, adapter: StemAdapter) -> AudioClip:
    """Vocal-isolation pass on one piece of a run; the adapter decides its length."""
    clip.require_non_empty("stem separation input")
    with backend_call("stem adapter failed", stage="stems", source_id=clip.source_id):
        out = adapter.separate_vocals(clip.samples, clip.sample_rate_hz, stem_model.value)
    return replace(clip, samples=np.asarray(out, dtype=np.float32))


def segment_bounds(n: int, rate: int, policy: SegmentationPolicy) -> list[tuple[int, int]]:
    """The [lo, hi) sample range of each piece `segment` cuts from n samples at rate."""
    step = policy.target_len_s * rate
    bounds: list[tuple[int, int]] = []
    while (hi := round((len(bounds) + 1) * step)) <= n:
        bounds.append((round(len(bounds) * step), hi))
    lo = round(len(bounds) * step)
    if policy.tail is TailPolicy.KEEP_LAST and n > lo and (n - lo) / rate >= policy.min_tail_s:
        bounds.append((lo, n))
    return bounds


def segment(clip: AudioClip, policy: SegmentationPolicy) -> list[AudioClip]:
    """Split into contiguous fixed-length clips; see SegmentationPolicy for tails."""
    return [
        AudioClip(
            samples=clip.samples[lo:hi],
            sample_rate_hz=clip.sample_rate_hz,
            source_id=clip.source_id,
            offset_s=clip.offset_s + k * policy.target_len_s,
        )
        for k, (lo, hi) in enumerate(segment_bounds(clip.n_samples, clip.sample_rate_hz, policy))
    ]


def transcode(clip: AudioClip, format: AudioFormat, codec: TranscodeAdapter) -> EncodedAudio:
    """Serialize a clip through the given codec adapter."""
    clip.require_non_empty("transcode input")
    message = f"transcode to {format.value} failed"
    with backend_call(message, stage="transcode", source_id=clip.source_id):
        payload = codec.encode(clip.samples, clip.sample_rate_hz, format.value)
    return EncodedAudio(payload=payload, format=format)
