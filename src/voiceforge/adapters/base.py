"""Adapter contracts for every external system the pipelines touch.

All neural models (codec, semantic encoder, TTS, voice conversion, ASR,
diarization, embeddings) and all media tooling (download, decode, denoise,
stem separation, transcoding) sit behind these protocols. The core library
never imports a model framework; tests run entirely against the deterministic
mocks in :mod:`voiceforge.adapters.mocks`.

Adapters raise ConfigurationError for contract/config problems (unsupported
mode, unresolvable model reference); any other exception is wrapped into a
StageError by the calling module, through :func:`voiceforge.errors.backend_call`.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from ..errors import RegistryError

if TYPE_CHECKING:
    from ..conversion import ConversionParams
    from ..synthesis import GenerationParams
    from ..transcribe import AsrConfig


class AdapterRole(str, enum.Enum):
    DOWNLOADER = "downloader"
    DECODER = "decoder"
    DENOISE = "denoise"
    STEMS = "stems"
    CODEC = "codec"
    SEMANTIC_ENCODER = "semantic_encoder"
    TOKEN_QUANTIZER = "token_quantizer"
    TTS = "tts"
    VC = "vc"
    ASR = "asr"
    DIARIZATION = "diarization"
    SPEAKER_EMBEDDING = "speaker_embedding"
    TRANSCODE = "transcode"


@dataclass(frozen=True)
class AdapterDescriptor:
    """Registry entry naming one adapter implementation.

    Rates and codebook shapes are read from the adapter object itself.
    """

    role: AdapterRole
    id: str

    def __post_init__(self) -> None:
        if not self.id:
            raise RegistryError("adapter id must be non-empty")
        object.__setattr__(self, "role", AdapterRole(self.role))


@dataclass(frozen=True)
class DownloadResult:
    """What a downloader learned while fetching; fields may be unknown."""

    container_format: str | None = None
    duration_s: float | None = None


@runtime_checkable
class DownloaderAdapter(Protocol):
    def download(self, uri: str, dest_path: str) -> DownloadResult:
        """Fetch uri into dest_path; raise on unreachable sources."""
        ...


@runtime_checkable
class DecoderAdapter(Protocol):
    """Media file -> its samples at the file's own rate, in blocks.

    The blocks iterator is advanced from one worker thread, in order, at
    most `ingest.AHEAD_BLOCKS` blocks ahead of the resampler. So it must not
    depend on the thread that called `decode_blocks`.
    """

    def decode_blocks(self, path: str) -> tuple[int, int, Iterator[np.ndarray]]:
        """Return (rate, n_samples per channel, blocks); blocks hold n_samples in all.

        Each block is 1-D mono or [channels, n]. A backend that can only
        decode whole files returns the whole file as one block.
        """
        ...


@runtime_checkable
class DenoiseAdapter(Protocol):
    def denoise(self, samples: np.ndarray, rate: int, strength: float) -> np.ndarray:
        ...


@runtime_checkable
class StemAdapter(Protocol):
    def separate_vocals(self, samples: np.ndarray, rate: int, stem_model: str) -> np.ndarray:
        ...


@runtime_checkable
class CodecAdapter(Protocol):
    """Residual-codebook audio tokenizer (fine + coarse tiers)."""

    native_rate_hz: int
    frame_rate_hz: float
    codebook_count: int
    codebook_size: int

    def encode(self, samples: np.ndarray, rate: int) -> np.ndarray:
        """Return integer codes of shape [codebook_count, n_frames]."""
        ...


@runtime_checkable
class SemanticEncoderAdapter(Protocol):
    """Self-supervised speech encoder producing frame-level features."""

    token_rate_hz: float
    embedding_dim: int

    def encode(self, samples: np.ndarray, rate: int) -> np.ndarray:
        """Return float features of shape [n_frames, embedding_dim]."""
        ...


@runtime_checkable
class TokenQuantizerAdapter(Protocol):
    """Maps encoder features to discrete semantic tokens."""

    vocab_size: int
    embedding_dim: int

    def quantize(self, features: np.ndarray) -> np.ndarray:
        """Return 1-D integer tokens, one per feature row."""
        ...


@runtime_checkable
class TtsAdapter(Protocol):
    native_rate_hz: int

    def synthesize(
        self,
        text: str,
        semantic_tokens: np.ndarray,
        coarse_codes: np.ndarray,
        fine_codes: np.ndarray,
        params: "GenerationParams",
    ) -> np.ndarray:
        """Return mono float samples at native_rate_hz."""
        ...


@runtime_checkable
class VcAdapter(Protocol):
    native_rate_hz: int

    def convert(
        self,
        samples: np.ndarray,
        rate: int,
        model_ref: str,
        index_ref: str,
        params: "ConversionParams",
    ) -> tuple[np.ndarray, int]:
        """Re-voice samples; returns (samples, rate) at the backend rate."""
        ...


@runtime_checkable
class AsrAdapter(Protocol):
    def transcribe(self, samples: np.ndarray, rate: int, config: "AsrConfig") -> list:
        """Return TranscriptSegment-compatible (start_s, end_s, text) items.

        LJ prep calls it once per window of the source, each cut inside a
        silence, so the timestamps are relative to the window's start.
        """
        ...


@runtime_checkable
class DiarizationAdapter(Protocol):
    def diarize(self, samples: np.ndarray, rate: int) -> list:
        """Return SpeakerTurn-compatible (start_s, end_s, speaker_label) items.

        LJ prep calls it once per window of the source, each cut inside a
        silence: the timestamps are relative to the window's start, and the
        labels are local to the window.
        """
        ...


@runtime_checkable
class SpeakerEmbeddingAdapter(Protocol):
    embedding_dim: int

    def embed(self, samples: np.ndarray, rate: int) -> np.ndarray:
        ...


@runtime_checkable
class TranscodeAdapter(Protocol):
    def encode(self, samples: np.ndarray, rate: int, format: str) -> bytes:
        """Encode to 'wav_pcm16' or 'mp3' bytes."""
        ...

    def decode(self, payload: bytes, format: str) -> tuple[np.ndarray, int]:
        ...
