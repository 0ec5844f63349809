"""Adapter layer: role protocols, registry, and the stock implementations.

`default_registry()` wires every role with its deterministic mock plus the
handful of real, dependency-free adapters (urllib download, WAV I/O), so a
fresh install can run the full pipeline end to end before any heavyweight
backend is registered.
"""

from __future__ import annotations

from . import builtin, mocks
from .base import (
    AdapterDescriptor,
    AdapterRole,
    AsrAdapter,
    CodecAdapter,
    DecoderAdapter,
    DenoiseAdapter,
    DiarizationAdapter,
    DownloaderAdapter,
    DownloadResult,
    SemanticEncoderAdapter,
    SpeakerEmbeddingAdapter,
    StemAdapter,
    TokenQuantizerAdapter,
    TranscodeAdapter,
    TtsAdapter,
    VcAdapter,
)
from .registry import AdapterRegistry

__all__ = [
    "AdapterDescriptor",
    "AdapterRegistry",
    "AdapterRole",
    "AsrAdapter",
    "CodecAdapter",
    "DecoderAdapter",
    "DenoiseAdapter",
    "DiarizationAdapter",
    "DownloadResult",
    "DownloaderAdapter",
    "SemanticEncoderAdapter",
    "SpeakerEmbeddingAdapter",
    "StemAdapter",
    "TokenQuantizerAdapter",
    "TranscodeAdapter",
    "TtsAdapter",
    "VcAdapter",
    "default_registry",
]


def default_registry() -> AdapterRegistry:
    registry = AdapterRegistry()

    def add(role: AdapterRole, id: str, impl) -> None:
        registry.register(AdapterDescriptor(role=role, id=id), impl)

    add(AdapterRole.DOWNLOADER, "urllib", builtin.UrllibDownloader())
    add(AdapterRole.DOWNLOADER, "mock", mocks.MockDownloader())
    add(AdapterRole.DECODER, "wav", builtin.WavFileDecoder())
    add(AdapterRole.DECODER, "mock", mocks.MockDecoder())
    add(AdapterRole.DENOISE, "mock", mocks.MockDenoiseAdapter())
    add(AdapterRole.STEMS, "mock", mocks.MockStemAdapter())
    add(AdapterRole.CODEC, "mock", mocks.MockCodecAdapter())
    add(AdapterRole.SEMANTIC_ENCODER, "mock", mocks.MockSemanticEncoderAdapter())
    add(AdapterRole.TOKEN_QUANTIZER, "mock", mocks.MockTokenQuantizerAdapter())
    add(AdapterRole.TTS, "mock", mocks.MockTtsAdapter())
    add(AdapterRole.VC, "mock", mocks.MockVcAdapter())
    add(AdapterRole.ASR, "mock", mocks.MockAsrAdapter())
    add(AdapterRole.DIARIZATION, "mock", mocks.MockDiarizationAdapter())
    add(AdapterRole.SPEAKER_EMBEDDING, "mock", mocks.MockSpeakerEmbeddingAdapter())
    add(AdapterRole.TRANSCODE, "wav", builtin.WavTranscodeAdapter())
    add(AdapterRole.TRANSCODE, "mock", mocks.MockTranscodeAdapter())
    return registry
