"""The backend boundary contract, pinned once over every guarded adapter call.

A backend that raises anything other than ConfigurationError or
ValidationError surfaces as the calling stage's error class, with the stage
name, the clip's provenance, a fixed message and the original exception as
``__cause__``. Those two exception types pass through as the same object.
"""

from __future__ import annotations

import numpy as np
import pytest

from voiceforge.adapters.mocks import (
    MockAsrAdapter,
    MockCodecAdapter,
    MockDecoder,
    MockDenoiseAdapter,
    MockDiarizationAdapter,
    MockSemanticEncoderAdapter,
    MockStemAdapter,
    MockTokenQuantizerAdapter,
    MockTranscodeAdapter,
    MockTtsAdapter,
    MockVcAdapter,
    speechlike_waveform,
)
from voiceforge.audio import AudioClip
from voiceforge.conversion import convert_voice, default_conversion_params
from voiceforge.errors import (
    ConfigurationError,
    DecodeError,
    GenerationError,
    StageError,
    ValidationError,
)
from voiceforge.ingest import RawMediaHandle, decode_to_audio
from voiceforge.preprocess import AudioFormat, StemModel, denoise, separate_vocals, transcode
from voiceforge.synthesis import default_generation_params, synthesize
from voiceforge.transcribe import AsrConfig, diarize, transcribe
from voiceforge.voiceprompt import (
    CodebookMatrix,
    SpeakerPrompt,
    extract_codebooks,
    extract_semantic_tokens,
)

SOURCE = "src1"
TEXT = "नमस्ते दुनिया"


def _clip(rate: int = 24000) -> AudioClip:
    samples = speechlike_waveform(rate, rate, seed=3)
    return AudioClip(samples=samples, sample_rate_hz=rate, source_id=SOURCE)


def _failing(adapter, method: str, exc: BaseException):
    def raise_it(*args, **kwargs):
        raise exc

    setattr(adapter, method, raise_it)
    return adapter


def _failing_midway(exc: BaseException):
    """A MockDecoder whose second block raises exc."""

    def blocks():
        yield np.zeros(10, np.float32)
        raise exc

    decoder = MockDecoder()
    decoder.decode_blocks = lambda path: (24000, 20, blocks())
    return decoder


def _prompt() -> SpeakerPrompt:
    codes = np.zeros((8, 4), dtype=np.int64)
    fine = CodebookMatrix(codes=codes, frame_rate_hz=75.0, codebook_size=1024)
    return SpeakerPrompt(semantic_tokens=np.arange(4), fine=fine, n_coarse=2, source_id="spk")


def _media(tmp_path) -> RawMediaHandle:
    path = tmp_path / "source.mock"
    path.write_bytes(b"mock media")
    return RawMediaHandle(path=path)


# id -> call(exc, tmp_path) that drives one guarded adapter call into raising exc
CALLS = {
    "denoise": lambda exc, tmp: denoise(
        _clip(), 0.5, _failing(MockDenoiseAdapter(), "denoise", exc)
    ),
    "stems": lambda exc, tmp: separate_vocals(
        _clip(), StemModel.TWO_STEMS, _failing(MockStemAdapter(), "separate_vocals", exc)
    ),
    "transcode": lambda exc, tmp: transcode(
        _clip(), AudioFormat.WAV_PCM16, _failing(MockTranscodeAdapter(), "encode", exc)
    ),
    "codec": lambda exc, tmp: extract_codebooks(
        _clip(), _failing(MockCodecAdapter(), "encode", exc)
    ),
    "semantic_encoder": lambda exc, tmp: extract_semantic_tokens(
        _clip(),
        _failing(MockSemanticEncoderAdapter(), "encode", exc),
        MockTokenQuantizerAdapter(),
    ),
    "semantic_quantizer": lambda exc, tmp: extract_semantic_tokens(
        _clip(),
        MockSemanticEncoderAdapter(),
        _failing(MockTokenQuantizerAdapter(), "quantize", exc),
    ),
    "transcribe": lambda exc, tmp: transcribe(
        _clip(), AsrConfig(), _failing(MockAsrAdapter(), "transcribe", exc)
    ),
    "diarize": lambda exc, tmp: diarize(
        _clip(), _failing(MockDiarizationAdapter(), "diarize", exc)
    ),
    "convert": lambda exc, tmp: convert_voice(
        _clip(),
        "model.pth",
        "model.index",
        default_conversion_params(),
        _failing(MockVcAdapter(), "convert", exc),
    ),
    "synthesize": lambda exc, tmp: synthesize(
        TEXT, _prompt(), default_generation_params(), _failing(MockTtsAdapter(), "synthesize", exc)
    ),
    "decode": lambda exc, tmp: decode_to_audio(
        _media(tmp), 24000, _failing(MockDecoder(), "decode_blocks", exc)
    ),
    "decode_midway": lambda exc, tmp: decode_to_audio(_media(tmp), 24000, _failing_midway(exc)),
}

# id -> (exact class, stage, source_id, message); {path} is the decoded media file
EXPECTED = {
    "denoise": (
        StageError,
        "denoise",
        SOURCE,
        "[denoise] denoise adapter failed: boom (source src1)",
    ),
    "stems": (StageError, "stems", SOURCE, "[stems] stem adapter failed: boom (source src1)"),
    "transcode": (
        StageError,
        "transcode",
        SOURCE,
        "[transcode] transcode to wav_pcm16 failed: boom (source src1)",
    ),
    "codec": (StageError, "codec", SOURCE, "[codec] codec adapter failed: boom (source src1)"),
    "semantic_encoder": (
        StageError,
        "semantic",
        SOURCE,
        "[semantic] semantic encoding failed: boom (source src1)",
    ),
    "semantic_quantizer": (
        StageError,
        "semantic",
        SOURCE,
        "[semantic] semantic encoding failed: boom (source src1)",
    ),
    "transcribe": (
        StageError,
        "transcribe",
        SOURCE,
        "[transcribe] ASR adapter failed: boom (source src1)",
    ),
    "diarize": (
        StageError,
        "diarize",
        SOURCE,
        "[diarize] diarization adapter failed: boom (source src1)",
    ),
    "convert": (
        StageError,
        "convert",
        SOURCE,
        "[convert] conversion backend failed: boom (source src1)",
    ),
    "synthesize": (
        GenerationError,
        "synthesize",
        "spk",
        "[synthesize] TTS backend failed on 'नमस्ते दुनिया': boom (source spk)",
    ),
    "decode": (
        DecodeError,
        "decode",
        "{path}",
        "[decode] cannot decode {path}: boom (source {path})",
    ),
}
EXPECTED["decode_midway"] = EXPECTED["decode"]


@pytest.mark.parametrize("site", sorted(CALLS))
def test_backend_boundary(site, tmp_path):
    cause = RuntimeError("boom")
    with pytest.raises(Exception) as info:
        CALLS[site](cause, tmp_path)
    cls, stage, source_id, message = EXPECTED[site]
    path = str(tmp_path / "source.mock")
    err = info.value
    assert type(err) is cls
    assert err.stage == stage
    assert err.source_id == source_id.format(path=path)
    assert str(err) == message.format(path=path)
    assert err.__cause__ is cause

    for kind in (ConfigurationError, ValidationError):
        raised = kind(f"{site} refused")
        with pytest.raises(kind) as info:
            CALLS[site](raised, tmp_path)
        assert info.value is raised
