"""Speaker-prompt construction: codec codebooks, semantic tokens, npz archives.

A speaker prompt is the trio the prompted TTS backend consumes: semantic
tokens plus two tiers of codec codebooks, where the coarse tier is by
definition the first rows of the fine tier. A prompt holds the fine tier and
the coarse tier's row count, so the row-prefix property cannot be violated;
only a foreign archive's coarse tier is checked against its fine tier.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adapters.base import CodecAdapter, SemanticEncoderAdapter, TokenQuantizerAdapter
from .audio import AudioClip, replace_file
from .errors import ConfigurationError, FormatError, StageError, ValidationError, backend_call

PROMPT_KEYS = ("semantic_prompt", "coarse_prompt", "fine_prompt")
_META_FRAME_RATE = "meta_frame_rate_hz"
_META_CODEBOOK_SIZE = "meta_codebook_size"
_META_SOURCE_ID = "meta_source_id"
_DEFAULT_FRAME_RATE_HZ = 75.0


@dataclass(frozen=True, eq=False)
class CodebookMatrix:
    """Integer codes of shape [n_codebooks, n_frames] from a neural codec."""

    codes: np.ndarray
    frame_rate_hz: float
    codebook_size: int

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes, dtype=np.int64)
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        if codes.ndim != 2:
            raise ValidationError(f"codes must be 2-D, got shape {codes.shape}")
        if self.frame_rate_hz <= 0:
            raise ValidationError("frame_rate_hz must be positive")
        if self.codebook_size <= 0:
            raise ValidationError("codebook_size must be positive")
        if codes.size and (codes.min() < 0 or codes.max() >= self.codebook_size):
            raise ValidationError(
                f"codes must lie in [0, {self.codebook_size}), "
                f"found range [{codes.min()}, {codes.max()}]"
            )

    @property
    def n_codebooks(self) -> int:
        return self.codes.shape[0]

    @property
    def n_frames(self) -> int:
        return self.codes.shape[1]

    def row_slice(self, n_rows: int) -> CodebookMatrix:
        return CodebookMatrix(
            codes=self.codes[:n_rows],
            frame_rate_hz=self.frame_rate_hz,
            codebook_size=self.codebook_size,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CodebookMatrix):
            return NotImplemented
        return (
            np.array_equal(self.codes, other.codes)
            and self.frame_rate_hz == other.frame_rate_hz
            and self.codebook_size == other.codebook_size
        )


@dataclass(frozen=True, eq=False)
class SpeakerPrompt:
    """Everything the TTS backend needs to speak in one cloned voice.

    The coarse tier is the first `n_coarse` rows of `fine`.
    """

    semantic_tokens: np.ndarray
    fine: CodebookMatrix
    n_coarse: int
    source_id: str = ""

    def __post_init__(self) -> None:
        tokens = np.asarray(self.semantic_tokens, dtype=np.int64)
        tokens.setflags(write=False)
        object.__setattr__(self, "semantic_tokens", tokens)
        if tokens.ndim != 1 or tokens.size == 0:
            raise ValidationError("semantic_tokens must be a non-empty 1-D sequence")
        if tokens.min() < 0:
            raise ValidationError("semantic_tokens must be non-negative")
        if not 0 < self.n_coarse < self.fine.n_codebooks:
            raise ValidationError(
                f"n_coarse must be in (0, {self.fine.n_codebooks}), got {self.n_coarse}"
            )

    @property
    def coarse(self) -> CodebookMatrix:
        return self.fine.row_slice(self.n_coarse)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpeakerPrompt):
            return NotImplemented
        return (
            np.array_equal(self.semantic_tokens, other.semantic_tokens)
            and self.fine == other.fine
            and self.n_coarse == other.n_coarse
            and self.source_id == other.source_id
        )


def extract_codebooks(clip: AudioClip, codec: CodecAdapter) -> CodebookMatrix:
    """Run the codec over a clip; returns the fine code matrix, whose first rows are the coarse tier."""
    clip.require_non_empty("codebook extraction input")
    if clip.sample_rate_hz != codec.native_rate_hz:
        raise ValidationError(
            f"clip rate {clip.sample_rate_hz} must equal codec native rate {codec.native_rate_hz}"
        )
    with backend_call("codec adapter failed", stage="codec", source_id=clip.source_id):
        codes = np.asarray(codec.encode(clip.samples, clip.sample_rate_hz), dtype=np.int64)
    if codes.ndim != 2 or codes.shape[0] != codec.codebook_count:
        raise StageError(
            f"codec returned shape {codes.shape}, expected ({codec.codebook_count}, n_frames)",
            stage="codec",
            source_id=clip.source_id,
        )
    expected_frames = round(clip.duration_s * codec.frame_rate_hz)
    if abs(codes.shape[1] - expected_frames) > 1:
        raise StageError(
            f"codec produced {codes.shape[1]} frames, expected about {expected_frames}",
            stage="codec",
            source_id=clip.source_id,
        )
    return CodebookMatrix(
        codes=codes, frame_rate_hz=codec.frame_rate_hz, codebook_size=codec.codebook_size
    )


def extract_semantic_tokens(
    clip: AudioClip, encoder: SemanticEncoderAdapter, quantizer: TokenQuantizerAdapter
) -> np.ndarray:
    """Encode a clip to self-supervised features and quantize them to tokens."""
    clip.require_non_empty("semantic token extraction input")
    if encoder.embedding_dim != quantizer.embedding_dim:
        raise ConfigurationError(
            f"encoder embedding dim {encoder.embedding_dim} does not match "
            f"quantizer dim {quantizer.embedding_dim}"
        )
    with backend_call("semantic encoding failed", stage="semantic", source_id=clip.source_id):
        features = encoder.encode(clip.samples, clip.sample_rate_hz)
        tokens = np.asarray(quantizer.quantize(features), dtype=np.int64)
    expected = round(clip.duration_s * encoder.token_rate_hz)
    if abs(tokens.size - expected) > 1:
        raise StageError(
            f"quantizer produced {tokens.size} tokens, expected about {expected}",
            stage="semantic",
            source_id=clip.source_id,
        )
    if tokens.size and (tokens.min() < 0 or tokens.max() >= quantizer.vocab_size):
        raise StageError(
            f"tokens out of vocabulary range [0, {quantizer.vocab_size})",
            stage="semantic",
            source_id=clip.source_id,
        )
    return tokens


def save_prompt(prompt: SpeakerPrompt, path: str | Path) -> None:
    """Write the npz archive the TTS backend loads voice prompts from.

    Alongside the three backend-mandated arrays we store frame rate, codebook
    size, and source id, so load_prompt is the exact inverse. Foreign
    archives carrying only the three keys still load (metadata is inferred).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buffer = io.BytesIO()
    np.savez(
        buffer,
        semantic_prompt=prompt.semantic_tokens,
        coarse_prompt=prompt.coarse.codes,
        fine_prompt=prompt.fine.codes,
        **{
            _META_FRAME_RATE: np.float64(prompt.fine.frame_rate_hz),
            _META_CODEBOOK_SIZE: np.int64(prompt.fine.codebook_size),
            _META_SOURCE_ID: np.str_(prompt.source_id),
        },
    )
    replace_file(path, buffer.getvalue())


def load_prompt(path: str | Path) -> SpeakerPrompt:
    """Read a voice-prompt archive back into a validated SpeakerPrompt."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            for key in PROMPT_KEYS:
                if key not in archive:
                    raise FormatError(f"prompt archive {path} is missing key {key!r}")
            arrays = {key: archive[key] for key in PROMPT_KEYS}
            frame_rate = (
                float(archive[_META_FRAME_RATE]) if _META_FRAME_RATE in archive else None
            )
            codebook_size = (
                int(archive[_META_CODEBOOK_SIZE]) if _META_CODEBOOK_SIZE in archive else None
            )
            source_id = str(archive[_META_SOURCE_ID]) if _META_SOURCE_ID in archive else path.stem
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(f"cannot read prompt archive {path}: {exc}") from exc

    for key, value in arrays.items():
        if not np.issubdtype(value.dtype, np.integer):
            raise FormatError(f"prompt archive key {key!r} must be integer-typed, got {value.dtype}")

    fine_codes = arrays["fine_prompt"]
    if fine_codes.ndim != 2:
        raise FormatError(f"fine_prompt must be 2-D, got shape {fine_codes.shape}")
    if codebook_size is None:
        codebook_size = int(fine_codes.max(initial=0)) + 1
    if frame_rate is None:
        frame_rate = _DEFAULT_FRAME_RATE_HZ

    try:
        fine = CodebookMatrix(
            codes=fine_codes.astype(np.int64),
            frame_rate_hz=frame_rate,
            codebook_size=codebook_size,
        )
        coarse = arrays["coarse_prompt"]
        # the archive comes from outside: its coarse tier is checked, not trusted
        if coarse.ndim != 2 or not np.array_equal(coarse, fine.codes[: len(coarse)]):
            raise ValidationError("coarse_prompt must equal the leading rows of fine_prompt")
        return SpeakerPrompt(
            semantic_tokens=arrays["semantic_prompt"].astype(np.int64),
            fine=fine,
            n_coarse=len(coarse),
            source_id=source_id,
        )
    except ValidationError as exc:
        raise FormatError(f"prompt archive {path} holds an invalid prompt: {exc}") from exc
