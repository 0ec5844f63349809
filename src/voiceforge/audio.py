"""Canonical audio representation and the raw WAV (RIFF/PCM16) codec.

Every stage of the pipeline moves :class:`AudioClip` values around: mono
float32 samples in [-1, 1] plus a sample rate and provenance fields. The WAV
encoder here writes the canonical 44-byte-header RIFF/PCM16 little-endian
layout; the decoder walks RIFF chunks so it also reads files with extra
metadata chunks, as long as the audio payload is 16-bit PCM.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import resample_poly

from .errors import FormatError, ValidationError

# PCM16 symmetric scale. Encoding never emits -32768, so decode(q / PCM16_SCALE)
# stays within [-1, 1] and round-trip error is bounded by 0.5 / 32767.
PCM16_SCALE = 32767

MIN_SAMPLE_RATE_HZ = 8000
MAX_SAMPLE_RATE_HZ = 48000

# Output samples per resample_poly call in `resample` (rounded down to a multiple of `up`).
RESAMPLE_BLOCK = 1 << 18
# Samples per float64 block in `quantize_pcm16`.
QUANTIZE_BLOCK = 1 << 15


@dataclass(frozen=True)
class AudioClip:
    """Mono audio buffer with provenance.

    samples: 1-D float32 array, every value in [-1, 1].
    sample_rate_hz: positive integer rate.
    source_id: stable identifier of the originating media.
    offset_s: position of this clip within the original source, in seconds.
    """

    samples: np.ndarray
    sample_rate_hz: int
    source_id: str = ""
    offset_s: float = 0.0

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float32)
        if samples.ndim != 1:
            raise ValidationError(f"AudioClip requires mono 1-D samples, got shape {samples.shape}")
        if not isinstance(self.sample_rate_hz, (int, np.integer)) or self.sample_rate_hz <= 0:
            raise ValidationError(f"sample_rate_hz must be a positive integer, got {self.sample_rate_hz!r}")
        if self.offset_s < 0:
            raise ValidationError(f"offset_s must be non-negative, got {self.offset_s}")
        # written so that NaN fails the comparison too
        if samples.size and not (np.min(samples) >= -1.0 and np.max(samples) <= 1.0):
            raise ValidationError("samples exceed the [-1, 1] amplitude range or are NaN")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    @property
    def is_empty(self) -> bool:
        return self.samples.size == 0

    def slice_samples(self, start: int, stop: int) -> "AudioClip":
        """Sub-clip over [start, stop) sample indices, offset adjusted."""
        if not (0 <= start <= stop <= self.samples.size):
            raise ValidationError(f"slice [{start}, {stop}) out of range for {self.samples.size} samples")
        return replace(
            self,
            samples=self.samples[start:stop],
            offset_s=self.offset_s + start / self.sample_rate_hz,
        )

    def require_non_empty(self, what: str = "operation") -> "AudioClip":
        if self.is_empty:
            raise ValidationError(f"{what} requires a non-empty clip")
        return self


def downmix_mean(channels: np.ndarray) -> np.ndarray:
    """Collapse a [n_channels, n_samples] buffer to mono by arithmetic mean."""
    channels = np.asarray(channels, dtype=np.float32)
    if channels.ndim == 1:
        return channels
    if channels.ndim != 2:
        raise ValidationError(f"expected 1-D or 2-D channel data, got shape {channels.shape}")
    return channels.mean(axis=0, dtype=np.float32)


def resample(clip: AudioClip, target_rate_hz: int) -> AudioClip:
    """Polyphase resample to target_rate_hz; identity input passes through bit-exact.

    The output is filled one block of about RESAMPLE_BLOCK samples at a time,
    each from a float64 copy of only the input window it needs, so memory
    stays near the float32 input plus the float32 output. Each window starts
    at a multiple of `down` and carries a margin of whole multiples of `down`
    beyond the filter's half-length, so every kept sample is computed exactly
    as a single call over the whole input would compute it.
    """
    if target_rate_hz <= 0:
        raise ValidationError(f"target rate must be positive, got {target_rate_hz}")
    if clip.sample_rate_hz == target_rate_hz or clip.is_empty:
        return replace(clip, sample_rate_hz=target_rate_hz)
    g = math.gcd(clip.sample_rate_hz, target_rate_hz)
    up, down = target_rate_hz // g, clip.sample_rate_hz // g
    n_in = clip.n_samples
    n_out = -(-n_in * up // down)
    block = max(up, RESAMPLE_BLOCK - RESAMPLE_BLOCK % up)
    # resample_poly's default filter reaches 10*max(up, down) upsampled taps each side
    reach = -(-10 * max(up, down) // up)
    margin = -(-reach // down) * down
    out = np.empty(n_out, dtype=np.float32)
    for j0 in range(0, n_out, block):
        j1 = min(j0 + block, n_out)
        lo = max(0, j0 // up * down - margin)
        hi = min(n_in, -(-j1 * down // up) + margin)
        y = resample_poly(clip.samples[lo:hi].astype(np.float64), up, down)
        y = y[j0 - lo // down * up : j1 - lo // down * up]
        # anti-alias filter ringing can overshoot; clamp to keep the amplitude invariant
        np.clip(y, -1.0, 1.0, out=y)
        out[j0:j1] = y
    return replace(clip, samples=out, sample_rate_hz=target_rate_hz)


def quantize_pcm16(samples: np.ndarray) -> np.ndarray:
    """Float [-1, 1] -> int16 with symmetric scale (never emits -32768).

    Scales in float64 one block of QUANTIZE_BLOCK samples at a time, so the
    only full-length array made is the int16 result.
    """
    flat = np.asarray(samples).reshape(-1)
    out = np.empty(flat.size, dtype=np.int16)
    for start in range(0, flat.size, QUANTIZE_BLOCK):
        q = flat[start : start + QUANTIZE_BLOCK].astype(np.float64)
        q *= PCM16_SCALE
        np.rint(q, out=q)
        np.clip(q, -PCM16_SCALE, PCM16_SCALE, out=q)
        out[start : start + q.size] = q
    return out.reshape(np.shape(samples))


def dequantize_pcm16(q: np.ndarray) -> np.ndarray:
    """int16 -> float32 in [-1, 1]; foreign -32768 values clamp to -1.0."""
    x = np.asarray(q).astype(np.float32)
    x /= np.float32(PCM16_SCALE)
    return np.maximum(x, -1, out=x)


def encode_wav_pcm16(clip: AudioClip) -> bytes:
    """Serialize a clip as canonical RIFF/PCM16: 44-byte header + payload."""
    clip.require_non_empty("WAV encoding")
    pcm = quantize_pcm16(clip.samples).astype("<i2", copy=False).tobytes()
    rate = clip.sample_rate_hz
    header = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(pcm))
    return header + pcm


def decode_wav_pcm16(payload: bytes) -> tuple[np.ndarray, int]:
    """Parse RIFF/PCM16 bytes -> (mono float32 samples, rate).

    Stereo payloads are downmixed by mean. Raises FormatError for anything
    that is not integer 16-bit PCM.
    """
    if len(payload) < 44 or payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise FormatError("not a RIFF/WAVE payload")
    view = memoryview(payload)  # chunk bodies are views, not copies of the payload
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(view):
        chunk_id = bytes(view[pos : pos + 4])
        (chunk_len,) = struct.unpack_from("<I", view, pos + 4)
        if pos + 8 + chunk_len > len(view):
            raise FormatError(f"WAV chunk of {chunk_len} bytes runs past the end of the payload")
        body = view[pos + 8 : pos + 8 + chunk_len]
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + chunk_len + (chunk_len & 1)
    if fmt is None or data is None:
        raise FormatError("WAV payload is missing its fmt or data chunk")
    if len(fmt) < 16:
        raise FormatError(f"WAV fmt chunk is {len(fmt)} bytes, expected at least 16")
    if len(data) % 2:
        raise FormatError(f"WAV data chunk has an odd byte count ({len(data)})")
    audio_format, n_channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format != 1 or bits != 16:
        raise FormatError(f"only PCM16 WAV is supported (format={audio_format}, bits={bits})")
    if n_channels not in (1, 2):
        raise FormatError(f"unsupported channel count {n_channels}")
    q = np.frombuffer(data, dtype="<i2")
    if n_channels == 2:
        if q.size % 2:
            raise FormatError(f"stereo WAV data chunk holds an odd number of values ({q.size})")
        return downmix_mean(dequantize_pcm16(q.reshape(-1, 2).T)), rate
    return dequantize_pcm16(q), rate


def load_wav(path, source_id: str = "", offset_s: float = 0.0) -> AudioClip:
    with open(path, "rb") as fh:
        samples, rate = decode_wav_pcm16(fh.read())
    return AudioClip(samples=samples, sample_rate_hz=rate, source_id=source_id, offset_s=offset_s)


def save_wav(clip: AudioClip, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_wav_pcm16(clip))
