"""Canonical audio representation and the raw WAV (RIFF/PCM16) codec.

Every stage of the pipeline moves :class:`AudioClip` values around: mono
float32 samples in [-1, 1] plus a sample rate and provenance fields. The WAV
encoder here writes the canonical 44-byte-header RIFF/PCM16 little-endian
layout; the decoder walks RIFF chunks so it also reads files with extra
metadata chunks, as long as the audio payload is 16-bit PCM.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from collections.abc import Callable, Generator, Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.signal import firwin, resample_poly

from .errors import FormatError, ValidationError

# PCM16 symmetric scale. Encoding never emits -32768, so decode(q / PCM16_SCALE)
# stays within [-1, 1] and round-trip error is bounded by 0.5 / 32767.
PCM16_SCALE = 32767

MIN_SAMPLE_RATE_HZ = 8000
MAX_SAMPLE_RATE_HZ = 48000

# Output samples per resample_poly call in `resampled_pieces` (rounded down to a multiple of `up`).
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
        require_amplitude(samples)
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


class SampleBlocks(NamedTuple):
    """Mono audio that arrives in pieces: `n_samples` samples at `sample_rate_hz` in all.

    Each block is a 1-D float32 array that its producer leaves unchanged.
    """

    sample_rate_hz: int
    n_samples: int
    blocks: Iterable[np.ndarray]
    source_id: str = ""


def require_amplitude(samples: np.ndarray) -> None:
    """Raise ValidationError unless every sample is within [-1, 1]."""
    # written so that NaN fails the comparison too
    if samples.size and not (np.min(samples) >= -1.0 and np.max(samples) <= 1.0):
        raise ValidationError("samples exceed the [-1, 1] amplitude range or are NaN")


def downmix_mean(channels: np.ndarray) -> np.ndarray:
    """Collapse a [n_channels, n_samples] buffer to mono by arithmetic mean."""
    channels = np.asarray(channels, dtype=np.float32)
    if channels.ndim == 1:
        return channels
    if channels.ndim != 2:
        raise ValidationError(f"expected 1-D or 2-D channel data, got shape {channels.shape}")
    return channels.mean(axis=0, dtype=np.float32)


def resample(
    audio: AudioClip | SampleBlocks, target_rate_hz: int, stop: int | None = None
) -> AudioClip:
    """Polyphase resample a clip, or a stream of blocks, to target_rate_hz.

    A clip already at the target rate passes through bit-exact. Otherwise
    `join_blocks` casts the pieces of `resampled_pieces` one after another
    into one float32 output array, so a stream's memory stays near that
    output plus a few blocks. With `stop`, the output is only its first
    `stop` samples (all of them when `stop` is past the end), and this
    returns as soon as they exist: the rest of the stream is left to its
    owner, and so is checking that the blocks hold `n_samples`.
    """
    if target_rate_hz <= 0:
        raise ValidationError(f"target rate must be positive, got {target_rate_hz}")
    stream = audio
    if isinstance(audio, AudioClip):
        if audio.sample_rate_hz == target_rate_hz or audio.is_empty:
            return replace(audio, samples=audio.samples[:stop], sample_rate_hz=target_rate_hz)
        stream = SampleBlocks(audio.sample_rate_hz, audio.n_samples, [audio.samples])
    n_out = resampled_length(stream.n_samples, stream.sample_rate_hz, target_rate_hz)
    n_out = n_out if stop is None else min(stop, n_out)
    out = join_blocks(n_out, resampled_pieces(stream, target_rate_hz, stop))
    if isinstance(audio, AudioClip):
        return replace(audio, samples=out, sample_rate_hz=target_rate_hz)
    return AudioClip(samples=out, sample_rate_hz=target_rate_hz, source_id=audio.source_id)


def resampled_length(n_samples: int, rate_hz: int, target_rate_hz: int) -> int:
    """How many samples `resample` makes of n_samples at rate_hz (without `stop`)."""
    return -(-n_samples * target_rate_hz // rate_hz)


def join_blocks(n_samples: int, blocks: Iterable[np.ndarray]) -> np.ndarray:
    """The blocks one after another in one float32 array; they must hold n_samples in all."""
    out = np.empty(n_samples, dtype=np.float32)
    got = 0
    for block in blocks:
        if got < n_samples:
            out[got : got + block.size] = block[: n_samples - got]
        got += block.size
        del block  # let it go before the next one is made
    if got != n_samples:
        raise ValidationError(f"expected {n_samples} input samples, the blocks held {got}")
    return out


@functools.lru_cache(maxsize=16)
def _kaiser_taps(up: int, down: int) -> np.ndarray:
    """resample_poly's default filter for up/down: 10*max(up, down) upsampled taps each side.

    Passed as `window=`, it gives the same taps as resample_poly designs per
    call; resample_poly copies the array before scaling it, so the cached
    taps stay read-only and unchanged.
    """
    half_len = 10 * max(up, down)
    taps = firwin(2 * half_len + 1, 1 / max(up, down), window=("kaiser", 5.0))
    taps.flags.writeable = False
    return taps


def resampled_pieces(
    audio: SampleBlocks, target_rate_hz: int, stop: int | None = None
) -> Iterator[np.ndarray]:
    """`resample`'s output as consecutive pieces, each made as soon as its input has arrived.

    At the target rate a piece is one of the stream's blocks. Otherwise it is
    a clipped float64 array of about RESAMPLE_BLOCK samples, which the caller
    casts into a float32 buffer of its own. It is computed from a float64 copy
    of only the input window it needs: each window starts at a multiple of
    `down` and carries a margin of whole multiples of `down` beyond the
    filter's half-length, so every sample is computed exactly as one call over
    the whole input would compute it, however the input is split into blocks.
    A block is let go once every window that reads it is done.

    Without `stop`, the blocks must hold `n_samples` in all. With `stop`,
    the pieces end after `stop` samples, no block is pulled once they are
    made, and the stream's iterator is left open for its owner, who pulls
    and counts the rest. The iterator is closed, if it has `close`, when
    this raises or is closed, so a producer (a decode-ahead thread, an open
    file) is let go even while a traceback keeps the caller alive.
    """
    rate_hz, n_in = audio.sample_rate_hz, audio.n_samples
    n_out = resampled_length(n_in, rate_hz, target_rate_hz)
    if stop is not None:
        n_out = min(stop, n_out)
    blocks = iter(audio.blocks)
    if rate_hz == target_rate_hz:
        pieces = _passed(n_out, blocks)
    else:
        pieces = _polyphase(rate_hz, n_in, n_out, blocks, target_rate_hz)
    try:
        if stop is None:
            got = yield from pieces
            if got != n_in:
                raise ValidationError(f"resample expected {n_in} input samples, the blocks held {got}")
            return
        made = 0
        # each piece is made right after the pull that completes it
        while made < n_out and (piece := next(pieces, None)) is not None:
            made += piece.size
            yield piece
    except BaseException:
        getattr(blocks, "close", lambda: None)()
        raise


def _passed(n_out: int, blocks: Iterator[np.ndarray]) -> Generator[np.ndarray, None, int]:
    """The pieces of `resampled_pieces` at the target rate; returns the input samples pulled."""
    got = 0
    for block in blocks:
        if got < n_out:
            yield block[: n_out - got]
        got += block.size
    return got


def _polyphase(
    rate_hz: int, n_in: int, n_out: int, blocks: Iterator[np.ndarray], target_rate_hz: int
) -> Generator[np.ndarray, None, int]:
    """The pieces of `resampled_pieces` off the target rate; returns the input samples pulled."""
    g = math.gcd(rate_hz, target_rate_hz)
    up, down = target_rate_hz // g, rate_hz // g
    step = max(up, RESAMPLE_BLOCK - RESAMPLE_BLOCK % up)
    taps = _kaiser_taps(up, down)
    half_len = taps.size // 2
    reach = -(-half_len // up)
    margin = -(-reach // down) * down

    def window(j0: int) -> tuple[int, int, int]:
        """Output piece [j0, j1) and the input window [lo, hi) it is computed from."""
        j1 = min(j0 + step, n_out)
        return j1, max(0, j0 // up * down - margin), min(n_in, -(-j1 * down // up) + margin)

    pieces: list[np.ndarray] = []  # the blocks that hold input from sample `base` on
    base = 0
    # one float64 buffer serves every window: a fresh one per window, allocated
    # between the decoder's blocks, costs a page fault per 4 KiB
    window_buf = np.empty(min(n_in, step // up * down + 2 * margin), dtype=np.float64)

    def filtered(j0: int, j1: int, lo: int, hi: int) -> np.ndarray:
        """Output [j0, j1) from a float64 copy of the input [lo, hi), gathered from `pieces`."""
        x = window_buf[: hi - lo]
        start = base
        for piece in pieces:
            a, b = max(lo, start), min(hi, start + piece.size)
            if a < b:
                x[a - lo : b - lo] = piece[a - start : b - start]
            start += piece.size
        y = resample_poly(x, up, down, window=taps)[j0 - lo // down * up : j1 - lo // down * up]
        # anti-alias filter ringing can overshoot; clamp to keep the amplitude invariant
        return np.clip(y, -1.0, 1.0, out=y)

    got = 0  # input samples received so far
    j0 = 0
    j1, lo, hi = window(j0)
    for chunk in blocks:
        got += chunk.size
        if j0 == n_out:  # every window is done: the rest is only counted
            pieces.clear()
            continue
        pieces.append(chunk)
        while j0 < n_out and hi <= got:
            yield filtered(j0, j1, lo, hi)
            j0 = j1
            j1, lo, hi = window(j0)
            while pieces and base + pieces[0].size <= lo:  # no later window reads it
                base += pieces.pop(0).size
    return got


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


def wav_layout(read: Callable[[int, int], bytes], size: int) -> tuple[int, int, int, int]:
    """Walk the RIFF chunks of a PCM16 WAV of `size` bytes, read through `read(pos, n)`.

    Returns (rate, n_channels, data offset, data byte count) without reading
    the data chunk. Raises FormatError for anything that is not integer
    16-bit PCM in one or two channels.
    """
    if size < 44 or read(0, 4) != b"RIFF" or read(8, 4) != b"WAVE":
        raise FormatError("not a RIFF/WAVE payload")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= size:
        chunk_id, chunk_len = struct.unpack("<4sI", read(pos, 8))
        if pos + 8 + chunk_len > size:
            raise FormatError(f"WAV chunk of {chunk_len} bytes runs past the end of the payload")
        if chunk_id == b"fmt ":
            fmt = (pos + 8, chunk_len)
        elif chunk_id == b"data":
            data = (pos + 8, chunk_len)
        pos += 8 + chunk_len + (chunk_len & 1)
    if fmt is None or data is None:
        raise FormatError("WAV payload is missing its fmt or data chunk")
    if fmt[1] < 16:
        raise FormatError(f"WAV fmt chunk is {fmt[1]} bytes, expected at least 16")
    if data[1] % 2:
        raise FormatError(f"WAV data chunk has an odd byte count ({data[1]})")
    audio_format, n_channels, rate, _, _, bits = struct.unpack("<HHIIHH", read(fmt[0], 16))
    if audio_format != 1 or bits != 16:
        raise FormatError(f"only PCM16 WAV is supported (format={audio_format}, bits={bits})")
    if n_channels not in (1, 2):
        raise FormatError(f"unsupported channel count {n_channels}")
    if n_channels == 2 and data[1] % 4:
        raise FormatError(f"stereo WAV data chunk holds an odd number of values ({data[1] // 2})")
    return rate, n_channels, *data


def pcm16_to_mono(q: np.ndarray, n_channels: int) -> np.ndarray:
    """Interleaved int16 frames -> mono float32; stereo is downmixed by mean."""
    if n_channels == 2:
        return downmix_mean(dequantize_pcm16(q.reshape(-1, 2).T))
    return dequantize_pcm16(q)


def decode_wav_pcm16(payload: bytes) -> tuple[np.ndarray, int]:
    """Parse RIFF/PCM16 bytes -> (mono float32 samples, rate).

    Stereo payloads are downmixed by mean. Raises FormatError for anything
    that is not integer 16-bit PCM.
    """
    rate, n_channels, offset, length = wav_layout(lambda pos, n: payload[pos : pos + n], len(payload))
    q = np.frombuffer(payload, dtype="<i2", count=length // 2, offset=offset)
    return pcm16_to_mono(q, n_channels), rate


def load_wav(path, source_id: str = "", offset_s: float = 0.0) -> AudioClip:
    with open(path, "rb") as fh:
        samples, rate = decode_wav_pcm16(fh.read())
    return AudioClip(samples=samples, sample_rate_hz=rate, source_id=source_id, offset_s=offset_s)


def replace_file(path, payload: bytes) -> None:
    """Write `payload` to `path` whole or not at all: a killed write leaves the old file.

    The bytes go to `.<name>.<pid>.tmp` beside `path`, are flushed and
    fsynced, and the temp file is renamed over `path`. If anything fails, the
    temp file is deleted.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):
            os.unlink(tmp)


def save_wav(clip: AudioClip, path) -> None:
    replace_file(path, encode_wav_pcm16(clip))
