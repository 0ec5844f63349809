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
import scipy  # noqa: F401  unused: kept until perfbench/child.py:104 stops reading its version (ROADMAP F4)

from .errors import FormatError, ValidationError

# PCM16 symmetric scale. Encoding never emits -32768, so decode(q / PCM16_SCALE)
# stays within [-1, 1] and round-trip error is bounded by 0.5 / 32767.
PCM16_SCALE = 32767

MIN_SAMPLE_RATE_HZ = 8000
MAX_SAMPLE_RATE_HZ = 48000

# Output samples per `_upfirdn` call in `resampled_pieces` (rounded down to a multiple of `up`).
# 2^16 keeps its float64 input window and output buffer near 0.7 and 0.5 MiB (2^18 took
# 2.8 and 2.0 at 44.1 -> 32 kHz); the exact fixed-point sums make the bytes independent of it.
RESAMPLE_BLOCK = 1 << 16
# The resampler's fixed point: taps are multiples of 1/TAP_SCALE, inputs of 1/INPUT_SCALE
# (`_upfirdn` takes the input counts and its bank's taps hold the 1/INPUT_SCALE).
TAP_SCALE = 2.0**26
INPUT_SCALE = 2.0**24
# The most consecutive outputs in one block of `_filter_bank` (its matrix's columns), and the
# most m*n*k of one product in `_upfirdn`: OpenBLAS runs a gemm of at most 2^18 on one thread.
PHASE_BLOCK = 16
BLAS_MNK_CAP = 1 << 18
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

    A windowed sinc with cutoff 1/max(up, down) and a Kaiser window of beta
    5, scaled to unit gain at zero frequency. The operations, and their
    order, are those of `scipy.signal.firwin(2 * half_len + 1, cutoff,
    window=("kaiser", 5.0))`, with `np.i0` for its Bessel function: rounded
    as `_filter_bank` rounds them, the taps are firwin's bytes.
    """
    numtaps = 20 * max(up, down) + 1
    cutoff = np.float64(1 / max(up, down))
    m = np.arange(0, numtaps, dtype=np.float64) - 0.5 * (numtaps - 1)
    taps = cutoff * np.sinc(cutoff * m)
    n = np.arange(0, numtaps, dtype=np.float64)
    alpha = (numtaps - 1) / 2.0
    taps *= np.i0(5.0 * np.sqrt(1 - ((n - alpha) / alpha) ** 2.0)) / np.i0(5.0)
    taps /= np.sum(taps)  # firwin weighs each tap by cos(0) = 1 before it sums them
    taps.flags.writeable = False
    return taps


class _FilterBank(NamedTuple):
    """`_kaiser_taps(up, down)` times `up`, as resample_poly scales it, in fixed point and phase blocks.

    Outputs come in groups of `up`, and group g reads the `span` inputs from
    g*down + first on. A block holds the taps of at most PHASE_BLOCK
    consecutive outputs: PHASE_BLOCK phases of one group when `up` is at
    least PHASE_BLOCK, otherwise every phase of `groups` = PHASE_BLOCK // up
    consecutive groups. For a block row from group g on (g a multiple of
    `groups`), its `(r0, c, h, one, m, n)` makes the outputs g*up + r0 + i,
    i < h.shape[1]: the h.shape[0] inputs from g*down + first + c on, times
    `h`. `one` is the top left of `h` that makes group g alone. A tap is a
    multiple of 2^-26 times 2^-24, so that it meets an input as an integer
    count of 2^-24; an output's taps sit in its column, and the zeros around
    them band the matrix.

    Consecutive block rows start `groups`*down inputs apart. Where that is
    less than h.shape[0], the rows overlap, and BLAS cannot read overlapping
    rows in place. Rows m apart do not overlap, m the least count for which
    m*groups*down is at least h.shape[0]. So `_upfirdn` takes m consecutive
    block rows as one merged row (m is 1 where rows do not overlap), and the
    k-th block rows of the merged rows as the k-th product of a stack. `n`
    is the most merged rows of one stack within BLAS_MNK_CAP.
    """

    up: int
    down: int
    first: int
    span: int
    groups: int
    blocks: tuple[tuple[int, int, np.ndarray, np.ndarray, int, int], ...]


@functools.lru_cache(maxsize=16)
def _filter_bank(up: int, down: int) -> _FilterBank:
    taps = _kaiser_taps(up, down)
    per = (taps.size - 1) // up + 1  # the most taps that one output meets
    h = np.zeros(per * up)
    h[: taps.size] = np.rint(taps * (up * TAP_SCALE))  # counts of 2^-26
    groups = max(1, PHASE_BLOCK // up)
    v = np.arange(groups * up) * down + taps.size // 2  # output r from group 0 on, on the upsampled grid
    # row r holds the taps that output r meets, in the order of its inputs
    phases = h[v[:, None] % up + up * np.arange(per)][:, ::-1]
    # an output sums these counts times input counts of at most 2^24; below 2^53 every partial sum is exact
    assert np.abs(phases).sum(axis=1).max() * INPUT_SCALE < 2.0**53, (up, down)
    phases /= TAP_SCALE * INPUT_SCALE  # so a tap times an input count is an integer times 2^-50
    starts = v // up - v[0] // up  # where each output's inputs start, from output 0's
    blocks = []
    for r0 in range(0, groups * up, PHASE_BLOCK):
        rows = starts[r0 : r0 + PHASE_BLOCK] - starts[r0] + np.arange(per)[:, None]
        block = np.zeros((rows[-1, -1] + 1, rows.shape[1]))
        block[rows, np.arange(rows.shape[1])] = phases[r0 : r0 + PHASE_BLOCK].T
        block.flags.writeable = False
        one = block[: block.shape[0] - (groups - 1) * down, : block.shape[1] // groups]
        m = -(-block.shape[0] // (groups * down))
        blocks.append((r0, int(starts[r0]), block, one, m, max(1, BLAS_MNK_CAP // block.size)))
    first = int(v[0] // up) - (per - 1)
    return _FilterBank(up, down, first, int(starts[up - 1]) + per, groups, tuple(blocks))


def _upfirdn(x: np.ndarray, lo: int, j0: int, j1: int, bank: _FilterBank, acc: np.ndarray) -> np.ndarray:
    """Outputs [j0, j1) of the polyphase filter `bank`, as resample_poly computes them up to rounding.

    `x` is the contiguous float64 input from sample `lo` on, in integer
    counts of 2^-24, with zeros where it lies before the input's start or
    after its end. It must hold every sample that those outputs read, or
    this raises ValueError. The outputs are clipped to [-1, 1] in `acc`, a
    float64 buffer that holds their groups (j0 is a multiple of `up`, or
    `acc` holds one group more), and returned as a view of it.

    Each product of a tap and an input is an integer times 2^-50, and
    `_filter_bank` checks that every sum of them stays below 2^53 such
    units. So every sum is exact in any order, and BLAS may add them as it
    likes: an output is the integer sum times 2^-50 on any machine. Each
    block is one `matmul` per BLAS_MNK_CAP of work: a stack of m products,
    the k-th of the block's matrix with the k-th block rows of the merged
    rows (see `_FilterBank`). The rows of each product do not overlap, so
    BLAS reads the input where it lies, with no copy. The groups after the
    last whole merged row are one more `matmul`, a stack of one-group
    products, so no product reads an input that its outputs do not.
    """
    up, down, q = bank.up, bank.down, bank.groups
    g0, g1 = j0 // up, -(-j1 // up)
    start = g0 * down + bank.first - lo
    stop = start + (g1 - g0 - 1) * down + bank.span
    if start < 0 or stop > x.size:  # before any view of x is made, naming both ranges
        raise ValueError(f"outputs [{j0}, {j1}) read inputs [{start}, {stop}) of {x.size}")
    out = acc[: (g1 - g0) * up].reshape(g1 - g0, up)
    size = x.itemsize

    def product(r0: int, c: int, g: int, rows: int, k: int, e: int, h: np.ndarray) -> None:
        """Stack entry i of row r: the `e` groups from g + (r*k + i)*e on, times `h`."""
        strides = (e * down * size, k * e * down * size, size)
        inputs = np.ndarray((k, rows, h.shape[0]), x.dtype, x, (start + c + g * down) * size, strides)
        dest = out[g : g + rows * k * e].reshape(rows, k, e * up)[:, :, r0 : r0 + h.shape[1]]
        np.matmul(inputs, h, out=dest.transpose(1, 0, 2))

    for r0, c, h, one, m, n in bank.blocks:
        whole = (g1 - g0) // (m * q) * (m * q)  # the groups of whole merged rows
        for g in range(0, whole, n * m * q):
            product(r0, c, g, min(n, (whole - g) // (m * q)), m, q, h)
        if whole < g1 - g0:
            product(r0, c, whole, 1, g1 - g0 - whole, 1, one)
    # anti-alias filter ringing can overshoot; clip to keep the amplitude invariant.
    # BLAS may sum to -0.0 where the integers sum to 0; adding 0.0 makes it +0.0
    np.clip(out, -1.0, 1.0, out=out)
    out += 0.0
    return out.reshape(-1)[j0 - g0 * up : j1 - g0 * up]


def resampled_pieces(
    audio: SampleBlocks, target_rate_hz: int, stop: int | None = None
) -> Iterator[np.ndarray]:
    """`resample`'s output as consecutive pieces, each made as soon as its input has arrived.

    At the target rate a piece is one of the stream's blocks. Otherwise it is
    RESAMPLE_BLOCK clipped float64 samples (the last one fewer) in a buffer
    that the next piece reuses, so the caller casts each piece into a float32
    buffer of its own before it pulls the next. A piece is computed by
    `_upfirdn` from a float64 copy of only the input window it needs: every
    input sample its outputs read, with zeros outside the input. So every
    sample is computed exactly as one pass over the whole input would compute
    it, however the input is split into blocks. A block is let go once every
    window that reads it is done.

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
    bank = _filter_bank(up, down)
    first, span = bank.first, bank.span

    def window(j0: int) -> tuple[int, int, int]:
        """Output piece [j0, j1) and the input window [lo, hi) it reads, zeros outside the input."""
        j1 = min(j0 + step, n_out)
        return j1, j0 // up * down + first, (-(-j1 // up) - 1) * down + first + span

    pieces: list[np.ndarray] = []  # the blocks that hold input from sample `base` on
    base = 0
    # one float64 buffer serves every window: a fresh one per window, allocated
    # between the decoder's blocks, costs a page fault per 4 KiB
    window_buf = np.empty((-(-min(step, n_out) // up) - 1) * down + span, dtype=np.float64)
    acc = np.empty(-(-min(step, n_out) // up) * up, dtype=np.float64)  # and one for the output

    def filtered(j0: int, j1: int, lo: int, hi: int) -> np.ndarray:
        """Output [j0, j1) from a float64 copy of the input [lo, hi), gathered from `pieces`."""
        x = window_buf[: hi - lo]
        start = base
        for piece in pieces:
            a, b = max(lo, start), min(hi, start + piece.size)
            if a < b:
                np.multiply(piece[a - start : b - start], INPUT_SCALE, out=x[a - lo : b - lo])
            start += piece.size
        x[: max(0, -lo)] = 0.0  # the samples before the input's start
        x[max(0, n_in - lo) :] = 0.0  # and after its end (or past n_in in a faulty stream)
        np.rint(x, out=x)  # to counts of 2^-24, which `_upfirdn` sums exactly
        return _upfirdn(x, lo, j0, j1, bank, acc)

    got = 0  # input samples received so far
    j0 = 0
    j1, lo, hi = window(j0)
    for chunk in blocks:
        got += chunk.size
        if j0 == n_out:  # every window is done: the rest is only counted
            pieces.clear()
            continue
        pieces.append(chunk)
        while j0 < n_out and min(hi, n_in) <= got:
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


def load_wav(path) -> AudioClip:
    with open(path, "rb") as fh:
        samples, rate = decode_wav_pcm16(fh.read())
    return AudioClip(samples=samples, sample_rate_hz=rate)


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
