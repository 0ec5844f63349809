"""Deterministic mock adapters for every role.

These stand in for the real model backends in tests and dry runs: identical
inputs (and seeds) produce bit-identical outputs, and nothing here downloads
weights or requires a GPU. The mock media container ("MOCKAV") is a 28-byte
header from which the decoder synthesizes a speech-like waveform, so an
entire acquisition-to-dataset run is reproducible from a URI string alone.
WAV is not handled here: `MockDecoder` and `MockTranscodeAdapter` extend the
builtin WAV adapters and add only the MOCKAV and mock MP3 formats. The
waveform mocks compute in chunks: only their float32 output is full length.
"""

from __future__ import annotations

import hashlib
import os
import struct
from collections.abc import Callable, Iterator
from urllib.parse import parse_qs, urlsplit

import numpy as np

from ..audio import AudioClip, dequantize_pcm16, join_blocks, quantize_pcm16, resample
from ..errors import ConfigurationError, FormatError
from ..quality import SILENCE_EPS, SPEECH_GAP_S
from .base import DownloadResult
from .builtin import WavFileDecoder, WavTranscodeAdapter

MOCKAV_MAGIC = b"MOCKAV00"

_HINDI_SENTENCES = [
    "नमस्ते, आप कैसे हैं",
    "आज मौसम बहुत सुहावना है",
    "मुझे संगीत सुनना पसंद है",
    "यह एक परीक्षण वाक्य है",
    "भारत एक विशाल देश है",
    "कल हम बाजार जाएंगे",
    "पानी जीवन के लिए आवश्यक है",
    "बच्चे बगीचे में खेल रहे हैं",
    "किताबें ज्ञान का भंडार हैं",
    "सुबह की सैर सेहत के लिए अच्छी है",
]

_ENGLISH_SENTENCES = [
    "hello there how are you",
    "the weather is pleasant today",
    "i like listening to music",
    "this is a test sentence",
    "water is essential for life",
    "the children are playing outside",
    "books are a store of knowledge",
    "a morning walk is good for health",
]


def _hash64(*parts: bytes) -> int:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part)
    return int.from_bytes(h.digest(), "big")


# Samples per chunk of the waveform mocks, whose float64 scratch is a few chunks.
MOCK_CHUNK = 1 << 14


def _chunked(out: np.ndarray, fill: Callable[..., None], rate: int = 1) -> np.ndarray:
    """Fill float32 `out` MOCK_CHUNK samples at a time, clipped to [-1, 1].

    `fill(lo, hi, t, wave, tmp)` leaves out[lo:hi] in float64 `wave`, given `t` = (lo, ...,
    hi - 1) / rate and free `tmp`, all made per call (the decoder runs on another thread).
    """
    bufs = np.empty((3, min(out.size, MOCK_CHUNK)))
    for lo in range(0, out.size, MOCK_CHUNK):
        hi = min(lo + MOCK_CHUNK, out.size)
        t, wave, tmp = bufs[:, : hi - lo]
        np.divide(np.arange(lo, hi, dtype=np.float64), rate, out=t)
        fill(lo, hi, t, wave, tmp)
        out[lo:hi] = np.clip(wave, -1.0, 1.0, out=wave)
    return out


def _partials(t, wave, tmp, f0: float, partials: list[tuple[int, float, float]]) -> None:
    """wave = sum(amp * sin(2 pi f0 k t + phase)), adding (k, amp, phase) in order."""
    wave.fill(0.0)
    for k, amp, phase in partials:
        np.multiply(t, 2.0 * np.pi * f0 * k, out=tmp)
        tmp += phase
        np.sin(tmp, out=tmp)
        tmp *= amp
        wave += tmp


def _fade(wave: np.ndarray, lo: int, n: int, ramp: np.ndarray) -> None:
    """Fade samples lo.. of n, in `wave`, in by `ramp` and out by its reverse, which wins an overlap."""
    hi, out_at = lo + wave.size, n - ramp.size
    head = min(ramp.size, out_at, hi)
    wave[: max(0, head - lo)] *= ramp[lo:head]
    a = max(lo, out_at)
    wave[a - lo :] *= ramp[::-1][a - out_at : max(a, hi) - out_at]


def speechlike_blocks(n_samples: int, rate: int, seed: int) -> Iterator[np.ndarray]:
    """`speechlike_waveform` one utterance plus its following silence at a time."""
    rng = np.random.default_rng(seed)
    pos = 0
    while pos < n_samples:
        # every draw of the utterance, in order, before its chunks
        utter = int(rng.uniform(2.0, 6.0) * rate)
        gap = int(rng.uniform(0.4, 0.8) * rate)
        f0 = rng.uniform(90.0, 220.0)
        partials = [(k, amp, rng.uniform(0, 2 * np.pi)) for k, amp in ((1, 0.5), (2, 0.25), (3, 0.12))]
        vibrato = 2.0 * np.pi * rng.uniform(3.0, 6.0)
        seg = min(utter, n_samples - pos)  # at least 1: utter >= 2 for any rate >= 1
        ramp = np.linspace(0.0, 1.0, min(max(1, int(0.02 * rate)), seg))

        def fill(lo, hi, t, wave, tmp):
            # 0.45 * sum(amp * sin(...)) * vibrato, then the fades
            _partials(t, wave, tmp, f0, partials)
            np.multiply(t, vibrato, out=tmp)
            np.sin(tmp, out=tmp)
            tmp *= 0.15
            tmp += 1.0
            wave *= 0.45
            wave *= tmp
            _fade(wave, lo, seg, ramp)

        block = np.zeros(min(utter + gap, n_samples - pos), dtype=np.float32)
        _chunked(block[:seg], fill, rate)
        yield block
        pos += utter + gap


def speechlike_waveform(n_samples: int, rate: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-speech: harmonic utterances separated by silence."""
    return join_blocks(n_samples, speechlike_blocks(n_samples, rate, seed))


# Samples per block in `_voiced_spans`.
SPAN_BLOCK = 1 << 18


def _voiced_spans(samples: np.ndarray, rate: int) -> list[tuple[int, int]]:
    """Sample-index spans of non-silent audio, merged over gaps < SPEECH_GAP_S.

    Two voiced samples i < j with no voiced sample between them fall into
    one span when j - i <= int(SPEECH_GAP_S * rate). The scan runs over SPAN_BLOCK
    samples at a time, carrying a voiced run and a span open at a block's
    end into the next block.
    """
    gap = int(SPEECH_GAP_S * rate)
    spans: list[tuple[int, int]] = []
    span_start = last_end = None  # the open span, and the end of its last voiced run
    run_start = None  # a voiced run still open at the end of the previous block
    for b0 in range(0, samples.size, SPAN_BLOCK):
        voiced = np.abs(samples[b0 : b0 + SPAN_BLOCK]) >= SILENCE_EPS
        if gap == 0:  # below 4 Hz even neighbouring samples are more than `gap` apart
            spans += [(i, i + 1) for i in (np.flatnonzero(voiced) + b0).tolist()]
            continue
        edges = np.diff(voiced.view(np.int8), prepend=np.int8(run_start is not None))
        starts = np.flatnonzero(edges == 1) + b0
        ends = np.flatnonzero(edges == -1) + b0  # one past the last sample of each voiced run
        if run_start is not None:
            starts = np.r_[run_start, starts]
        run_start = None
        if voiced[-1]:  # the last run goes on into the next block, or ends with the audio
            if b0 + SPAN_BLOCK < samples.size:
                run_start, starts = int(starts[-1]), starts[:-1]
            else:
                ends = np.r_[ends, samples.size]
        if starts.size == 0:
            continue
        # run k's last voiced sample is ends[k] - 1, so the next run stays in the
        # span unless starts[k + 1] - (ends[k] - 1) > gap
        before = np.r_[starts[0] if last_end is None else last_end, ends[:-1]]
        cut = np.flatnonzero(starts - before >= gap)
        opens = [int(starts[0]) if span_start is None else span_start, *starts[cut].tolist()]
        spans += zip(opens[:-1], before[cut].tolist())
        span_start, last_end = int(opens[-1]), int(ends[-1])
    if span_start is not None:
        spans.append((span_start, last_end))
    return spans


class MockDownloader:
    """Writes a MOCKAV stub for any URI; duration/rate/seed via query params.

    Example: ``mock://lecture?duration=3600&rate=32000&seed=7``. Unknown URIs
    fall back to the class defaults with a seed hashed from the URI.
    """

    duration_s = 60.0
    rate_hz = 24000

    def download(self, uri: str, dest_path: str) -> DownloadResult:
        parts = urlsplit(uri)
        query = parse_qs(parts.query)
        duration = float(query.get("duration", [self.duration_s])[0])
        rate = int(query.get("rate", [self.rate_hz])[0])
        seed = int(query.get("seed", [_hash64(uri.encode()) % 2**31])[0])
        n_samples = int(round(duration * rate))
        with open(dest_path, "wb") as fh:
            fh.write(MOCKAV_MAGIC + struct.pack("<IQQ", rate, n_samples, seed))
        return DownloadResult(container_format="mockav", duration_s=n_samples / rate)


class MockDecoder(WavFileDecoder):
    """The builtin WAV decoder plus MOCKAV stubs, which decode to a synthesized waveform."""

    def decode_blocks(self, path: str) -> tuple[int, int, Iterator[np.ndarray]]:
        """A MOCKAV stub one utterance plus its silence at a time; anything else as WAV."""
        with open(path, "rb") as fh:
            head = fh.read(28)
        if head[:8] != MOCKAV_MAGIC:
            return super().decode_blocks(path)
        if len(head) < 28:
            raise FormatError("truncated MOCKAV payload")
        rate, n_samples, seed = struct.unpack_from("<IQQ", head, 8)
        return rate, n_samples, speechlike_blocks(n_samples, rate, seed)


def _smoothing_pass(samples: np.ndarray, window: int, a: float, b: float) -> np.ndarray:
    """a * x + b * np.convolve(x, ones(window) / window, "full")[h : h + x.size], h = window // 2.

    That is "same" mode where x holds `window` samples or more. A chunk's sums come from a slice
    with every sample they read and, where there are that many, `window` samples, on which
    numpy sums as on the whole (it swaps the operands of a shorter one)."""
    n, h = samples.size, window // 2
    kernel = np.ones(window, dtype=np.float64) / window

    def fill(lo, hi, t, wave, tmp):
        s = max(0, min(lo - h, n - window))
        e = min(n, max(hi + h, s + window))
        smoothed = np.convolve(samples[s:e], kernel, "full")[lo + h - s : hi + h - s]
        smoothed *= b
        np.multiply(samples[lo:hi], a, out=wave, dtype=np.float64)
        wave += smoothed

    return _chunked(np.empty(n, dtype=np.float32), fill)


class MockDenoiseAdapter:
    """Strength-weighted moving-average smoothing; strength 0 is the identity."""

    window = 5

    def denoise(self, samples: np.ndarray, rate: int, strength: float) -> np.ndarray:
        if strength == 0.0 or samples.size == 0:
            return samples
        return _smoothing_pass(samples, self.window, 1.0 - strength, strength)


class MockStemAdapter:
    """Fake vocal isolation: removes the slow-moving (accompaniment-ish) trend."""

    def __init__(self, supported: tuple[str, ...] = ("two_stems", "four_stems", "five_stems")):
        self.supported = supported

    def separate_vocals(self, samples: np.ndarray, rate: int, stem_model: str) -> np.ndarray:
        if stem_model not in self.supported:
            raise ConfigurationError(
                f"stem model {stem_model!r} not supported; choose from {sorted(self.supported)}"
            )
        if samples.size == 0:
            return samples
        # x - trend: negation and multiplying by 1 are exact
        return _smoothing_pass(samples, max(3, int(0.01 * rate) | 1), 1.0, -1.0)


class MockCodecAdapter:
    """Structurally faithful codec: per-frame block hashes as codebook entries.

    8 codebooks at 75 frames/s over a 24 kHz native rate, matching the shape
    of the real neural codec without any model weights.
    """

    native_rate_hz = 24000
    frame_rate_hz = 75.0
    codebook_count = 8
    codebook_size = 1024

    def encode(self, samples: np.ndarray, rate: int) -> np.ndarray:
        n = samples.size
        n_frames = int(round(n / rate * self.frame_rate_hz))
        step = rate / self.frame_rate_hz
        pcm = quantize_pcm16(samples)
        codes = np.zeros((self.codebook_count, n_frames), dtype=np.int64)
        for k in range(n_frames):
            lo, hi = int(round(k * step)), int(round((k + 1) * step))
            block = pcm[lo : max(hi, lo + 1)].tobytes()
            for row in range(self.codebook_count):
                codes[row, k] = _hash64(block, bytes([row])) % self.codebook_size
        return codes


class MockSemanticEncoderAdapter:
    """Frame statistics as stand-in self-supervised features (50 frames/s)."""

    token_rate_hz = 50.0
    embedding_dim = 16

    def encode(self, samples: np.ndarray, rate: int) -> np.ndarray:
        n = samples.size
        n_frames = int(round(n / rate * self.token_rate_hz))
        step = rate / self.token_rate_hz
        feats = np.zeros((n_frames, self.embedding_dim), dtype=np.float32)
        x = samples.astype(np.float64)
        for k in range(n_frames):
            lo, hi = int(round(k * step)), int(round((k + 1) * step))
            block = x[lo : max(hi, lo + 1)]
            if not np.any(np.abs(block) >= SILENCE_EPS):
                continue  # silence stays an all-zero feature row
            stats = [
                block.mean(),
                block.std(),
                np.sqrt(np.mean(block**2)),
                np.abs(block).max(),
                float(np.mean(np.abs(np.diff(np.signbit(block).astype(np.int8))))),
            ]
            row = np.zeros(self.embedding_dim)
            row[: len(stats)] = stats
            for j in range(len(stats), self.embedding_dim):
                row[j] = (_hash64(block.astype(np.float32).tobytes(), bytes([j])) % 1000) / 1000.0
            feats[k] = row.astype(np.float32)
        return feats


class MockTokenQuantizerAdapter:
    """Hashes feature rows into a fixed vocabulary; all-zero rows map to token 0."""

    vocab_size = 10000
    embedding_dim = 16

    def quantize(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float32)
        tokens = np.zeros(features.shape[0], dtype=np.int64)
        for i, row in enumerate(features):
            if row.any():
                tokens[i] = _hash64(row.tobytes()) % self.vocab_size
        return tokens


class MockTtsAdapter:
    """Seeded pseudo-speech generator standing in for the prompted TTS backend.

    The waveform is a pure function of (text, prompt tokens, params), so fixed
    seeds reproduce bit-identical audio. Setting the environment variable
    ``VOICEFORGE_MOCK_TTS_ABORT_AFTER=N`` makes the process die (exit 137)
    at the start of synthesis call N+1 — a harness for kill/resume tests.
    """

    native_rate_hz = 24000
    seconds_per_char = 0.055

    def __init__(self):
        abort = os.environ.get("VOICEFORGE_MOCK_TTS_ABORT_AFTER")
        self._abort_after = int(abort) if abort else None
        self._calls = 0

    def synthesize(self, text, semantic_tokens, coarse_codes, fine_codes, params) -> np.ndarray:
        if self._abort_after is not None and self._calls >= self._abort_after:
            os._exit(137)
        self._calls += 1
        seed = _hash64(
            text.encode("utf-8"),
            np.asarray(semantic_tokens, dtype=np.int64).tobytes(),
            np.asarray(fine_codes, dtype=np.int64).tobytes(),
            struct.pack("<ddq", params.text_temp, params.waveform_temp, params.seed or 0),
        )
        duration = min(14.0, 1.0 + self.seconds_per_char * len(text))
        n = int(round(duration * self.native_rate_hz))
        rng = np.random.default_rng(seed)
        f0 = rng.uniform(100.0, 200.0)
        partials = [(k, amp, rng.uniform(0, 2 * np.pi)) for k, amp in ((1, 0.5), (2, 0.22), (3, 0.1))]
        # temperature knobs perturb the modulation so params audibly matter
        mod_rate = 2.0 + 3.0 * params.text_temp
        depth = 0.2 + 0.3 * params.waveform_temp
        ramp = np.linspace(0.0, 1.0, max(1, int(0.02 * self.native_rate_hz)))

        def fill(lo, hi, t, wave, tmp):
            # 0.6 * (sum(amp * sin(...)) * (1 - modulation), faded)
            _partials(t, wave, tmp, f0, partials)
            np.multiply(t, 2.0 * np.pi * mod_rate, out=tmp)
            np.sin(tmp, out=tmp)
            tmp += 1.0
            tmp *= depth * 0.5
            np.subtract(1.0, tmp, out=tmp)
            wave *= tmp
            _fade(wave, lo, n, ramp)
            wave *= 0.6

        return _chunked(np.empty(n, dtype=np.float32), fill, self.native_rate_hz)


class MockVcAdapter:
    """Duration-preserving fake re-voicing keyed by the model reference.

    model_ref/index_ref resolve against `known_models` when given, otherwise
    they must be existing filesystem paths (mirroring .pth/.index handling).
    """

    native_rate_hz = 32000

    def __init__(self, known_models: set[str] | None = None):
        self.known_models = known_models

    def _check_ref(self, kind: str, ref: str) -> None:
        if self.known_models is not None:
            if ref not in self.known_models:
                raise ConfigurationError(f"unknown {kind} {ref!r}")
        elif not ref or not os.path.exists(ref):
            raise ConfigurationError(f"{kind} {ref!r} does not resolve to a file")

    def convert(self, samples, rate, model_ref, index_ref, params):
        self._check_ref("model_ref", model_ref)
        self._check_ref("index_ref", index_ref)
        clip = AudioClip(samples=np.asarray(samples, dtype=np.float32), sample_rate_hz=rate)
        if rate != self.native_rate_hz:
            clip = resample(clip, self.native_rate_hz)
        carrier_hz = 30.0 + (_hash64(model_ref.encode()) % 400) / 10.0
        depth = 0.5 * params.index_ratio
        mix = params.envelope_mix
        peaks = [0.0, 0.0]  # of the input and of the output before `scale`
        scale = 1.0

        def fill(lo, hi, t, out, x):
            # (1 - mix) * x + mix * x * (1 - depth + depth * sin(...)): `*` and `+`
            # commute and `abs` is exact, so the bytes equal the array expression's
            x[:] = clip.samples[lo:hi]
            np.multiply(t, 2.0 * np.pi * carrier_hz, out=out)
            np.sin(out, out=out)
            out *= depth
            out += 1.0 - depth
            out *= x
            out *= mix
            peaks[0] = max(peaks[0], x.max(), -x.min())
            x *= 1.0 - mix
            out += x
            peaks[1] = max(peaks[1], out.max(), -out.min())
            out *= scale

        out = _chunked(np.empty(clip.n_samples, dtype=np.float32), fill, self.native_rate_hz)
        # rounding lifted the output's peak past the input's: scale each sample before its clip
        if peaks[1] > 0 and (scale := min(1.0, peaks[0] / peaks[1])) < 1.0:
            _chunked(out, fill, self.native_rate_hz)
        return out, self.native_rate_hz


class MockAsrAdapter:
    """Span-detecting fake transcriber; text drawn deterministically per span."""

    def transcribe(self, samples: np.ndarray, rate: int, config) -> list:
        from ..transcribe import TranscriptSegment

        sentences = _HINDI_SENTENCES if config.language.startswith("hi") else _ENGLISH_SENTENCES
        segments = []
        for lo, hi in _voiced_spans(samples, rate):
            if (hi - lo) / rate < 0.25:
                continue
            text = sentences[_hash64(quantize_pcm16(samples[lo:hi]).tobytes()) % len(sentences)]
            segments.append(TranscriptSegment(start_s=lo / rate, end_s=hi / rate, text=text))
        return segments


class MockDiarizationAdapter:
    """Single-speaker by default; optional round-robin multi-speaker labelling."""

    def __init__(self, n_speakers: int = 1):
        self.n_speakers = n_speakers

    def diarize(self, samples: np.ndarray, rate: int) -> list:
        from ..transcribe import SpeakerTurn

        duration = samples.size / rate
        if self.n_speakers <= 1:
            return [SpeakerTurn(start_s=0.0, end_s=duration, speaker_label="S0")]
        turns = []
        for i, (lo, hi) in enumerate(_voiced_spans(samples, rate)):
            label = f"S{i % self.n_speakers}"
            turns.append(SpeakerTurn(start_s=lo / rate, end_s=hi / rate, speaker_label=label))
        return turns


class MockSpeakerEmbeddingAdapter:
    """Windowed RMS profile as a voice embedding (L2-normalized)."""

    embedding_dim = 16

    def embed(self, samples: np.ndarray, rate: int) -> np.ndarray:
        n = samples.size
        if n == 0:
            return np.zeros(self.embedding_dim, dtype=np.float32)
        edges = np.linspace(0, n, self.embedding_dim + 1).astype(int)
        out = np.zeros(self.embedding_dim, dtype=np.float64)
        for i in range(self.embedding_dim):
            block = samples[edges[i] : max(edges[i + 1], edges[i] + 1)]
            out[i] = np.sqrt(np.mean(block.astype(np.float64) ** 2))
        norm = np.linalg.norm(out)
        if norm > 0:
            out /= norm
        return out.astype(np.float32)


class MockTranscodeAdapter(WavTranscodeAdapter):
    """The builtin WAV transcoder plus MP3 as a deterministic ID3-prefixed stub.

    The stub keeps the exact PCM payload behind an ``ID3`` magic so format
    checks, duration probes, and decode round-trips behave like a lossless
    MP3 codec would at mock scale.
    """

    MP3_TAG = b"ID3VFMK1"

    def encode(self, samples: np.ndarray, rate: int, format: str) -> bytes:
        if format != "mp3":
            return super().encode(samples, rate, format)
        clip = AudioClip(samples=np.asarray(samples, dtype=np.float32), sample_rate_hz=rate)
        pcm = quantize_pcm16(clip.samples).astype("<i2", copy=False).tobytes()
        return self.MP3_TAG + struct.pack("<IQ", rate, clip.n_samples) + pcm

    def decode(self, payload: bytes, format: str) -> tuple[np.ndarray, int]:
        if format != "mp3":
            return super().decode(payload, format)
        start = 8 + struct.calcsize("<IQ")
        if payload[:8] != self.MP3_TAG or len(payload) < start:
            raise FormatError("not a mock MP3 payload")
        rate, n_samples = struct.unpack_from("<IQ", payload, 8)
        if len(payload) - start != 2 * n_samples:
            raise FormatError(
                f"mock MP3 body is {len(payload) - start} bytes, header says {2 * n_samples}"
            )
        return dequantize_pcm16(np.frombuffer(payload, dtype="<i2", offset=start)), rate
