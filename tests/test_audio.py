from __future__ import annotations

import contextlib
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from voiceforge import audio
from voiceforge.adapters.builtin import WavFileDecoder, WavTranscodeAdapter
from voiceforge.adapters.mocks import MockDecoder, MockTranscodeAdapter
from voiceforge.audio import (
    AudioClip,
    SampleBlocks,
    decode_wav_pcm16,
    dequantize_pcm16,
    downmix_mean,
    encode_wav_pcm16,
    join_blocks,
    load_wav,
    quantize_pcm16,
    replace_file,
    resample,
    resampled_length,
    save_wav,
)
from voiceforge.errors import DecodeError, FormatError, ValidationError
from voiceforge.ingest import RawMediaHandle, open_source
from voiceforge.voiceprompt import CodebookMatrix, SpeakerPrompt, save_prompt

from test_upfirdn import integer_resample


def _clip(n: int = 800, rate: int = 8000, value: float | None = None) -> AudioClip:
    if value is None:
        samples = np.sin(np.linspace(0, 20, n)).astype(np.float32) * 0.5
    else:
        samples = np.full(n, value, dtype=np.float32)
    return AudioClip(samples=samples, sample_rate_hz=rate)


class TestAudioClip:
    def test_basic_properties(self):
        clip = _clip(n=4000, rate=8000)
        assert clip.n_samples == 4000
        assert clip.duration_s == 0.5
        assert not clip.is_empty
        assert clip.samples.dtype == np.float32

    def test_samples_are_frozen(self):
        clip = _clip()
        with pytest.raises(ValueError):
            clip.samples[0] = 0.0

    def test_rejects_2d_samples(self):
        with pytest.raises(ValidationError, match="mono"):
            AudioClip(samples=np.zeros((2, 10), np.float32), sample_rate_hz=8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValidationError):
            AudioClip(samples=np.zeros(10, np.float32), sample_rate_hz=0)
        with pytest.raises(ValidationError):
            AudioClip(samples=np.zeros(10, np.float32), sample_rate_hz=8000.5)

    def test_rejects_out_of_range_amplitude(self):
        with pytest.raises(ValidationError, match="amplitude"):
            AudioClip(samples=np.array([0.0, 1.5], np.float32), sample_rate_hz=8000)

    def test_rejects_nan_samples(self):
        with pytest.raises(ValidationError, match="amplitude"):
            AudioClip(samples=np.array([0.0, np.nan, 0.5], np.float32), sample_rate_hz=8000)

    def test_rejects_negative_offset(self):
        with pytest.raises(ValidationError):
            AudioClip(samples=np.zeros(8, np.float32), sample_rate_hz=8000, offset_s=-1.0)

    def test_slice_samples_adjusts_offset(self):
        clip = _clip(n=8000, rate=8000)
        piece = clip.slice_samples(4000, 6000)
        assert piece.n_samples == 2000
        assert piece.offset_s == 0.5
        assert np.array_equal(piece.samples, clip.samples[4000:6000])

    def test_slice_samples_out_of_range(self):
        with pytest.raises(ValidationError):
            _clip(n=10).slice_samples(5, 11)

    def test_require_non_empty(self):
        empty = AudioClip(samples=np.zeros(0, np.float32), sample_rate_hz=8000)
        assert empty.is_empty
        with pytest.raises(ValidationError, match="denoising"):
            empty.require_non_empty("denoising")


def test_downmix_mean_stereo():
    channels = np.array([[0.2, 0.4], [0.4, 0.0]], dtype=np.float32)
    mono = downmix_mean(channels)
    assert mono.shape == (2,)
    assert mono == pytest.approx([0.3, 0.2])


def test_downmix_mean_passes_mono_through():
    x = np.array([0.1, -0.1], np.float32)
    assert np.array_equal(downmix_mean(x), x)


def test_downmix_mean_rejects_3d():
    with pytest.raises(ValidationError):
        downmix_mean(np.zeros((2, 2, 2), np.float32))


def test_resample_identity_is_bit_exact():
    clip = _clip(n=2400, rate=24000)
    out = resample(clip, 24000)
    assert out.sample_rate_hz == 24000
    assert np.array_equal(out.samples, clip.samples)


def test_resample_changes_rate_and_preserves_duration():
    clip = _clip(n=44100, rate=44100)
    out = resample(clip, 24000)
    assert out.sample_rate_hz == 24000
    assert out.duration_s == pytest.approx(1.0, abs=0.01)
    assert float(np.abs(out.samples).max()) <= 1.0


def _whole_array_resample(samples: np.ndarray, rate_hz: int, target_rate_hz: int) -> np.ndarray:
    """Reference: the exact integer sum over the whole input, as before block-wise resampling."""
    g = math.gcd(rate_hz, target_rate_hz)
    return integer_resample(samples.astype(np.float64), target_rate_hz // g, rate_hz // g).astype(np.float32)


@pytest.mark.parametrize(
    "rate_hz,target_rate_hz",
    [(44100, 32000), (24000, 32000), (48000, 24000), (8000, 48000), (32000, 44100)],
)
@pytest.mark.parametrize("block", [1 << 18, audio.RESAMPLE_BLOCK, 3000])  # a larger block, the default, a small one
def test_resample_matches_whole_array_oracle(monkeypatch, rate_hz, target_rate_hz, block):
    monkeypatch.setattr(audio, "RESAMPLE_BLOCK", block)
    g = math.gcd(rate_hz, target_rate_hz)
    up, down = target_rate_hz // g, rate_hz // g
    one_block = max(up, block - block % up) // up * down  # input length of exactly one output block
    lengths = [1, 2, down - 1, down, down + 1, one_block - 1, one_block, one_block + 1]
    lengths.append(3 * one_block + 2 * down + 7)
    rng = np.random.default_rng(rate_hz + target_rate_hz + block)
    for n in sorted({n for n in lengths if n > 0}):
        # full-scale square-ish content makes the filter overshoot, so the clip matters
        samples = np.where(rng.random(n) < 0.5, -1.0, 1.0).astype(np.float32)
        samples[: n // 2] *= rng.uniform(0.2, 1.0, n // 2).astype(np.float32)
        out = resample(AudioClip(samples=samples, sample_rate_hz=rate_hz), target_rate_hz)
        expected = _whole_array_resample(samples, rate_hz, target_rate_hz)
        assert out.samples.tobytes() == expected.tobytes(), f"{n} samples"


def test_resample_of_a_short_input_is_one_call(monkeypatch):
    calls = []
    real = audio._upfirdn

    def counting_upfirdn(x, *args):
        calls.append(x.size)
        return real(x, *args)

    monkeypatch.setattr(audio, "_upfirdn", counting_upfirdn)
    clip = _clip(n=36000, rate=24000)  # 1.5 s: 48,000 outputs, within one RESAMPLE_BLOCK
    resample(clip, 32000)
    # the one window holds the input and the zeros that the filter reads around it
    assert calls == [(48000 // 4 - 1) * 3 + audio._filter_bank(4, 3).span]


def test_resample_memory_is_bounded_by_its_output():
    n = 60 * 44100
    samples = np.where(np.arange(n) % 200 < 100, -1.0, 1.0).astype(np.float32)
    clip = AudioClip(samples=samples, sample_rate_hz=44100)
    tracemalloc.start()
    try:
        out = resample(clip, 32000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.n_samples == 60 * 32000
    # the float32 output plus a few float64 blocks, never a float64 copy of the whole input
    assert peak < out.samples.nbytes + 2 * 2**20


STREAM_SETTINGS = settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # monkeypatch sets a constant
)
STREAM_RATES = [(44100, 32000), (48000, 16000), (22050, 24000), (24000, 32000), (24000, 24000)]


def split_blocks(whole: np.ndarray, data) -> list[np.ndarray]:
    """`whole` cut along its last axis at drawn points; repeated or adjacent cuts give
    empty and one-sample blocks."""
    n = whole.shape[-1]
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=12), label="cuts"))
    bounds = [0, *cuts, n]
    return [whole[..., a:b] for a, b in zip(bounds, bounds[1:])]


@STREAM_SETTINGS
@given(rates=st.sampled_from(STREAM_RATES), n=st.integers(1, 4000), data=st.data())
def test_streaming_resample_equals_resample_for_any_split(monkeypatch, rates, n, data):
    monkeypatch.setattr(audio, "RESAMPLE_BLOCK", 700)  # many output blocks per input
    rate_hz, target_rate_hz = rates
    samples = np.random.default_rng(n).uniform(-1.0, 1.0, n).astype(np.float32)
    expected = resample(AudioClip(samples=samples, sample_rate_hz=rate_hz), target_rate_hz)
    blocks = split_blocks(samples, data)
    out = resample(SampleBlocks(rate_hz, n, iter(blocks), "src"), target_rate_hz)
    assert out.sample_rate_hz == target_rate_hz and out.source_id == "src"
    assert out.samples.tobytes() == expected.samples.tobytes()


@pytest.mark.parametrize("rate_hz,target_rate_hz", STREAM_RATES)
def test_streaming_resample_of_one_sample_blocks(monkeypatch, rate_hz, target_rate_hz):
    monkeypatch.setattr(audio, "RESAMPLE_BLOCK", 700)
    samples = np.random.default_rng(3).uniform(-1.0, 1.0, 3001).astype(np.float32)
    expected = resample(AudioClip(samples=samples, sample_rate_hz=rate_hz), target_rate_hz)
    out = resample(SampleBlocks(rate_hz, samples.size, iter(samples[:, None])), target_rate_hz)
    assert out.samples.tobytes() == expected.samples.tobytes()


@pytest.mark.parametrize("rate_hz,target_rate_hz", [(44100, 32000), (24000, 24000)])
@pytest.mark.parametrize("n_blocks", [9, 11])
def test_streaming_resample_refuses_a_wrong_sample_count(rate_hz, target_rate_hz, n_blocks):
    blocks = [np.zeros(1000, np.float32)] * n_blocks
    held = f"expected 10000 input samples, the blocks held {1000 * n_blocks}"
    with pytest.raises(ValidationError, match=held):
        resample(SampleBlocks(rate_hz, 10_000, iter(blocks)), target_rate_hz)


# the rates a source reaches the 24 kHz codec from
STOP_RATES = [(44100, 24000), (48000, 24000), (22050, 24000), (16000, 24000), (24000, 24000)]


@STREAM_SETTINGS
@given(rates=st.sampled_from(STOP_RATES), n=st.integers(1, 4000), data=st.data())
def test_resample_with_stop_is_a_prefix_of_the_whole_output(monkeypatch, rates, n, data):
    monkeypatch.setattr(audio, "RESAMPLE_BLOCK", 700)  # stops inside and between windows
    rate_hz, target_rate_hz = rates
    samples = np.random.default_rng(n).uniform(-1.0, 1.0, n).astype(np.float32)
    whole = resample(SampleBlocks(rate_hz, n, iter(split_blocks(samples, data))), target_rate_hz)
    assert whole.n_samples == resampled_length(n, rate_hz, target_rate_hz)
    stop = data.draw(st.integers(0, whole.n_samples + 50), label="stop")  # past the end too
    blocks = split_blocks(samples, data)
    out = resample(SampleBlocks(rate_hz, n, iter(blocks), "src"), target_rate_hz, stop=stop)
    assert out.source_id == "src"
    assert out.samples.tobytes() == whole.samples[:stop].tobytes()
    clip = AudioClip(samples=samples, sample_rate_hz=rate_hz)
    assert resample(clip, target_rate_hz, stop=stop).samples.tobytes() == out.samples.tobytes()


@pytest.mark.parametrize("rate_hz,target_rate_hz", [(44100, 24000), (24000, 24000)])
@pytest.mark.parametrize("n_blocks", [9, 11])
@pytest.mark.parametrize("stop", [0, 5, 3000])
def test_resample_with_stop_counts_every_block(tmp_path, rate_hz, target_rate_hz, n_blocks, stop):
    """`stop` leaves the count to the stream's owner: an opened source's `Ahead` pulls every block."""
    samples = np.random.default_rng(stop).uniform(-1.0, 1.0, 1000 * n_blocks).astype(np.float32)
    pulled = []

    class Decoder(MockDecoder):
        def decode_blocks(self, path):
            def blocks():
                for k in range(0, samples.size, 1000):
                    pulled.append(1)
                    yield samples[k : k + 1000]

            return rate_hz, 10_000, blocks()

    media = tmp_path / "media.bin"
    media.write_bytes(b"any media")
    source = open_source(RawMediaHandle(path=media), target_rate_hz, Decoder())
    with contextlib.closing(source.blocks) as rest:
        out = resample(source, target_rate_hz, stop=stop)
        held = f"reported 10000 samples but its blocks hold {'more' if n_blocks > 10 else 9000}"
        with pytest.raises(DecodeError, match=held):
            rest.detach()  # raises what the worker has already met
            rest.check(wait=True)
    clip = AudioClip(samples=samples, sample_rate_hz=rate_hz)
    assert out.samples.tobytes() == resample(clip, target_rate_hz, stop=stop).samples.tobytes()
    assert len(pulled) == n_blocks


@pytest.mark.parametrize("rate_hz,target_rate_hz", [(44100, 24000), (24000, 24000)])
@pytest.mark.parametrize("stop", [0, 5, 3000])
def test_resample_with_stop_pulls_no_block_past_what_it_needs(rate_hz, target_rate_hz, stop):
    samples = np.random.default_rng(stop).uniform(-1.0, 1.0, 20_000).astype(np.float32)
    pulled = []

    def blocks():
        for k in range(0, samples.size, 1000):
            pulled.append(1)
            yield samples[k : k + 1000]

    stream = blocks()
    out = resample(SampleBlocks(rate_hz, samples.size, stream), target_rate_hz, stop=stop)
    whole = resample(SampleBlocks(rate_hz, samples.size, [samples]), target_rate_hz)
    assert out.samples.tobytes() == whole.samples[:stop].tobytes()
    assert len(pulled) <= stop * rate_hz // target_rate_hz // 1000 + 2  # the filter's reach is < 1000
    assert next(stream) is not None  # the rest is left open for its owner


def test_quantize_is_symmetric():
    x = np.array([-1.0, 0.0, 1.0], np.float32)
    q = quantize_pcm16(x)
    assert q.tolist() == [-32767, 0, 32767]


def test_dequantize_clamps_foreign_minimum():
    assert dequantize_pcm16(np.array([-32768], np.int16))[0] == -1.0


def test_dequantize_matches_float64_formula_on_every_code():
    q = np.arange(-32768, 32768).astype(np.int16)
    expected = np.clip(q.astype(np.float64) / 32767, -1.0, 1.0).astype(np.float32)
    out = dequantize_pcm16(q)
    assert out.dtype == np.float32
    assert out.tobytes() == expected.tobytes()


def test_wav_payload_size_formula():
    # 1 s of silence -> 44-byte header + 2 bytes per sample
    for rate in (8000, 24000, 32000):
        clip = _clip(n=rate, rate=rate, value=0.0)
        assert len(encode_wav_pcm16(clip)) == 44 + 2 * rate


def test_wav_round_trip_error_bound():
    rng = np.random.default_rng(3)
    clip = AudioClip(
        samples=rng.uniform(-1, 1, 5000).astype(np.float32), sample_rate_hz=16000
    )
    out, rate = decode_wav_pcm16(encode_wav_pcm16(clip))
    assert rate == 16000
    assert float(np.max(np.abs(out - clip.samples))) <= 1.0 / 32768.0


def test_encode_rejects_empty_clip():
    empty = AudioClip(samples=np.zeros(0, np.float32), sample_rate_hz=8000)
    with pytest.raises(ValidationError):
        encode_wav_pcm16(empty)


def test_decoder_walks_extra_chunks():
    payload = encode_wav_pcm16(_clip(n=100))
    # splice a LIST metadata chunk between fmt and data
    list_chunk = b"LIST" + struct.pack("<I", 4) + b"INFO"
    patched = payload[:36] + list_chunk + payload[36:]
    out, rate = decode_wav_pcm16(patched)
    assert rate == 8000
    assert out.size == 100


def test_decoder_downmixes_stereo():
    n, rate = 50, 8000
    left = np.full(n, 0.5)
    right = np.full(n, -0.5)
    inter = np.empty(2 * n)
    inter[0::2], inter[1::2] = left, right
    pcm = quantize_pcm16(inter).astype("<i2").tobytes()
    payload = (
        b"RIFF"
        + struct.pack("<I", 36 + len(pcm))
        + b"WAVE"
        + b"fmt "
        + struct.pack("<IHHIIHH", 16, 1, 2, rate, rate * 4, 4, 16)
        + b"data"
        + struct.pack("<I", len(pcm))
        + pcm
    )
    out, out_rate = decode_wav_pcm16(payload)
    assert out_rate == rate
    assert out.shape == (n,)
    assert np.allclose(out, 0.0, atol=1e-4)


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"RIFF\x00\x00\x00\x00JUNK" + b"\x00" * 40,
        b"OggS" + b"\x00" * 60,
    ],
)
def test_decoder_rejects_non_wav(payload):
    with pytest.raises(FormatError):
        decode_wav_pcm16(payload)


def test_decoder_rejects_float_pcm():
    payload = bytearray(encode_wav_pcm16(_clip(n=10)))
    payload[20:22] = struct.pack("<H", 3)  # IEEE float format tag
    with pytest.raises(FormatError, match="PCM16"):
        decode_wav_pcm16(bytes(payload))


def _riff(*chunks: tuple[bytes, bytes]) -> bytes:
    body = b"".join(cid + struct.pack("<I", len(data)) + data for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


_PCM16_MONO_FMT = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
_PCM16_STEREO_FMT = struct.pack("<HHIIHH", 1, 2, 8000, 32000, 4, 16)


MALFORMED = pytest.mark.parametrize(
    "payload, match",
    [
        (_riff((b"fmt ", _PCM16_MONO_FMT[:8]), (b"data", b"\x00" * 100)), "fmt chunk is 8 bytes"),
        (_riff((b"fmt ", _PCM16_MONO_FMT), (b"data", b"\x00" * 101)), "odd byte count"),
        (encode_wav_pcm16(_clip(n=1000))[:-500], "chunk of 2000 bytes runs past the end"),
        (_riff((b"fmt ", _PCM16_STEREO_FMT), (b"data", b"\x00" * 10)), "odd number of values"),
    ],
    ids=["short_fmt_chunk", "odd_data_chunk", "truncated_data_chunk", "odd_stereo_data_chunk"],
)


@MALFORMED
def test_decoder_rejects_malformed_chunks(payload, match):
    with pytest.raises(FormatError, match=match):
        decode_wav_pcm16(payload)
    for transcoder in (WavTranscodeAdapter(), MockTranscodeAdapter()):
        with pytest.raises(FormatError, match=match):
            transcoder.decode(payload, "wav_pcm16")


def _float_pcm() -> bytes:
    payload = bytearray(encode_wav_pcm16(_clip(n=10)))
    payload[20:22] = struct.pack("<H", 3)  # IEEE float format tag
    return bytes(payload)


# every file decoder of WAV: the builtin one and the mock that extends it
WAV_DECODERS = (WavFileDecoder(), MockDecoder())


def _joined(decoder, path) -> tuple[np.ndarray, int]:
    """A file decoder's blocks of `path`, every one pulled, joined; and the rate."""
    rate, n_samples, blocks = decoder.decode_blocks(str(path))
    return join_blocks(n_samples, blocks), rate


@MALFORMED
def test_block_decoder_rejects_malformed_chunks(tmp_path, payload, match):
    path = tmp_path / "bad.wav"
    path.write_bytes(payload)
    for decoder in WAV_DECODERS:
        with pytest.raises(FormatError, match=match):
            _joined(decoder, path)


@pytest.mark.parametrize(
    "payload, match",
    [
        (b"", "not a RIFF/WAV file"),
        (b"RIFF\x00\x00\x00\x00JUNK" + b"\x00" * 40, "not a RIFF/WAVE payload"),
        (b"OggS" + b"\x00" * 60, "not a RIFF/WAV file"),
        (_float_pcm(), "PCM16"),
        (_riff((b"fmt ", struct.pack("<HHIIHH", 1, 3, 8000, 48000, 6, 16)), (b"data", b"")), "channel"),
        (_riff((b"data", b"\x00" * 40)), "missing its fmt or data chunk"),
    ],
    ids=["empty", "not_wave", "ogg", "float_pcm", "three_channels", "no_fmt_chunk"],
)
def test_block_decoder_rejects_what_decode_rejects(tmp_path, payload, match):
    path = tmp_path / "bad.wav"
    path.write_bytes(payload)
    with pytest.raises(FormatError):
        decode_wav_pcm16(payload)
    for decoder in WAV_DECODERS:
        with pytest.raises(FormatError, match=match):
            _joined(decoder, path)


def _stereo(n: int, rate: int) -> bytes:
    inter = np.random.default_rng(n).uniform(-1.0, 1.0, 2 * n)
    pcm = quantize_pcm16(inter).astype("<i2").tobytes()
    return _riff((b"fmt ", struct.pack("<HHIIHH", 1, 2, rate, rate * 4, 4, 16)), (b"data", pcm))


def _with_extra_chunks(payload: bytes) -> bytes:
    """An odd-length chunk (and its pad byte) before the data, a metadata chunk after it."""
    odd = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"
    tail = b"cue " + struct.pack("<I", 4) + b"\x00" * 4
    body = payload[12:36] + odd + payload[36:] + tail
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


@pytest.mark.parametrize(
    "payload",
    [
        encode_wav_pcm16(_clip(n=1001, rate=16000)),
        _stereo(1001, 22050),
        _with_extra_chunks(encode_wav_pcm16(_clip(n=1001, rate=16000))),
        _with_extra_chunks(_stereo(1001, 22050)),
    ],
    ids=["mono", "stereo", "mono_extra_chunks", "stereo_extra_chunks"],
)
@pytest.mark.parametrize("block_bytes", [4, 12, 1 << 18])
def test_block_decoder_matches_decode(tmp_path, monkeypatch, payload, block_bytes):
    monkeypatch.setattr(WavFileDecoder, "BLOCK_BYTES", block_bytes)
    path = tmp_path / "audio.wav"
    path.write_bytes(payload)
    expected, rate = decode_wav_pcm16(payload)
    for decoder in WAV_DECODERS:
        block_rate, n_samples, blocks = decoder.decode_blocks(str(path))
        blocks = list(blocks)
        assert (block_rate, n_samples) == (rate, expected.size) == (rate, 1001)
        assert all(b.dtype == np.float32 and b.ndim == 1 for b in blocks)
        assert len(blocks) > 1 or block_bytes == 1 << 18
        assert np.concatenate(blocks).tobytes() == expected.tobytes()
    encoded = encode_wav_pcm16(AudioClip(samples=expected, sample_rate_hz=rate))
    for transcoder in (WavTranscodeAdapter(), MockTranscodeAdapter()):
        samples, decoded_rate = transcoder.decode(payload, "wav_pcm16")
        assert decoded_rate == rate and samples.tobytes() == expected.tobytes()
        assert transcoder.encode(expected, rate, "wav_pcm16") == encoded


def test_save_and_load_wav(tmp_path):
    clip = _clip(n=1234, rate=24000)
    path = tmp_path / "clip.wav"
    save_wav(clip, path)
    loaded = load_wav(path)
    assert loaded.sample_rate_hz == 24000
    assert float(np.max(np.abs(loaded.samples - clip.samples))) <= 1.0 / 32768.0


def test_replace_file_writes_the_payload_and_no_temp_file(tmp_path):
    path = tmp_path / "out.bin"
    replace_file(path, b"old")
    replace_file(path, b"new bytes")
    assert path.read_bytes() == b"new bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def _speaker_prompt(seed: int):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 64, size=(4, 10), dtype=np.int64)
    fine = CodebookMatrix(codes=codes, frame_rate_hz=75.0, codebook_size=64)
    return SpeakerPrompt(rng.integers(0, 500, size=20, dtype=np.int64), fine, 2, f"src{seed}")


@pytest.mark.parametrize(
    "name, write, old, new",
    [
        ("clip.wav", save_wav, _clip(n=800), _clip(n=1600)),
        ("prompt.npz", save_prompt, _speaker_prompt(1), _speaker_prompt(2)),
    ],
    ids=["save_wav", "save_prompt"],
)
def test_failed_fsync_leaves_the_old_file(tmp_path, monkeypatch, name, write, old, new):
    path = tmp_path / name
    write(old, path)
    before = path.read_bytes()

    def failing_fsync(fd):
        raise OSError("simulated fsync failure")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="simulated fsync failure"):
        write(new, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]
