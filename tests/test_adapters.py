from __future__ import annotations

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from voiceforge.adapters import (
    AdapterDescriptor,
    AdapterRegistry,
    AdapterRole,
    AsrAdapter,
    CodecAdapter,
    DecoderAdapter,
    DiarizationAdapter,
    DownloaderAdapter,
    SemanticEncoderAdapter,
    TokenQuantizerAdapter,
    TranscodeAdapter,
    TtsAdapter,
    VcAdapter,
    default_registry,
)
from voiceforge.adapters import mocks
from voiceforge.adapters.builtin import UrllibDownloader, WavTranscodeAdapter
from voiceforge.adapters.mocks import (
    MockAsrAdapter,
    MockCodecAdapter,
    MockDecoder,
    MockDiarizationAdapter,
    MockDownloader,
    MockSpeakerEmbeddingAdapter,
    MockTranscodeAdapter,
    MockTtsAdapter,
    MockVcAdapter,
    _voiced_spans,
    speechlike_blocks,
    speechlike_waveform,
)
from voiceforge.audio import (
    AudioClip,
    decode_wav_pcm16,
    encode_wav_pcm16,
    join_blocks,
    resample,
)
from voiceforge.config import DEFAULT_ADAPTERS
from voiceforge.conversion import ConversionParams, default_conversion_params
from voiceforge.errors import (
    AcquisitionError,
    AdapterLookupError,
    ConfigurationError,
    FormatError,
    RegistryError,
)
from voiceforge.synthesis import GenerationParams, default_generation_params
from voiceforge.transcribe import AsrConfig, SpeakerTurn, TranscriptSegment


class TestRegistry:
    def test_resolve_returns_registered_instance(self):
        registry = AdapterRegistry()
        codec = MockCodecAdapter()
        registry.register(AdapterDescriptor(role=AdapterRole.CODEC, id="mock"), codec)
        assert registry.resolve(AdapterRole.CODEC, "mock") is codec
        assert registry.resolve("codec", "mock") is codec

    def test_duplicate_registration_is_an_error(self):
        registry = AdapterRegistry()
        descriptor = AdapterDescriptor(role=AdapterRole.TTS, id="mock")
        registry.register(descriptor, MockTtsAdapter())
        with pytest.raises(RegistryError, match="already registered"):
            registry.register(descriptor, MockTtsAdapter())

    def test_unknown_id_lists_available(self):
        registry = AdapterRegistry()
        registry.register(AdapterDescriptor(role=AdapterRole.TTS, id="mock"), MockTtsAdapter())
        with pytest.raises(AdapterLookupError, match="mock"):
            registry.resolve(AdapterRole.TTS, "bark")

    def test_descriptor_lookup(self):
        registry = AdapterRegistry()
        descriptor = AdapterDescriptor(role=AdapterRole.TTS, id="mock")
        registry.register(descriptor, MockTtsAdapter())
        assert registry.descriptor(AdapterRole.TTS, "mock") == descriptor

    def test_descriptor_requires_id(self):
        with pytest.raises(RegistryError):
            AdapterDescriptor(role=AdapterRole.TTS, id="")


def test_default_registry_covers_every_configured_adapter():
    registry = default_registry()
    for role, adapter_id in DEFAULT_ADAPTERS.items():
        assert registry.resolve(role, adapter_id) is not None


def test_default_registry_mocks_satisfy_protocols():
    registry = default_registry()
    checks = [
        (AdapterRole.DOWNLOADER, "mock", DownloaderAdapter),
        (AdapterRole.DECODER, "mock", DecoderAdapter),
        (AdapterRole.CODEC, "mock", CodecAdapter),
        (AdapterRole.SEMANTIC_ENCODER, "mock", SemanticEncoderAdapter),
        (AdapterRole.TOKEN_QUANTIZER, "mock", TokenQuantizerAdapter),
        (AdapterRole.TTS, "mock", TtsAdapter),
        (AdapterRole.VC, "mock", VcAdapter),
        (AdapterRole.ASR, "mock", AsrAdapter),
        (AdapterRole.DIARIZATION, "mock", DiarizationAdapter),
        (AdapterRole.TRANSCODE, "mock", TranscodeAdapter),
    ]
    for role, adapter_id, protocol in checks:
        assert isinstance(registry.resolve(role, adapter_id), protocol)


class TestMockMedia:
    def test_downloader_honors_query_params(self, tmp_path):
        dest = tmp_path / "media.bin"
        result = MockDownloader().download(
            "mock://talk?duration=2&rate=16000&seed=5", str(dest)
        )
        assert dest.stat().st_size == 28
        assert result.duration_s == pytest.approx(2.0)
        assert result.container_format == "mockav"

    def test_decoder_synthesizes_requested_length(self, tmp_path):
        dest = tmp_path / "media.bin"
        MockDownloader().download("mock://talk?duration=2&rate=16000&seed=5", str(dest))
        decoder = MockDecoder()
        rate, n_samples, blocks = decoder.decode_blocks(str(dest))
        samples = join_blocks(n_samples, blocks)
        assert rate == 16000
        assert samples.size == 32000
        again = join_blocks(*decoder.decode_blocks(str(dest))[1:])
        assert np.array_equal(samples, again)

    def test_decoder_rejects_unknown_container(self, tmp_path):
        path = tmp_path / "junk.bin"
        cases = {
            b"not audio at all": "not a RIFF/WAV file",
            mocks.MOCKAV_MAGIC + b"\0" * 19: "truncated MOCKAV",
        }
        for payload, match in cases.items():
            path.write_bytes(payload)
            with pytest.raises(FormatError, match=match):
                MockDecoder().decode_blocks(str(path))

    def test_waveform_has_speech_and_silence(self):
        wave = speechlike_waveform(16000 * 10, 16000, seed=1)
        silent = np.abs(wave) < 1e-4
        assert 0.0 < float(silent.mean()) < 0.5


class TestMockModels:
    def test_codec_shape_and_range(self):
        codec = MockCodecAdapter()
        samples = speechlike_waveform(24000, 24000, seed=2)
        codes = codec.encode(samples, 24000)
        assert codes.shape == (8, 75)
        assert codes.min() >= 0 and codes.max() < 1024
        assert np.array_equal(codes, codec.encode(samples, 24000))

    def test_tts_is_deterministic(self):
        tts = MockTtsAdapter()
        params = default_generation_params()
        semantic = np.arange(10, dtype=np.int64)
        codes = np.zeros((8, 20), dtype=np.int64)
        a = tts.synthesize("hello world", semantic, codes[:2], codes, params)
        b = tts.synthesize("hello world", semantic, codes[:2], codes, params)
        assert np.array_equal(a, b)
        c = tts.synthesize("different text", semantic, codes[:2], codes, params)
        assert not np.array_equal(a, c)

    def test_tts_duration_tracks_text_length(self):
        tts = MockTtsAdapter()
        params = default_generation_params()
        semantic = np.arange(4, dtype=np.int64)
        codes = np.zeros((8, 8), dtype=np.int64)
        out = tts.synthesize("x" * 20, semantic, codes[:2], codes, params)
        assert out.size == round((1.0 + 0.055 * 20) * 24000)

    def test_vc_rejects_unknown_model(self):
        vc = MockVcAdapter(known_models={"good.pth"})
        with pytest.raises(ConfigurationError, match="model_ref"):
            vc.convert(
                np.zeros(100, np.float32), 32000, "bad.pth", "good.pth",
                default_conversion_params(),
            )

    def test_vc_preserves_duration(self):
        vc = MockVcAdapter(known_models={"m", "i"})
        samples = speechlike_waveform(48000, 24000, seed=4)
        out, rate = vc.convert(samples, 24000, "m", "i", default_conversion_params())
        assert rate == 32000
        assert out.size / rate == pytest.approx(samples.size / 24000, rel=0.02)

    def test_vc_resample_adds_only_its_output_to_the_peak(self):
        """A 12 s clip at 24 kHz peaks no higher than one at the native 32 kHz, plus the 32 kHz copy."""
        vc = MockVcAdapter(known_models={"m", "i"})
        params = default_conversion_params()
        rng = np.random.default_rng(12)

        def peak(rate: int) -> int:
            samples = rng.uniform(-0.5, 0.5, 12 * rate).astype(np.float32)
            vc.convert(samples, rate, "m", "i", params)  # caches the filter outside the count
            tracemalloc.start()
            try:
                vc.convert(samples, rate, "m", "i", params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        resampled = 12 * 32000 * np.dtype(np.float32).itemsize
        assert peak(24000) <= peak(32000) + resampled + 64 * 1024

    def test_asr_skips_silence(self):
        assert MockAsrAdapter().transcribe(np.zeros(16000, np.float32), 16000, AsrConfig()) == []

    def test_asr_emits_devanagari_for_hindi(self):
        samples = speechlike_waveform(16000 * 8, 16000, seed=9)
        segments = MockAsrAdapter().transcribe(samples, 16000, AsrConfig(language="hi"))
        assert segments
        assert any("ऀ" <= ch <= "ॿ" for seg in segments for ch in seg.text)

    def test_diarization_single_speaker(self):
        turns = MockDiarizationAdapter().diarize(np.zeros(16000, np.float32), 16000)
        assert len(turns) == 1
        assert turns[0].speaker_label == "S0"
        assert turns[0].end_s == pytest.approx(1.0)

    def test_diarization_round_robin(self):
        samples = speechlike_waveform(16000 * 10, 16000, seed=6)
        turns = MockDiarizationAdapter(n_speakers=2).diarize(samples, 16000)
        assert len(turns) >= 2
        assert {t.speaker_label for t in turns} == {"S0", "S1"}

    def test_speaker_embedding_is_unit_norm(self):
        emb = MockSpeakerEmbeddingAdapter().embed(
            speechlike_waveform(16000, 16000, seed=7), 16000
        )
        assert emb.shape == (16,)
        assert float(np.linalg.norm(emb)) == pytest.approx(1.0, abs=1e-5)


class TestTranscoders:
    def test_mock_mp3_round_trip_is_lossless(self):
        codec = MockTranscodeAdapter()
        samples = speechlike_waveform(8000, 8000, seed=8)
        from voiceforge.audio import dequantize_pcm16, quantize_pcm16

        payload = codec.encode(samples, 8000, "mp3")
        assert payload.startswith(b"ID3")
        out, rate = codec.decode(payload, "mp3")
        assert rate == 8000
        assert np.array_equal(out, dequantize_pcm16(quantize_pcm16(samples)))

    def test_mock_rejects_foreign_mp3(self):
        with pytest.raises(FormatError):
            MockTranscodeAdapter().decode(b"\xff\xfbgarbage frame", "mp3")

    @pytest.mark.parametrize(
        "damage",
        [lambda p: p[:-500], lambda p: p[:-501], lambda p: p + b"xx"],
        ids=["cut_500", "cut_501", "two_extra"],
    )
    def test_mock_rejects_a_body_of_the_wrong_length(self, damage):
        codec = MockTranscodeAdapter()
        payload = codec.encode(np.full(1000, 0.1, np.float32), 8000, "mp3")
        with pytest.raises(FormatError, match="body"):
            codec.decode(damage(payload), "mp3")

    def test_mock_rejects_unknown_format(self):
        with pytest.raises(ConfigurationError, match="encode 'flac'"):
            MockTranscodeAdapter().encode(np.zeros(10, np.float32), 8000, "flac")
        with pytest.raises(ConfigurationError, match="decode 'flac'"):
            MockTranscodeAdapter().decode(b"fLaC", "flac")

    def test_wav_transcoder_is_wav_only(self):
        codec = WavTranscodeAdapter()
        payload = codec.encode(np.zeros(100, np.float32), 8000, "wav_pcm16")
        out, rate = codec.decode(payload, "wav_pcm16")
        assert rate == 8000 and out.size == 100
        with pytest.raises(ConfigurationError):
            codec.encode(np.zeros(10, np.float32), 8000, "mp3")
        with pytest.raises(ConfigurationError):
            codec.decode(payload, "mp3")


class TestUrllibDownloader:
    def test_fetches_a_file_uri_byte_for_byte(self, tmp_path):
        source = tmp_path / "talk.WAV"
        payload = bytes(range(256)) * 1000
        source.write_bytes(payload)
        dest = tmp_path / "fetched"
        result = UrllibDownloader().download(source.as_uri(), str(dest))
        assert dest.read_bytes() == payload
        assert result.container_format == "wav"
        assert result.duration_s is None

    def test_a_missing_path_is_an_acquisition_error(self, tmp_path):
        uri = (tmp_path / "absent.wav").as_uri()
        with pytest.raises(AcquisitionError, match="download failed") as info:
            UrllibDownloader().download(uri, str(tmp_path / "fetched"))
        assert info.value.source_id == uri


def _voiced_spans_loop(samples: np.ndarray, rate: int) -> list[tuple[int, int]]:
    """Reference: the original per-sample loop over every voiced index."""
    active = np.abs(samples) >= 1e-4
    if not active.any():
        return []
    idx = np.flatnonzero(active)
    gap = int(0.3 * rate)
    spans: list[tuple[int, int]] = []
    start = prev = int(idx[0])
    for i in idx[1:]:
        i = int(i)
        if i - prev > gap:
            spans.append((start, prev + 1))
            start = i
        prev = i
    spans.append((start, prev + 1))
    return spans


def _mask_samples(mask) -> np.ndarray:
    return np.where(np.asarray(mask, dtype=bool), 0.5, 0.0).astype(np.float32)


def test_voiced_spans_match_loop_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(3000):
        rate = int(rng.integers(1, 61))
        n = int(rng.integers(0, 120))
        density = rng.uniform(0.02, 0.98)
        mask = rng.random(n) < density
        # silent samples just under the threshold, voiced ones of either sign
        voiced = rng.choice([-1.0, 1.0], n) * rng.uniform(1e-4, 1.0, n)
        samples = np.where(mask, voiced, rng.uniform(-9e-5, 9e-5, n)).astype(np.float32)
        assert _voiced_spans(samples, rate) == _voiced_spans_loop(samples, rate), (rate, n)

    cases = {
        "all silent": ([0] * 50, 10, []),
        "empty": ([], 10, []),
        "single voiced sample": ([0] * 7 + [1] + [0] * 7, 10, [(7, 8)]),
        "voice at first and last sample": ([1] + [0] * 20 + [1], 10, [(0, 1), (21, 22)]),
        # int(0.3 * 10) == 3: voiced samples 3 apart merge, 4 apart split
        "gap equal to int(0.3*rate)": ([1, 1, 0, 0, 1, 1], 10, [(0, 6)]),
        "gap one sample longer": ([1, 1, 0, 0, 0, 1, 1], 10, [(0, 2), (5, 7)]),
        # int(0.3 * 3) == 0: even adjacent voiced samples are separate spans
        "rate below 4 Hz": ([1, 1, 0, 1], 3, [(0, 1), (1, 2), (3, 4)]),
        "rate 4 Hz": ([1, 1, 0, 1], 4, [(0, 2), (3, 4)]),
    }
    for name, (mask, rate, expected) in cases.items():
        samples = _mask_samples(mask)
        assert _voiced_spans(samples, rate) == expected, name
        assert _voiced_spans_loop(samples, rate) == expected, name


@pytest.mark.parametrize("block", [1, 2, 3, 5, 16])
def test_blockwise_voiced_spans_match_loop_oracle(monkeypatch, block):
    monkeypatch.setattr(mocks, "SPAN_BLOCK", block)  # spans and runs cross block edges
    rng = np.random.default_rng(block)
    for _ in range(600):
        rate = int(rng.choice([1, 2, 3, int(rng.integers(4, 61))]))  # gap == 0 below 4 Hz
        n = int(rng.integers(0, 120))
        mask = rng.random(n) < rng.uniform(0.02, 0.98)
        voiced = rng.choice([-1.0, 1.0], n) * rng.uniform(1e-4, 1.0, n)
        samples = np.where(mask, voiced, rng.uniform(-9e-5, 9e-5, n)).astype(np.float32)
        assert _voiced_spans(samples, rate) == _voiced_spans_loop(samples, rate), (rate, n)


def test_blockwise_voiced_spans_of_speech_match_loop_oracle(monkeypatch):
    samples = _fixed_ten_seconds()
    expected = _voiced_spans_loop(samples, 16000)
    for block in (997, 4800, 1 << 18):
        monkeypatch.setattr(mocks, "SPAN_BLOCK", block)
        assert _voiced_spans(samples, 16000) == expected, block


@pytest.mark.parametrize(
    "n_samples, rate, seed",
    [(441000, 44100, 1), (240000, 24000, 7), (16001, 16000, 3), (5, 8000, 2), (0, 8000, 2)],
)
def test_mock_decoder_blocks_concatenate_to_decode(tmp_path, n_samples, rate, seed):
    path = tmp_path / "src.mockav"
    path.write_bytes(mocks.MOCKAV_MAGIC + struct.pack("<IQQ", rate, n_samples, seed))
    block_rate, block_n, blocks = MockDecoder().decode_blocks(str(path))
    blocks = list(blocks)
    assert (block_rate, block_n) == (rate, n_samples)
    assert len(blocks) > 1 or n_samples < 6 * rate  # one utterance plus its gap per block
    joined = np.concatenate(blocks) if blocks else np.zeros(0, np.float32)
    assert joined.dtype == np.float32
    assert joined.tobytes() == speechlike_waveform(n_samples, rate, seed).tobytes()
    assert [b.size for b in speechlike_blocks(n_samples, rate, seed)] == [b.size for b in blocks]


def test_mock_decoder_blocks_of_a_wav_file(tmp_path):
    path = tmp_path / "src.wav"
    clip = AudioClip(samples=speechlike_waveform(8001, 8000, seed=4), sample_rate_hz=8000)
    path.write_bytes(encode_wav_pcm16(clip))
    samples, rate = decode_wav_pcm16(path.read_bytes())
    block_rate, n_samples, blocks = MockDecoder().decode_blocks(str(path))
    assert (block_rate, n_samples) == (rate, 8001)
    assert np.concatenate(list(blocks)).tobytes() == samples.tobytes()


def _fixed_ten_seconds() -> np.ndarray:
    rate = 16000
    samples = speechlike_waveform(10 * rate, rate, seed=5)
    samples[rate : rate + 1600] = 0.0  # 0.1 s hole inside an utterance: merged over
    samples[int(2.5 * rate) : int(3.5 * rate)] = 0.0  # 1 s hole: splits the utterance
    samples[int(2.9 * rate) : int(3.05 * rate)] = 0.25  # 0.15 s burst: too short for ASR
    return samples


def test_mock_asr_and_diarization_spans_are_pinned():
    samples = _fixed_ten_seconds()
    segments = MockAsrAdapter().transcribe(samples, 16000, AsrConfig(language="hi"))
    assert segments == [
        TranscriptSegment(start_s=6.25e-05, end_s=2.5, text="किताबें ज्ञान का भंडार हैं"),
        TranscriptSegment(start_s=3.5, end_s=5.2199375, text="मुझे संगीत सुनना पसंद है"),
        TranscriptSegment(start_s=5.9431875, end_s=8.124125, text="बच्चे बगीचे में खेल रहे हैं"),
        TranscriptSegment(start_s=8.54375, end_s=9.9999375, text="पानी जीवन के लिए आवश्यक है"),
    ]
    turns = MockDiarizationAdapter(n_speakers=2).diarize(samples, 16000)
    assert turns == [
        SpeakerTurn(start_s=6.25e-05, end_s=2.5, speaker_label="S0"),
        SpeakerTurn(start_s=2.9, end_s=3.05, speaker_label="S1"),
        SpeakerTurn(start_s=3.5, end_s=5.2199375, speaker_label="S0"),
        SpeakerTurn(start_s=5.9431875, end_s=8.124125, speaker_label="S1"),
        SpeakerTurn(start_s=8.54375, end_s=9.9999375, speaker_label="S0"),
    ]


@pytest.mark.parametrize(
    "n_samples, rate, seed, sha256",
    [
        (441000, 44100, 1, "7a81ae092d23c065df8a64037c721f05911ddc5f03885b5e02b6930cbfb02fa0"),
        (240000, 24000, 7, "65b6ea977916e96074d231ef3461c44fa19d9b6b501aade83335919126189fcd"),
        (16001, 16000, 3, "5a28a909a788a909b921f139329bee3300f18186e49627e639cd78649035f393"),
    ],
)
def test_speechlike_waveform_golden_bytes(n_samples, rate, seed, sha256):
    wave = speechlike_waveform(n_samples, rate, seed)
    assert wave.dtype == np.float32 and wave.size == n_samples
    assert hashlib.sha256(wave.tobytes()).hexdigest() == sha256


def _tts_reference(text, semantic, fine, params) -> np.ndarray:
    """Reference: `MockTtsAdapter.synthesize` as whole-array expressions."""
    seed = mocks._hash64(
        text.encode("utf-8"),
        np.asarray(semantic, dtype=np.int64).tobytes(),
        np.asarray(fine, dtype=np.int64).tobytes(),
        struct.pack("<ddq", params.text_temp, params.waveform_temp, params.seed or 0),
    )
    n = int(round(min(14.0, 1.0 + 0.055 * len(text)) * 24000))
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64) / 24000
    f0 = rng.uniform(100.0, 200.0)
    wave = np.zeros(n, dtype=np.float64)
    for k, amp in ((1, 0.5), (2, 0.22), (3, 0.1)):
        wave += amp * np.sin(2.0 * np.pi * f0 * k * t + rng.uniform(0, 2 * np.pi))
    mod_rate = 2.0 + 3.0 * params.text_temp
    depth = 0.2 + 0.3 * params.waveform_temp
    wave *= 1.0 - depth * 0.5 * (1.0 + np.sin(2.0 * np.pi * mod_rate * t))
    ramp = np.linspace(0.0, 1.0, 480)
    wave[:480] *= ramp
    wave[-480:] *= ramp[::-1]
    return np.clip(0.6 * wave, -1.0, 1.0).astype(np.float32)


def _vc_reference(x: np.ndarray, model_ref: str, params) -> np.ndarray:
    """Reference: `MockVcAdapter.convert` as whole-array expressions, on 32 kHz samples."""
    x = x.astype(np.float64)
    t = np.arange(x.size, dtype=np.float64) / 32000
    carrier_hz = 30.0 + (mocks._hash64(model_ref.encode()) % 400) / 10.0
    depth = 0.5 * params.index_ratio
    shifted = x * (1.0 - depth + depth * np.sin(2.0 * np.pi * carrier_hz * t))
    out = (1.0 - params.envelope_mix) * x + params.envelope_mix * shifted
    peak = np.abs(out).max()
    if peak > 0:
        out *= min(1.0, np.abs(x).max() / peak)
    return np.clip(out, -1.0, 1.0).astype(np.float32)


# 260 characters reach the 14 s cap; text_temp and waveform_temp must lie in (0, 2]
@pytest.mark.parametrize("length", [0, 1, 60, 233, 260])
def test_mock_tts_matches_array_oracle(length):
    tts = MockTtsAdapter()
    text = ("नमस्ते दुनिया " * 20)[:length]
    semantic = np.arange(length % 7 + 3, dtype=np.int64)
    fine = np.arange(8 * 5, dtype=np.int64).reshape(8, 5) * (length + 1)
    for text_temp in (0.05, 0.7, 1.0, 2.0):
        for waveform_temp in (0.05, 0.7, 1.0, 2.0):
            params = GenerationParams(text_temp=text_temp, waveform_temp=waveform_temp, seed=length)
            got = tts.synthesize(text, semantic, fine[:2], fine, params)
            want = _tts_reference(text, semantic, fine, params)
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes(), (text_temp, waveform_temp)


@pytest.mark.parametrize("rate", [24000, 32000])
def test_mock_vc_matches_array_oracle(rate):
    vc = MockVcAdapter(known_models={"voice.pth", "voice.index"})
    samples = speechlike_waveform(int(1.5 * rate), rate, seed=rate)
    x = samples if rate == 32000 else resample(AudioClip(samples, rate), 32000).samples
    for envelope_mix in (0.0, 0.5, 1.0):
        for index_ratio in (0.0, 0.75, 1.0):
            params = ConversionParams(
                envelope_mix=envelope_mix, filter_radius=3, index_ratio=index_ratio, protect=0.33
            )
            got, out_rate = vc.convert(samples, rate, "voice.pth", "voice.index", params)
            assert out_rate == 32000 and got.dtype == np.float32
            want = _vc_reference(x, "voice.pth", params)
            assert got.tobytes() == want.tobytes(), (envelope_mix, index_ratio)


def test_mock_vc_matches_array_oracle_on_silence_and_when_scaling():
    vc = MockVcAdapter(known_models={"voice.pth", "voice.index"})
    silence = np.zeros(32000, dtype=np.float32)
    params = default_conversion_params()
    got, _ = vc.convert(silence, 32000, "voice.pth", "voice.index", params)
    assert got.tobytes() == _vc_reference(silence, "voice.pth", params).tobytes()
    # with no modulation the output is (1 - 0.1) * x + 0.1 * x, which rounds above x
    # at the peak sample: the output's peak passes the input's, so it is scaled down
    samples = np.random.default_rng(5).uniform(-0.5, 0.5, 32000).astype(np.float32)
    samples[100] = -0.63489336
    params = ConversionParams(envelope_mix=0.1, filter_radius=3, index_ratio=0.0, protect=0.33)
    x = samples.astype(np.float64)
    assert np.abs((1.0 - 0.1) * x + 0.1 * x).max() > np.abs(x).max()
    got, _ = vc.convert(samples, 32000, "voice.pth", "voice.index", params)
    assert got.tobytes() == _vc_reference(samples, "voice.pth", params).tobytes()
