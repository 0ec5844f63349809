from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from voiceforge.adapters.mocks import (
    MockDenoiseAdapter,
    MockStemAdapter,
    MockTranscodeAdapter,
)
from voiceforge.audio import AudioClip
from voiceforge.errors import ConfigurationError, FormatError, StageError, ValidationError
from voiceforge.preprocess import (
    AudioFormat,
    EncodedAudio,
    SegmentationPolicy,
    StemModel,
    TailPolicy,
    denoise,
    segment,
    segment_bounds,
    separate_vocals,
    transcode,
)


def _clip(duration_s: float, rate: int = 8000) -> AudioClip:
    n = round(duration_s * rate)
    samples = ((np.arange(n, dtype=np.int64) % 701) / 1000.0).astype(np.float32)
    return AudioClip(samples=samples, sample_rate_hz=rate)


class TestSegmentationPolicy:
    def test_defaults(self):
        policy = SegmentationPolicy()
        assert policy.target_len_s == 10.0
        assert policy.tail is TailPolicy.DROP_LAST
        assert policy.min_tail_s == 0.0

    def test_target_must_be_positive(self):
        with pytest.raises(ValidationError):
            SegmentationPolicy(target_len_s=0.0)

    def test_tail_must_be_below_target(self):
        with pytest.raises(ValidationError):
            SegmentationPolicy(target_len_s=5.0, tail=TailPolicy.KEEP_LAST, min_tail_s=5.0)


class TestSegment:
    def test_exact_division(self):
        pieces = segment(_clip(60.0), SegmentationPolicy(target_len_s=10.0))
        assert len(pieces) == 6
        assert all(p.duration_s == 10.0 for p in pieces)

    def test_drop_last_discards_tail(self):
        pieces = segment(_clip(23.5), SegmentationPolicy(target_len_s=10.0))
        assert [p.duration_s for p in pieces] == [10.0, 10.0]

    def test_keep_last_keeps_sufficient_tail(self):
        policy = SegmentationPolicy(
            target_len_s=10.0, tail=TailPolicy.KEEP_LAST, min_tail_s=1.0
        )
        pieces = segment(_clip(23.5), policy)
        assert [p.duration_s for p in pieces] == [10.0, 10.0, 3.5]

    def test_keep_last_drops_tiny_tail(self):
        policy = SegmentationPolicy(
            target_len_s=10.0, tail=TailPolicy.KEEP_LAST, min_tail_s=1.0
        )
        pieces = segment(_clip(20.5), policy)
        assert [p.duration_s for p in pieces] == [10.0, 10.0]

    def test_short_clip_yields_nothing(self):
        assert segment(_clip(4.0), SegmentationPolicy(target_len_s=5.0)) == []

    def test_offsets_step_by_target(self):
        pieces = segment(_clip(35.0), SegmentationPolicy(target_len_s=10.0))
        assert [p.offset_s for p in pieces] == [0.0, 10.0, 20.0]

    def test_concatenation_reproduces_input(self):
        clip = _clip(23.5)
        policy = SegmentationPolicy(
            target_len_s=10.0, tail=TailPolicy.KEEP_LAST, min_tail_s=0.0
        )
        pieces = segment(clip, policy)
        joined = np.concatenate([p.samples for p in pieces])
        assert np.array_equal(joined, clip.samples)

    def test_source_id_propagates(self):
        clip = AudioClip(
            samples=np.zeros(80000, np.float32), sample_rate_hz=8000, source_id="src7"
        )
        pieces = segment(clip, SegmentationPolicy(target_len_s=5.0))
        assert all(p.source_id == "src7" for p in pieces)


class TestDenoise:
    def test_strength_zero_is_identity(self):
        clip = _clip(1.0)
        out = denoise(clip, 0.0, MockDenoiseAdapter())
        assert np.array_equal(out.samples, clip.samples)

    def test_silent_in_silent_out(self):
        clip = AudioClip(samples=np.zeros(4000, np.float32), sample_rate_hz=8000)
        out = denoise(clip, 0.8, MockDenoiseAdapter())
        assert out.n_samples == 4000
        assert np.array_equal(out.samples, clip.samples)

    def test_strength_out_of_range(self):
        with pytest.raises(ConfigurationError):
            denoise(_clip(1.0), 1.5, MockDenoiseAdapter())

    def test_empty_clip_rejected(self):
        empty = AudioClip(samples=np.zeros(0, np.float32), sample_rate_hz=8000)
        with pytest.raises(ValidationError):
            denoise(empty, 0.5, MockDenoiseAdapter())

    def test_length_changing_adapter_is_an_error(self):
        class Truncating:
            def denoise(self, samples, rate, strength):
                return samples[:-1]

        with pytest.raises(StageError, match="length"):
            denoise(_clip(1.0), 0.5, Truncating())


class TestStems:
    def test_identity_adapter_passthrough(self):
        class Identity:
            def separate_vocals(self, samples, rate, stem_model):
                return samples

        clip = _clip(1.0)
        out = separate_vocals(clip, StemModel.TWO_STEMS, Identity())
        assert np.array_equal(out.samples, clip.samples)

    def test_no_length_invariant_across_adapters(self):
        class HalfLength:
            def separate_vocals(self, samples, rate, stem_model):
                return samples[: samples.size // 2]

        clip = _clip(2.0)
        out = separate_vocals(clip, StemModel.TWO_STEMS, HalfLength())
        assert out.duration_s == pytest.approx(1.0)

    def test_unsupported_stem_model(self):
        adapter = MockStemAdapter(supported=("two_stems",))
        with pytest.raises(ConfigurationError, match="four_stems"):
            separate_vocals(_clip(1.0), StemModel.FOUR_STEMS, adapter)


class TestTranscode:
    def test_wav_payload_size(self):
        encoded = transcode(_clip(1.0, rate=8000), AudioFormat.WAV_PCM16, MockTranscodeAdapter())
        assert len(encoded.payload) == 44 + 2 * 8000

    def test_empty_clip_rejected(self):
        empty = AudioClip(samples=np.zeros(0, np.float32), sample_rate_hz=8000)
        with pytest.raises(ValidationError):
            transcode(empty, AudioFormat.WAV_PCM16, MockTranscodeAdapter())


class TestEncodedAudio:
    def test_magic_must_match_format(self):
        with pytest.raises(FormatError):
            EncodedAudio(payload=b"RIFF....WAVE", format=AudioFormat.MP3)

    def test_rejects_empty_payload(self):
        with pytest.raises(ValidationError):
            EncodedAudio(payload=b"", format=AudioFormat.MP3)


# Property tests of the boundary arithmetic. A ramp has distinct samples, so a
# piece equal to a slice of it is exactly that slice.
BOUNDARY_SETTINGS = settings(max_examples=100, derandomize=True, deadline=None, database=None)
RATES = st.sampled_from([8000, 16000, 22050, 24000, 44100])


def _ramp(n: int, rate: int, offset_s: float = 0.0) -> AudioClip:
    return AudioClip(samples=np.arange(n) / max(n, 1), sample_rate_hz=rate, offset_s=offset_s)


class TestSegmentBoundaries:
    @BOUNDARY_SETTINGS
    @given(
        n=st.integers(0, 20000),
        rate=RATES,
        target_len_s=st.floats(0.01, 1.0),
        tail=st.sampled_from(list(TailPolicy)),
        offset_s=st.floats(0.0, 100.0),
        data=st.data(),
    )
    def test_pieces_span_the_rounded_boundaries(self, n, rate, target_len_s, tail, offset_s, data):
        step = target_len_s * rate
        full = 0
        while round((full + 1) * step) <= n:
            full += 1
        end = round(full * step)
        remainder = n - end
        # half the draws put the tail threshold exactly on the remainder
        min_tail_s = data.draw(st.just(remainder / rate) | st.floats(0.0, target_len_s, exclude_max=True))
        assume(min_tail_s < target_len_s)
        policy = SegmentationPolicy(target_len_s=target_len_s, tail=tail, min_tail_s=min_tail_s)
        clip = _ramp(n, rate, offset_s)
        pieces = segment(clip, policy)
        has_tail = tail is TailPolicy.KEEP_LAST and remainder > 0 and remainder / rate >= min_tail_s
        assert len(pieces) == full + has_tail
        for k, piece in enumerate(pieces[:full]):
            lo, hi = round(k * step), round((k + 1) * step)
            assert np.array_equal(piece.samples, clip.samples[lo:hi])
            assert piece.offset_s == offset_s + k * target_len_s
        if has_tail:
            assert np.array_equal(pieces[-1].samples, clip.samples[end:])
            assert pieces[-1].offset_s == offset_s + full * target_len_s
        joined = np.concatenate([p.samples for p in pieces]) if pieces else clip.samples[:0]
        assert np.array_equal(joined, clip.samples[: n if has_tail else end])  # contiguous

    @BOUNDARY_SETTINGS
    @given(
        n=st.integers(0, 20000),
        rate=RATES,
        target_len_s=st.floats(0.01, 1.0),
        tail=st.sampled_from(list(TailPolicy)),
        data=st.data(),
    )
    def test_bounds_from_the_length_are_the_pieces(self, n, rate, target_len_s, tail, data):
        step = target_len_s * rate
        full = 0
        while round((full + 1) * step) <= n:
            full += 1
        remainder = n - round(full * step)
        # half the draws put the tail threshold exactly on the remainder
        min_tail_s = data.draw(st.just(remainder / rate) | st.floats(0.0, target_len_s, exclude_max=True))
        assume(min_tail_s < target_len_s)
        policy = SegmentationPolicy(target_len_s=target_len_s, tail=tail, min_tail_s=min_tail_s)
        # samples that are their own index (exact in float32 below 2**15)
        clip = AudioClip(samples=np.arange(n) / 2**15, sample_rate_hz=rate)
        pieces = segment(clip, policy)
        spans = [(round(p.samples[0] * 2**15), round(p.samples[0] * 2**15) + p.n_samples) for p in pieces]
        assert segment_bounds(n, rate, policy) == spans
