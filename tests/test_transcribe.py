from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from voiceforge.adapters.mocks import (
    MockAsrAdapter,
    MockDiarizationAdapter,
    speechlike_waveform,
)
from voiceforge.audio import AudioClip
from voiceforge.errors import StageError, ValidationError
from voiceforge.transcribe import (
    AsrConfig,
    AsrTask,
    SpeakerTurn,
    TranscriptSegment,
    diarize,
    minority_speaker_fraction,
    slice_by_segments,
    transcribe,
)


def _speech_clip(duration_s: float = 10.0, rate: int = 16000, seed: int = 4) -> AudioClip:
    samples = speechlike_waveform(round(duration_s * rate), rate, seed)
    return AudioClip(samples=samples, sample_rate_hz=rate, source_id="talk")


class TestAsrConfig:
    def test_defaults_to_hindi_transcription(self):
        config = AsrConfig()
        assert config.language == "hi"
        assert config.task is AsrTask.TRANSCRIBE

    def test_language_required(self):
        with pytest.raises(ValidationError):
            AsrConfig(language="")


class TestSegmentAndTurnValidation:
    def test_segment_ordering_enforced(self):
        with pytest.raises(ValidationError, match="precede"):
            TranscriptSegment(start_s=2.0, end_s=1.0, text="x")

    def test_segment_start_non_negative(self):
        with pytest.raises(ValidationError):
            TranscriptSegment(start_s=-0.1, end_s=1.0, text="x")

    def test_segment_text_non_empty(self):
        with pytest.raises(ValidationError):
            TranscriptSegment(start_s=0.0, end_s=1.0, text="  ")

    def test_turn_label_non_empty(self):
        with pytest.raises(ValidationError):
            SpeakerTurn(start_s=0.0, end_s=1.0, speaker_label="")


class TestTranscribe:
    def test_segments_are_sorted_and_in_bounds(self):
        clip = _speech_clip()
        segments = transcribe(clip, AsrConfig(), MockAsrAdapter())
        assert segments
        starts = [s.start_s for s in segments]
        assert starts == sorted(starts)
        assert all(s.end_s <= clip.duration_s + 1e-6 for s in segments)
        for earlier, later in zip(segments, segments[1:]):
            assert earlier.end_s <= later.start_s + 1e-6

    def test_hindi_text_comes_back_in_devanagari(self):
        segments = transcribe(_speech_clip(), AsrConfig(language="hi"), MockAsrAdapter())
        text = "".join(s.text for s in segments)
        assert any("ऀ" <= ch <= "ॿ" for ch in text)

    def test_silence_yields_no_segments(self):
        quiet = AudioClip(samples=np.zeros(16000, np.float32), sample_rate_hz=16000)
        assert transcribe(quiet, AsrConfig(), MockAsrAdapter()) == []

    def test_whitespace_in_adapter_text_is_normalized(self):
        class Sloppy:
            def transcribe(self, samples, rate, config):
                return [TranscriptSegment(start_s=0.0, end_s=0.5, text="  एक   दो ")]

        segments = transcribe(_speech_clip(1.0), AsrConfig(), Sloppy())
        assert segments[0].text == "एक दो"

    def test_out_of_bounds_segment_is_a_stage_error(self):
        class Overshooting:
            def transcribe(self, samples, rate, config):
                return [TranscriptSegment(start_s=0.0, end_s=99.0, text="x")]

        with pytest.raises(StageError, match="beyond clip duration"):
            transcribe(_speech_clip(1.0), AsrConfig(), Overshooting())

    def test_overlapping_segments_are_a_stage_error(self):
        class Overlapping:
            def transcribe(self, samples, rate, config):
                return [
                    TranscriptSegment(start_s=0.0, end_s=0.6, text="a"),
                    TranscriptSegment(start_s=0.5, end_s=0.9, text="b"),
                ]

        with pytest.raises(StageError, match="overlap"):
            transcribe(_speech_clip(1.0), AsrConfig(), Overlapping())

    def test_adapter_crash_becomes_stage_error(self):
        class Crashing:
            def transcribe(self, samples, rate, config):
                raise RuntimeError("decoder exploded")

        with pytest.raises(StageError, match="decoder exploded"):
            transcribe(_speech_clip(1.0), AsrConfig(), Crashing())


class TestDiarize:
    def test_single_speaker_covers_whole_clip(self):
        clip = _speech_clip(5.0)
        turns = diarize(clip, MockDiarizationAdapter())
        assert len(turns) == 1
        assert turns[0].speaker_label == "S0"
        assert turns[0].start_s == 0.0
        assert turns[0].end_s == pytest.approx(clip.duration_s)

    def test_multi_speaker_turns_come_back_sorted(self):
        turns = diarize(_speech_clip(12.0), MockDiarizationAdapter(n_speakers=2))
        labels = {t.speaker_label for t in turns}
        assert labels == {"S0", "S1"}
        starts = [t.start_s for t in turns]
        assert starts == sorted(starts)


class TestSliceBySegments:
    def test_one_second_slice_at_24k(self):
        clip = AudioClip(
            samples=np.arange(72000, dtype=np.float32) / 100000.0,
            sample_rate_hz=24000,
            source_id="src",
        )
        segments = [TranscriptSegment(start_s=1.0, end_s=2.0, text="बीच का हिस्सा")]
        [(piece, text)] = slice_by_segments(clip, segments)
        assert piece.n_samples == 24000
        assert piece.offset_s == 1.0
        assert text == "बीच का हिस्सा"
        assert np.array_equal(piece.samples, clip.samples[24000:48000])

    def test_offset_accumulates_with_existing_offset(self):
        clip = AudioClip(
            samples=np.ones(48000, np.float32) * 0.1,
            sample_rate_hz=24000,
            offset_s=10.0,
        )
        [(piece, _)] = slice_by_segments(
            clip, [TranscriptSegment(start_s=0.5, end_s=1.0, text="x")]
        )
        assert piece.offset_s == 10.5

    def test_segment_past_clip_end_rejected(self):
        clip = _speech_clip(1.0)
        with pytest.raises(ValidationError, match="exceeds"):
            slice_by_segments(clip, [TranscriptSegment(start_s=0.5, end_s=1.5, text="x")])

    def test_empty_segment_list(self):
        assert slice_by_segments(_speech_clip(1.0), []) == []


class TestMinoritySpeakerFraction:
    def test_single_speaker_is_zero(self):
        turns = [SpeakerTurn(0.0, 5.0, "S0"), SpeakerTurn(5.0, 9.0, "S0")]
        assert minority_speaker_fraction(turns) == 0.0

    def test_sixty_forty_split(self):
        turns = [SpeakerTurn(0.0, 6.0, "S0"), SpeakerTurn(6.0, 10.0, "S1")]
        assert minority_speaker_fraction(turns) == pytest.approx(0.4)

    def test_no_turns_is_zero(self):
        assert minority_speaker_fraction([]) == 0.0

    def test_three_speakers(self):
        turns = [
            SpeakerTurn(0.0, 5.0, "S0"),
            SpeakerTurn(5.0, 8.0, "S1"),
            SpeakerTurn(8.0, 10.0, "S2"),
        ]
        assert minority_speaker_fraction(turns) == pytest.approx(0.5)


BOUNDARY_SETTINGS = settings(max_examples=100, derandomize=True, deadline=None, database=None)
RATES = st.sampled_from([8000, 16000, 22050, 24000, 44100])


def _ramp(n: int, rate: int) -> AudioClip:
    """Distinct samples, so a slice equal to a span of it is exactly that span."""
    return AudioClip(samples=np.arange(n) / n, sample_rate_hz=rate, offset_s=3.25)


class TestSliceBoundaries:
    @BOUNDARY_SETTINGS
    @given(n=st.integers(1, 20000), rate=RATES, data=st.data())
    def test_slices_span_the_rounded_times(self, n, rate, data):
        clip = _ramp(n, rate)
        segments = []
        for i in range(data.draw(st.integers(1, 5))):
            start = data.draw(st.floats(0.0, clip.duration_s, exclude_max=True))
            end = data.draw(st.just(clip.duration_s) | st.floats(start, clip.duration_s, exclude_min=True))
            segments.append(TranscriptSegment(start_s=start, end_s=end, text=f"वाक्य {i}"))
        pairs = slice_by_segments(clip, segments)
        assert [text for _, text in pairs] == [seg.text for seg in segments]
        for (piece, _), seg in zip(pairs, segments):
            lo, hi = round(seg.start_s * rate), round(seg.end_s * rate)
            assert np.array_equal(piece.samples, clip.samples[lo:hi])
            assert piece.offset_s == clip.offset_s + lo / rate

    @BOUNDARY_SETTINGS
    @given(n=st.integers(1, 20000), rate=RATES, data=st.data())
    def test_a_span_past_the_last_sample_raises(self, n, rate, data):
        clip = _ramp(n, rate)
        start = data.draw(st.floats(0.0, clip.duration_s, exclude_max=True))
        end = data.draw(st.just((n + 1) / rate) | st.floats(clip.duration_s, 2 * clip.duration_s))
        assume(round(end * rate) > n)
        inside = TranscriptSegment(start_s=0.0, end_s=clip.duration_s, text="पूरा")
        with pytest.raises(ValidationError, match="exceeds"):
            slice_by_segments(clip, [inside, TranscriptSegment(start_s=start, end_s=end, text="बाहर")])
