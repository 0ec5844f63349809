from __future__ import annotations

import numpy as np
import pytest

from voiceforge.adapters.mocks import MockVcAdapter
from voiceforge.audio import AudioClip
from voiceforge.conversion import (
    ALLOWED_TRAINING_RATES_HZ,
    MIN_TRAINING_SECONDS,
    ConversionParams,
    TrainingConfig,
    convert_voice,
    default_conversion_params,
    default_training_config,
    validate_training_data,
    write_training_config,
)
from voiceforge.errors import ConfigurationError, StageError, ValidationError


def _clip(duration_s: float, rate: int = 32000, source_id: str = "") -> AudioClip:
    t = np.arange(round(duration_s * rate), dtype=np.float64) / rate
    samples = (0.3 * np.sin(2 * np.pi * 180.0 * t)).astype(np.float32)
    return AudioClip(samples=samples, sample_rate_hz=rate, source_id=source_id)


class TestTrainingConfig:
    def test_published_defaults(self):
        config = default_training_config()
        assert config.target_sample_rate_hz == 32000
        assert config.batch_size == 40
        assert config.epochs == 200
        assert config.pretrained_gen == "f0G32k"
        assert config.pretrained_disc == "f0D32k"
        assert config.pitch_guided is True

    @pytest.mark.parametrize("rate", ALLOWED_TRAINING_RATES_HZ)
    def test_allowed_rates(self, rate):
        config = TrainingConfig(
            target_sample_rate_hz=rate,
            batch_size=1,
            epochs=1,
            pretrained_gen="g",
            pretrained_disc="d",
            pitch_guided=False,
        )
        assert config.target_sample_rate_hz == rate

    def test_rejects_cd_rate(self):
        with pytest.raises(ValidationError, match="44100"):
            TrainingConfig(
                target_sample_rate_hz=44100,
                batch_size=40,
                epochs=200,
                pretrained_gen="g",
                pretrained_disc="d",
                pitch_guided=True,
            )

    @pytest.mark.parametrize("batch,epochs", [(0, 200), (40, 0)])
    def test_counts_must_be_positive(self, batch, epochs):
        with pytest.raises(ValidationError):
            TrainingConfig(
                target_sample_rate_hz=32000,
                batch_size=batch,
                epochs=epochs,
                pretrained_gen="g",
                pretrained_disc="d",
                pitch_guided=True,
            )


class TestConversionParams:
    def test_published_defaults(self):
        params = default_conversion_params()
        assert params.envelope_mix == 0.25
        assert params.filter_radius == 3
        assert params.index_ratio == 0.75
        assert params.protect == 0.33
        assert params.transpose_semitones == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"envelope_mix": 1.1},
            {"envelope_mix": -0.1},
            {"filter_radius": -1},
            {"index_ratio": 1.5},
            {"protect": 0.6},
            {"protect": -0.01},
        ],
    )
    def test_out_of_range_values(self, kwargs):
        base = dict(envelope_mix=0.25, filter_radius=3, index_ratio=0.75, protect=0.33)
        base.update(kwargs)
        with pytest.raises(ValidationError):
            ConversionParams(**base)

    def test_protect_upper_bound_inclusive(self):
        params = ConversionParams(
            envelope_mix=0.0, filter_radius=0, index_ratio=0.0, protect=0.5
        )
        assert params.protect == 0.5


def _total_s(clips) -> float:
    return sum(clip.duration_s for clip in clips)


class TestValidateTrainingData:
    def test_hour_of_audio_is_clean(self):
        clips = [_clip(60.0) for _ in range(60)]
        assert validate_training_data(_total_s(clips)) == []

    def test_underfull_corpus_names_the_threshold(self):
        clips = [_clip(60.0) for _ in range(9)]
        warnings = validate_training_data(_total_s(clips))
        assert len(warnings) == 1
        assert "540.0 s" in warnings[0]
        assert "600 s" in warnings[0]

    def test_exactly_at_minimum_is_clean(self):
        clips = [_clip(MIN_TRAINING_SECONDS / 10) for _ in range(10)]
        assert validate_training_data(_total_s(clips)) == []

    def test_empty_corpus_warns_about_duration(self):
        warnings = validate_training_data(_total_s([]))
        assert len(warnings) == 1
        assert "0.0 s" in warnings[0]


class TestConvertVoice:
    def test_duration_and_rate_preserved(self, tmp_path):
        model = tmp_path / "voice.pth"
        index = tmp_path / "voice.index"
        model.touch()
        index.touch()
        clip = _clip(2.0, source_id="src1")
        out = convert_voice(
            clip, str(model), str(index), default_conversion_params(), MockVcAdapter()
        )
        assert out.sample_rate_hz == 32000
        assert out.duration_s == pytest.approx(clip.duration_s, rel=0.02)
        assert out.source_id == "src1"

    def test_resamples_to_backend_native_rate(self, tmp_path):
        model = tmp_path / "voice.pth"
        index = tmp_path / "voice.index"
        model.touch()
        index.touch()
        clip = _clip(1.0, rate=48000)
        out = convert_voice(
            clip, str(model), str(index), default_conversion_params(), MockVcAdapter()
        )
        assert out.sample_rate_hz == 32000

    def test_unknown_model_ref_propagates(self):
        backend = MockVcAdapter(known_models={"good"})
        with pytest.raises(ConfigurationError, match="model_ref"):
            convert_voice(
                _clip(1.0), "bad", "good", default_conversion_params(), backend
            )

    def test_duration_drift_beyond_two_percent(self):
        class Stretching(MockVcAdapter):
            def convert(self, samples, rate, model_ref, index_ref, params):
                return np.zeros(int(samples.size * 1.05), np.float32), rate

        backend = Stretching(known_models={"m", "i"})
        with pytest.raises(StageError, match="2%"):
            convert_voice(_clip(1.0), "m", "i", default_conversion_params(), backend)

    @pytest.mark.parametrize("bad", [1.5, np.nan], ids=["out_of_range", "nan"])
    def test_invalid_backend_audio_is_a_stage_error(self, bad):
        class Corrupting(MockVcAdapter):
            def convert(self, samples, rate, *rest):
                out = np.array(samples, dtype=np.float32)
                out[out.size // 2] = bad
                return out, rate

        backend = Corrupting(known_models={"m", "i"})
        with pytest.raises(StageError, match="invalid audio"):
            convert_voice(_clip(1.0), "m", "i", default_conversion_params(), backend)

    def test_backend_crash_becomes_stage_error(self):
        class Broken(MockVcAdapter):
            def convert(self, *args):
                raise RuntimeError("cuda error")

        backend = Broken(known_models={"m", "i"})
        with pytest.raises(StageError, match="cuda"):
            convert_voice(_clip(1.0), "m", "i", default_conversion_params(), backend)

    def test_empty_clip_rejected(self):
        empty = AudioClip(samples=np.zeros(0, np.float32), sample_rate_hz=32000)
        with pytest.raises(ValidationError):
            convert_voice(
                empty, "m", "i", default_conversion_params(), MockVcAdapter(known_models={"m", "i"})
            )


class TestWriteTrainingConfig:
    def test_emits_flat_key_value_lines(self, tmp_path):
        path = tmp_path / "training_config.txt"
        write_training_config(default_training_config(), path)
        assert path.read_text(encoding="utf-8") == (
            "sample_rate=32000\n"
            "batch_size=40\n"
            "epochs=200\n"
            "pretrained_generator=f0G32k\n"
            "pretrained_discriminator=f0D32k\n"
            "pitch_guided=true\n"
        )

    def test_pitch_guidance_off_writes_false(self, tmp_path):
        config = TrainingConfig(
            target_sample_rate_hz=48000,
            batch_size=8,
            epochs=10,
            pretrained_gen="g48",
            pretrained_disc="d48",
            pitch_guided=False,
        )
        path = tmp_path / "cfg.txt"
        write_training_config(config, path)
        assert "pitch_guided=false" in path.read_text(encoding="utf-8").splitlines()

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "cfg.txt"
        write_training_config(default_training_config(), path)
        assert path.is_file()
