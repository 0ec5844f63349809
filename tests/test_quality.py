from __future__ import annotations

import json

import numpy as np
import pytest

from voiceforge.audio import AudioClip
from voiceforge.errors import ValidationError
from voiceforge.quality import (
    ClipConstraints,
    Issue,
    QualityReport,
    Severity,
    character_error_rate,
    levenshtein,
    silence_fraction,
    speaker_similarity,
    validate_clip,
    word_error_rate,
)


def _clip(duration_s: float, rate: int = 24000) -> AudioClip:
    n = round(duration_s * rate)
    rng = np.random.default_rng(17)
    samples = rng.uniform(0.1, 0.8, n).astype(np.float32)
    return AudioClip(samples=samples, sample_rate_hz=rate)


class TestLevenshtein:
    def test_single_substitution(self):
        assert levenshtein("abc", "axc") == 1

    def test_empty_against_anything(self):
        assert levenshtein("", "xyz") == 3
        assert levenshtein("xyz", "") == 3
        assert levenshtein("", "") == 0

    def test_insert_and_delete(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_identical(self):
        assert levenshtein("नमस्ते", "नमस्ते") == 0

    def test_works_on_token_lists(self):
        assert levenshtein(["a", "b", "c"], ["a", "c"]) == 1

    def test_symmetry(self):
        assert levenshtein("short", "a longer one") == levenshtein("a longer one", "short")


class TestErrorRates:
    def test_cer_one_third(self):
        assert character_error_rate("abc", "axc") == pytest.approx(1 / 3)

    def test_cer_can_exceed_one(self):
        assert character_error_rate("a", "bcd") == 3.0

    def test_cer_perfect_match(self):
        assert character_error_rate("वही पाठ", "वही पाठ") == 0.0

    def test_cer_empty_reference_rejected(self):
        with pytest.raises(ValidationError):
            character_error_rate("", "anything")

    def test_wer_one_third(self):
        assert word_error_rate("a b c", "a c") == pytest.approx(1 / 3)

    def test_wer_can_exceed_one(self):
        assert word_error_rate("a", "b c") == 2.0

    def test_wer_whitespace_only_reference_rejected(self):
        with pytest.raises(ValidationError):
            word_error_rate("   ", "x")

    def test_wer_ignores_whitespace_runs(self):
        assert word_error_rate("एक  दो   तीन", "एक दो तीन") == 0.0


class TestSilenceFraction:
    def test_all_zeros(self):
        clip = AudioClip(samples=np.zeros(1000, np.float32), sample_rate_hz=8000)
        assert silence_fraction(clip) == 1.0

    def test_loud_signal(self):
        assert silence_fraction(_clip(1.0)) == 0.0

    def test_half_silent(self):
        samples = np.concatenate([np.zeros(500, np.float32), np.full(500, 0.5, np.float32)])
        clip = AudioClip(samples=samples, sample_rate_hz=8000)
        assert silence_fraction(clip) == 0.5

    def test_empty_clip_counts_as_silent(self):
        clip = AudioClip(samples=np.zeros(0, np.float32), sample_rate_hz=8000)
        assert silence_fraction(clip) == 1.0


class TestClipConstraints:
    def test_defaults(self):
        constraints = ClipConstraints()
        assert constraints.MIN_DURATION_S == 1.0
        assert constraints.MAX_DURATION_S == 15.0
        assert constraints.required_rate_hz == 24000
        assert constraints.MAX_SILENCE_FRACTION == 0.9

    def test_rate_must_be_positive(self):
        with pytest.raises(ValidationError):
            ClipConstraints(required_rate_hz=0)


class TestValidateClip:
    def test_clean_clip_passes(self):
        assert validate_clip(_clip(5.0), ClipConstraints()) == []

    def test_short_clip(self):
        issues = validate_clip(_clip(0.5), ClipConstraints())
        assert [i.code for i in issues] == ["duration_short"]
        assert issues[0].severity is Severity.FAIL

    def test_long_clip(self):
        issues = validate_clip(_clip(16.0), ClipConstraints())
        assert [i.code for i in issues] == ["duration_long"]

    def test_wrong_rate(self):
        issues = validate_clip(_clip(5.0, rate=16000), ClipConstraints())
        assert [i.code for i in issues] == ["rate_mismatch"]
        assert "16000" in issues[0].message

    def test_silent_clip(self):
        clip = AudioClip(samples=np.zeros(5 * 24000, np.float32), sample_rate_hz=24000)
        issues = validate_clip(clip, ClipConstraints())
        assert [i.code for i in issues] == ["too_silent"]

    def test_multiple_violations_stack(self):
        clip = AudioClip(samples=np.zeros(4000, np.float32), sample_rate_hz=8000)
        codes = {i.code for i in validate_clip(clip, ClipConstraints())}
        assert codes == {"duration_short", "rate_mismatch", "too_silent"}


class TestSpeakerSimilarity:
    def test_identical_vectors(self):
        v = np.array([0.3, -0.2, 0.9])
        assert speaker_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert speaker_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_opposite_vectors(self):
        v = np.array([0.5, -0.5, 0.1])
        assert speaker_similarity(v, -v) == pytest.approx(-1.0)

    def test_scale_invariance(self):
        a = np.array([1.0, 2.0, 3.0])
        assert speaker_similarity(a, 10 * a) == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            speaker_similarity(np.ones(3), np.ones(4))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError, match="nonzero"):
            speaker_similarity(np.zeros(3), np.ones(3))


class TestQualityReport:
    def _report(self) -> QualityReport:
        report = QualityReport(metrics={"mean_cer": 0.12, "clip_count": 3.0})
        report.add("clip_b", [Issue("too_silent", Severity.FAIL, "silent")])
        report.add("clip_a", [Issue("note", Severity.INFO, "fine")])
        report.add("clip_c", [])
        return report

    def test_failing_ids_are_sorted_and_filtered(self):
        report = self._report()
        report.add("clip_0", [Issue("duration_short", Severity.FAIL, "short")])
        assert report.failing_clip_ids() == ["clip_0", "clip_b"]

    def test_warn_and_info_do_not_fail_a_clip(self):
        report = QualityReport()
        report.add("x", [Issue("n", Severity.WARN, "w"), Issue("m", Severity.INFO, "i")])
        assert report.failing_clip_ids() == []

    def test_json_is_stable_and_readable(self):
        doc = json.loads(self._report().to_json())
        assert set(doc) == {"metrics", "per_clip"}
        assert doc["metrics"]["mean_cer"] == 0.12
        assert doc["per_clip"]["clip_b"][0]["severity"] == "fail"
        assert self._report().to_json() == self._report().to_json()
        assert self._report().to_json().endswith("\n")

    def test_json_keeps_devanagari_readable(self):
        report = QualityReport()
        report.add("clip", [Issue("odd", Severity.INFO, "पाठ ठीक है")])
        assert "पाठ ठीक है" in report.to_json()

    def test_save_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "quality_report.json"
        report.save(path)
        assert json.loads(path.read_text(encoding="utf-8")) == json.loads(report.to_json())

    def test_non_finite_metric_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            QualityReport(metrics={"mean_cer": float("nan")})
