from __future__ import annotations

import numpy as np
import pytest

from voiceforge.adapters.mocks import (
    MockCodecAdapter,
    MockSemanticEncoderAdapter,
    MockTokenQuantizerAdapter,
)
from voiceforge.audio import AudioClip
from voiceforge.errors import ConfigurationError, FormatError, StageError, ValidationError
from voiceforge.voiceprompt import (
    PROMPT_KEYS,
    CodebookMatrix,
    SpeakerPrompt,
    extract_codebooks,
    extract_semantic_tokens,
    load_prompt,
    save_prompt,
)


def _matrix(rows: int = 4, frames: int = 20, size: int = 64, seed: int = 0) -> CodebookMatrix:
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, size, size=(rows, frames), dtype=np.int64)
    return CodebookMatrix(codes=codes, frame_rate_hz=75.0, codebook_size=size)


def _prompt(seed: int = 0, source_id: str = "src") -> SpeakerPrompt:
    rng = np.random.default_rng(seed)
    fine = _matrix(seed=seed)
    semantic = rng.integers(0, 1000, size=37, dtype=np.int64)
    return SpeakerPrompt(semantic, fine, n_coarse=2, source_id=source_id)


def _tone(duration_s: float, rate: int) -> AudioClip:
    t = np.arange(round(duration_s * rate), dtype=np.float64) / rate
    samples = (0.4 * np.sin(2 * np.pi * 150.0 * t)).astype(np.float32)
    return AudioClip(samples=samples, sample_rate_hz=rate)


class TestCodebookMatrix:
    def test_shape_properties(self):
        m = _matrix(rows=8, frames=750)
        assert m.n_codebooks == 8
        assert m.n_frames == 750

    def test_codes_are_read_only(self):
        m = _matrix()
        with pytest.raises(ValueError):
            m.codes[0, 0] = 1

    def test_row_slice_takes_prefix_rows(self):
        m = _matrix(rows=6)
        top = m.row_slice(2)
        assert top.n_codebooks == 2
        assert np.array_equal(top.codes, m.codes[:2])
        assert top.codebook_size == m.codebook_size

    def test_equality_is_by_value(self):
        assert _matrix(seed=3) == _matrix(seed=3)
        assert _matrix(seed=3) != _matrix(seed=4)

    def test_rejects_one_dimensional_codes(self):
        with pytest.raises(ValidationError):
            CodebookMatrix(codes=np.zeros(5, np.int64), frame_rate_hz=75.0, codebook_size=8)

    def test_rejects_codes_outside_codebook(self):
        codes = np.array([[0, 7], [1, 8]], dtype=np.int64)
        with pytest.raises(ValidationError):
            CodebookMatrix(codes=codes, frame_rate_hz=75.0, codebook_size=8)

    def test_rejects_negative_codes(self):
        codes = np.array([[0, -1]], dtype=np.int64)
        with pytest.raises(ValidationError):
            CodebookMatrix(codes=codes, frame_rate_hz=75.0, codebook_size=8)

    def test_rejects_nonpositive_frame_rate(self):
        with pytest.raises(ValidationError):
            CodebookMatrix(codes=np.zeros((2, 3), np.int64), frame_rate_hz=0.0, codebook_size=8)


class TestSpeakerPrompt:
    def test_build_prompt_recomputes_coarse(self):
        fine = _matrix(rows=8, frames=750)
        semantic = np.arange(500, dtype=np.int64)
        prompt = SpeakerPrompt(semantic, fine, n_coarse=2, source_id="talk01")
        assert prompt.coarse.codes.shape == (2, 750)
        assert np.array_equal(prompt.coarse.codes, fine.codes[:2])
        assert prompt.coarse.codebook_size == fine.codebook_size
        assert prompt.source_id == "talk01"

    def test_build_prompt_bounds_n_coarse(self):
        fine = _matrix(rows=4)
        semantic = np.arange(10, dtype=np.int64)
        for bad in (0, 4, 5):
            with pytest.raises(ValidationError, match="n_coarse"):
                SpeakerPrompt(semantic, fine, n_coarse=bad, source_id="x")

    def test_semantic_tokens_must_be_non_empty(self):
        with pytest.raises(ValidationError):
            SpeakerPrompt(np.zeros(0, np.int64), _matrix(), n_coarse=2, source_id="x")

    def test_semantic_tokens_must_be_non_negative(self):
        with pytest.raises(ValidationError):
            SpeakerPrompt(np.array([1, -2]), _matrix(), n_coarse=2, source_id="x")

    def test_coarse_must_prefix_fine(self, tmp_path):
        fine = _matrix(rows=4, seed=1)
        semantic = np.arange(5, dtype=np.int64)
        for n_coarse in (1, 2, 3):
            prompt = SpeakerPrompt(semantic, fine, n_coarse=n_coarse)
            assert np.array_equal(prompt.coarse.codes, fine.codes[:n_coarse])
        # a prompt cannot hold another coarse tier; one read from a file is checked
        path = tmp_path / "foreign.npz"
        other = _matrix(rows=2, seed=2)
        np.savez(path, semantic_prompt=semantic, coarse_prompt=other.codes, fine_prompt=fine.codes)
        with pytest.raises(FormatError, match="leading rows"):
            load_prompt(path)

    def test_frame_counts_must_agree(self, tmp_path):
        fine = _matrix(rows=4, frames=20)
        semantic = np.arange(5, dtype=np.int64)
        assert SpeakerPrompt(semantic, fine, n_coarse=2).coarse.n_frames == fine.n_frames
        path = tmp_path / "foreign.npz"
        short = fine.codes[:2, :10]
        np.savez(path, semantic_prompt=semantic, coarse_prompt=short, fine_prompt=fine.codes)
        with pytest.raises(FormatError, match="leading rows"):
            load_prompt(path)

    def test_equality_includes_source_id(self):
        assert _prompt(seed=5, source_id="a") == _prompt(seed=5, source_id="a")
        assert _prompt(seed=5, source_id="a") != _prompt(seed=5, source_id="b")
        assert _prompt(seed=5) != _prompt(seed=6)

    def test_equality_includes_n_coarse(self):
        semantic, fine = np.arange(5, dtype=np.int64), _matrix()
        assert SpeakerPrompt(semantic, fine, n_coarse=1) != SpeakerPrompt(semantic, fine, 2)


class TestExtractCodebooks:
    def test_ten_seconds_gives_expected_shapes(self):
        codec = MockCodecAdapter()
        clip = _tone(10.0, codec.native_rate_hz)
        fine = extract_codebooks(clip, codec)
        assert fine.codes.shape == (8, 750)
        assert fine.frame_rate_hz == codec.frame_rate_hz
        assert fine.codebook_size == codec.codebook_size

    def test_rate_mismatch_rejected(self):
        codec = MockCodecAdapter()
        with pytest.raises(ValidationError, match="native rate"):
            extract_codebooks(_tone(1.0, 16000), codec)

    def test_n_coarse_must_be_interior(self):
        codec = MockCodecAdapter()
        fine = extract_codebooks(_tone(1.0, codec.native_rate_hz), codec)
        semantic = np.arange(5, dtype=np.int64)
        for bad in (0, codec.codebook_count):
            with pytest.raises(ValidationError, match="n_coarse"):
                SpeakerPrompt(semantic, fine, n_coarse=bad)
        top = codec.codebook_count - 1
        assert SpeakerPrompt(semantic, fine, n_coarse=top).coarse.n_codebooks == top

    def test_adapter_crash_becomes_stage_error(self):
        class Crashing(MockCodecAdapter):
            def encode(self, samples, rate):
                raise RuntimeError("backend down")

        clip = _tone(1.0, 24000)
        with pytest.raises(StageError, match="backend down"):
            extract_codebooks(clip, Crashing())

    def test_wrong_row_count_is_a_stage_error(self):
        class WrongShape(MockCodecAdapter):
            def encode(self, samples, rate):
                return np.zeros((3, 75), dtype=np.int64)

        clip = _tone(1.0, 24000)
        with pytest.raises(StageError, match="expected"):
            extract_codebooks(clip, WrongShape())

    def test_frame_drift_beyond_one_is_a_stage_error(self):
        class Drifting(MockCodecAdapter):
            def encode(self, samples, rate):
                return np.zeros((8, 80), dtype=np.int64)

        clip = _tone(1.0, 24000)
        with pytest.raises(StageError, match="frames"):
            extract_codebooks(clip, Drifting())


class TestExtractSemanticTokens:
    def test_ten_seconds_gives_five_hundred_tokens(self):
        encoder = MockSemanticEncoderAdapter()
        quantizer = MockTokenQuantizerAdapter()
        clip = _tone(10.0, 24000)
        tokens = extract_semantic_tokens(clip, encoder, quantizer)
        assert tokens.shape == (500,)
        assert tokens.dtype == np.int64
        assert tokens.min() >= 0
        assert tokens.max() < quantizer.vocab_size

    def test_silence_maps_to_token_zero(self):
        clip = AudioClip(samples=np.zeros(24000, np.float32), sample_rate_hz=24000)
        tokens = extract_semantic_tokens(
            clip, MockSemanticEncoderAdapter(), MockTokenQuantizerAdapter()
        )
        assert np.all(tokens == 0)

    def test_embedding_dim_mismatch(self):
        encoder = MockSemanticEncoderAdapter()
        quantizer = MockTokenQuantizerAdapter()
        quantizer.embedding_dim = 24  # the encoder's is 16
        with pytest.raises(ConfigurationError, match="dim"):
            extract_semantic_tokens(_tone(1.0, 24000), encoder, quantizer)

    def test_out_of_vocab_tokens_are_a_stage_error(self):
        class Loud(MockTokenQuantizerAdapter):
            def quantize(self, features):
                out = super().quantize(features)
                return out + self.vocab_size

        with pytest.raises(StageError, match="vocabulary"):
            extract_semantic_tokens(
                _tone(1.0, 24000), MockSemanticEncoderAdapter(), Loud()
            )


class TestPromptArchive:
    def test_save_load_round_trip(self, tmp_path):
        prompt = _prompt(seed=9, source_id="lecture42")
        path = tmp_path / "voice.npz"
        save_prompt(prompt, path)
        assert load_prompt(path) == prompt

    def test_archive_keys_match_backend_contract(self, tmp_path):
        path = tmp_path / "voice.npz"
        save_prompt(_prompt(), path)
        with np.load(path) as archive:
            for key in PROMPT_KEYS:
                assert key in archive

    def test_missing_key_is_named(self, tmp_path):
        path = tmp_path / "broken.npz"
        np.savez(
            path,
            semantic_prompt=np.arange(4, dtype=np.int64),
            coarse_prompt=np.zeros((2, 4), np.int64),
        )
        with pytest.raises(FormatError, match="fine_prompt"):
            load_prompt(path)

    def test_float_codes_are_rejected(self, tmp_path):
        path = tmp_path / "floaty.npz"
        np.savez(
            path,
            semantic_prompt=np.arange(4, dtype=np.int64),
            coarse_prompt=np.zeros((2, 4), np.int64),
            fine_prompt=np.zeros((4, 4), np.float32),
        )
        with pytest.raises(FormatError, match="integer"):
            load_prompt(path)

    def test_foreign_three_key_archive_loads(self, tmp_path):
        path = tmp_path / "imported_voice.npz"
        fine = np.array([[3, 5, 7], [2, 4, 6], [1, 0, 1]], dtype=np.int64)
        np.savez(
            path,
            semantic_prompt=np.array([9, 11], dtype=np.int64),
            coarse_prompt=fine[:1],
            fine_prompt=fine,
        )
        prompt = load_prompt(path)
        assert prompt.source_id == "imported_voice"
        assert prompt.fine.frame_rate_hz == 75.0
        assert prompt.fine.codebook_size == 8
        assert np.array_equal(prompt.fine.codes, fine)

    def test_inconsistent_archive_is_a_format_error(self, tmp_path):
        fine = np.zeros((3, 3), np.int64)
        for coarse in (
            np.ones((1, 3), np.int64),  # not the leading rows
            np.zeros((1, 2), np.int64),  # another frame count
            np.zeros((3, 3), np.int64),  # all of fine's rows
            np.zeros((4, 3), np.int64),  # more rows than fine has
            np.zeros((0, 3), np.int64),  # no rows
            np.zeros(3, np.int64),  # not a matrix
        ):
            path = tmp_path / "mismatch.npz"
            np.savez(
                path,
                semantic_prompt=np.arange(4, dtype=np.int64),
                coarse_prompt=coarse,
                fine_prompt=fine,
            )
            with pytest.raises(FormatError, match="invalid"):
                load_prompt(path)

    def test_garbage_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "noise.npz"
        path.write_bytes(b"not an archive at all")
        with pytest.raises(FormatError, match="cannot read"):
            load_prompt(path)
