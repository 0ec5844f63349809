from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from voiceforge import synthesis
from voiceforge.adapters.mocks import MockTtsAdapter
from voiceforge.audio import load_wav
from voiceforge.errors import (
    BatchError,
    GenerationError,
    ValidationError,
)
from voiceforge.synthesis import (
    CLIP_DIR_NAME,
    BatchResult,
    GenerationParams,
    batch_synthesize,
    default_generation_params,
    prompt_digest,
    sentence_digest,
    synthesize,
)
from voiceforge.voiceprompt import CodebookMatrix, SpeakerPrompt


def _prompt(source_id: str = "talk"):
    rng = np.random.default_rng(21)
    fine = CodebookMatrix(
        codes=rng.integers(0, 64, size=(4, 10), dtype=np.int64),
        frame_rate_hz=75.0,
        codebook_size=64,
    )
    semantic = rng.integers(0, 500, size=20, dtype=np.int64)
    return SpeakerPrompt(semantic, fine, n_coarse=2, source_id=source_id)


def _clip_paths(work_dir) -> dict[str, Path]:
    """sentence sha256 -> clip file, for every entry in the clip directory."""
    return {path.name.split("-")[0]: path for path in (Path(work_dir) / CLIP_DIR_NAME).iterdir()}


def _stats(paths) -> list[tuple[int, int]]:
    return [(os.stat(path).st_ino, os.stat(path).st_mtime_ns) for path in paths]


class CountingBackend(MockTtsAdapter):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def synthesize(self, *args):
        self.calls += 1
        return super().synthesize(*args)


class FlakyBackend(MockTtsAdapter):
    """Fails the first `failures` synthesis calls for one specific sentence."""

    def __init__(self, flaky_text: str, failures: int):
        super().__init__()
        self.flaky_text = flaky_text
        self.failures_left = failures
        self.calls = 0

    def synthesize(self, text, *rest):
        self.calls += 1
        if text == self.flaky_text and self.failures_left > 0:
            self.failures_left -= 1
            raise RuntimeError("transient backend hiccup")
        return super().synthesize(text, *rest)


SENTENCES = ["पहला वाक्य यहाँ है।", "दूसरा वाक्य थोड़ा लंबा है।", "तीसरा।"]


class TestGenerationParams:
    def test_published_defaults(self):
        params = default_generation_params()
        assert params.text_temp == 0.85
        assert params.waveform_temp == 0.7
        assert params.seed is None

    @pytest.mark.parametrize("bad", [0.0, -0.5, 2.0001])
    def test_temperature_range(self, bad):
        with pytest.raises(ValidationError):
            GenerationParams(text_temp=bad, waveform_temp=0.7)
        with pytest.raises(ValidationError):
            GenerationParams(text_temp=0.85, waveform_temp=bad)

    def test_upper_bound_is_inclusive(self):
        params = GenerationParams(text_temp=2.0, waveform_temp=2.0)
        assert params.text_temp == 2.0

    def test_seed_must_fit_in_64_bits(self):
        with pytest.raises(ValidationError):
            GenerationParams(text_temp=0.85, waveform_temp=0.7, seed=2**63)


class TestDigests:
    def test_prompt_digest_is_short_hex(self):
        digest = prompt_digest(_prompt())
        assert len(digest) == 16
        int(digest, 16)

    def test_prompt_digest_covers_source_id(self):
        assert prompt_digest(_prompt("a")) != prompt_digest(_prompt("b"))

    def test_sentence_digest_is_sha256(self):
        text = "नमस्ते दुनिया"
        assert sentence_digest(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestSynthesize:
    def test_clip_comes_back_at_native_rate(self):
        backend = MockTtsAdapter()
        text = "बीस अक्षर का वाक्य।"
        clip = synthesize(text, _prompt(), default_generation_params(), backend)
        assert clip.sample_rate_hz == backend.native_rate_hz
        expected = round((1.0 + 0.055 * len(text)) * backend.native_rate_hz)
        assert clip.n_samples == expected

    def test_deterministic_for_fixed_inputs(self):
        backend = MockTtsAdapter()
        params = GenerationParams(text_temp=0.85, waveform_temp=0.7, seed=3)
        a = synthesize("same text", _prompt(), params, backend)
        b = synthesize("same text", _prompt(), params, backend)
        assert np.array_equal(a.samples, b.samples)

    def test_source_id_names_prompt_and_sentence(self):
        prompt = _prompt()
        text = "कुछ पाठ"
        clip = synthesize(text, prompt, default_generation_params(), MockTtsAdapter())
        assert clip.source_id == f"{prompt_digest(prompt)}:{sentence_digest(text)[:8]}"

    def test_blank_text_rejected(self):
        with pytest.raises(ValidationError):
            synthesize("   ", _prompt(), default_generation_params(), MockTtsAdapter())

    def test_backend_crash_becomes_generation_error(self):
        class Crashing(MockTtsAdapter):
            def synthesize(self, *args):
                raise RuntimeError("oom")

        with pytest.raises(GenerationError, match="oom"):
            synthesize("text", _prompt(), default_generation_params(), Crashing())

    def test_out_of_range_audio_is_a_generation_error(self):
        class Loud(MockTtsAdapter):
            def synthesize(self, *args):
                return np.array([0.0, 1.5, 0.0], dtype=np.float32)

        with pytest.raises(GenerationError, match="invalid audio"):
            synthesize("text", _prompt(), default_generation_params(), Loud())

    def test_empty_audio_is_a_generation_error(self):
        class Mute(MockTtsAdapter):
            def synthesize(self, *args):
                return np.zeros(0, dtype=np.float32)

        with pytest.raises(GenerationError, match="empty"):
            synthesize("text", _prompt(), default_generation_params(), Mute())


class TestBatchSynthesize:
    def test_fresh_batch_writes_one_context_named_clip_per_sentence(self, tmp_path):
        prompt = _prompt()
        params = default_generation_params()
        result = batch_synthesize(SENTENCES, prompt, params, MockTtsAdapter(), "mock", tmp_path)
        assert result.complete
        assert [sentence for sentence, _ in result.clips] == SENTENCES
        clip_dir = tmp_path / CLIP_DIR_NAME
        paths = _clip_paths(tmp_path)
        assert {sentence_digest(s): path for s, path in result.clips} == paths
        context_doc = {"prompt": prompt_digest(prompt), "params": asdict(params), "tts": "mock"}
        context = hashlib.sha256(json.dumps(context_doc, sort_keys=True).encode("utf-8")).hexdigest()
        for sentence in SENTENCES:
            path = paths[sentence_digest(sentence)]
            assert path == clip_dir / f"{sentence_digest(sentence)}-{context}.wav"
            assert path.is_file()

    def test_records_hold_requantized_samples(self, tmp_path):
        result = batch_synthesize(
            SENTENCES[:1],
            _prompt(),
            default_generation_params(),
            MockTtsAdapter(),
            "mock",
            tmp_path,
        )
        [(sentence, clip)] = result.load()
        on_disk = load_wav(_clip_paths(tmp_path)[sentence_digest(sentence)])
        assert np.array_equal(clip.samples, on_disk.samples)

    def test_transient_failure_is_retried(self, tmp_path):
        backend = FlakyBackend(SENTENCES[1], failures=1)
        result = batch_synthesize(
            SENTENCES, _prompt(), default_generation_params(), backend, "mock", tmp_path
        )
        assert result.complete
        assert backend.calls == len(SENTENCES) + 1

    def test_persistent_failure_is_isolated(self, tmp_path):
        backend = FlakyBackend(SENTENCES[1], failures=10)
        result = batch_synthesize(
            SENTENCES, _prompt(), default_generation_params(), backend, "mock", tmp_path, retries=2
        )
        assert not result.complete
        assert list(result.failures) == [SENTENCES[1]]
        assert [sentence for sentence, _ in result.clips] == [SENTENCES[0], SENTENCES[2]]
        assert backend.calls == 2 + 3

    @pytest.mark.parametrize("bad_value", [1.5, np.nan])
    def test_out_of_range_clip_is_isolated(self, tmp_path, bad_value):
        class OneBadClip(CountingBackend):
            def synthesize(self, text, *rest):
                samples = super().synthesize(text, *rest)
                if text == SENTENCES[1]:
                    samples = np.array(samples, dtype=np.float32)
                    samples[len(samples) // 2] = bad_value
                return samples

        backend = OneBadClip()
        result = batch_synthesize(
            SENTENCES, _prompt(), default_generation_params(), backend, "mock", tmp_path, retries=1
        )
        assert not result.complete
        assert list(result.failures) == [SENTENCES[1]]
        assert "amplitude" in result.failures[SENTENCES[1]]
        assert [sentence for sentence, _ in result.clips] == [SENTENCES[0], SENTENCES[2]]
        assert backend.calls == 2 + 2

    def test_all_failed_raises_batch_error(self, tmp_path):
        class Dead(MockTtsAdapter):
            def synthesize(self, *args):
                raise RuntimeError("no gpu")

        with pytest.raises(BatchError, match="every sentence"):
            batch_synthesize(
                SENTENCES, _prompt(), default_generation_params(), Dead(), "mock", tmp_path
            )

    def test_rerun_restores_from_clip_files(self, tmp_path):
        prompt = _prompt()
        params = default_generation_params()
        first = batch_synthesize(SENTENCES, prompt, params, MockTtsAdapter(), "mock", tmp_path)
        before = _stats(path for _, path in first.clips)
        backend = CountingBackend()
        second = batch_synthesize(SENTENCES, prompt, params, backend, "mock", tmp_path)
        assert backend.calls == 0
        for (sentence_a, clip_a), (sentence_b, clip_b) in zip(first.load(), second.load()):
            assert sentence_a == sentence_b
            assert np.array_equal(clip_a.samples, clip_b.samples)
        assert second.clips == first.clips
        assert _stats(path for _, path in second.clips) == before
        assert len(_clip_paths(tmp_path)) == 3

    @pytest.mark.parametrize(
        "change",
        [
            {"prompt": _prompt(source_id="other")},
            {"params": GenerationParams(text_temp=0.85, waveform_temp=0.7, seed=999)},
            {"backend_id": "other-tts"},
        ],
        ids=["prompt", "params", "backend_id"],
    )
    def test_rerun_under_another_context_regenerates(self, tmp_path, change):
        context = {"prompt": _prompt(), "params": default_generation_params(), "backend_id": "mock"}
        batch_synthesize(
            SENTENCES,
            context["prompt"],
            context["params"],
            MockTtsAdapter(),
            context["backend_id"],
            tmp_path,
        )
        context.update(change)
        backend = CountingBackend()
        result = batch_synthesize(
            SENTENCES,
            context["prompt"],
            context["params"],
            backend,
            context["backend_id"],
            tmp_path,
        )
        assert backend.calls == len(SENTENCES)
        assert result.complete

    def test_run_killed_under_another_context_leaves_the_finished_clip(
        self, tmp_path, monkeypatch
    ):
        prompt = _prompt()
        params_a = GenerationParams(text_temp=0.85, waveform_temp=0.7, seed=1)
        params_b = GenerationParams(text_temp=0.85, waveform_temp=0.7, seed=2)
        first = batch_synthesize(
            SENTENCES[:1], prompt, params_a, MockTtsAdapter(), "mock", tmp_path
        )
        [(_, first_clip)] = first.load()

        save = synthesis.save_wav

        def killed_after_save(clip, path):
            save(clip, path)
            raise KeyboardInterrupt("killed after save_wav, before the batch returned")

        monkeypatch.setattr(synthesis, "save_wav", killed_after_save)
        with pytest.raises(KeyboardInterrupt):
            batch_synthesize(SENTENCES[:1], prompt, params_b, MockTtsAdapter(), "mock", tmp_path)
        monkeypatch.setattr(synthesis, "save_wav", save)
        assert len(list((tmp_path / CLIP_DIR_NAME).iterdir())) == 2  # one clip per context

        backend = CountingBackend()
        resumed = batch_synthesize(SENTENCES[:1], prompt, params_a, backend, "mock", tmp_path)
        assert backend.calls == 0
        [(_, resumed_clip)] = resumed.load()
        assert np.array_equal(resumed_clip.samples, first_clip.samples)

    def test_clip_files_of_other_contexts_are_swept(self, tmp_path):
        prompt = _prompt()
        for seed in (1, 2, 1):
            params = GenerationParams(text_temp=0.85, waveform_temp=0.7, seed=seed)
            result = batch_synthesize(
                SENTENCES[:1], prompt, params, MockTtsAdapter(), "mock", tmp_path
            )
        assert sorted((tmp_path / CLIP_DIR_NAME).glob("*.wav")) == [result.clips[0][1]]

    def test_torn_clip_write_is_redone(self, tmp_path):
        prompt = _prompt()
        params = default_generation_params()
        first = batch_synthesize(SENTENCES, prompt, params, MockTtsAdapter(), "mock", tmp_path)
        # a process killed mid-write leaves part of the clip under its temp name only
        victim = first.clips[-1][1]
        torn = victim.with_name(f".{victim.name}.12345.tmp")
        payload = victim.read_bytes()
        torn.write_bytes(payload[: len(payload) // 2])
        victim.unlink()
        backend = CountingBackend()
        result = batch_synthesize(SENTENCES, prompt, params, backend, "mock", tmp_path)
        assert backend.calls == 1
        assert result.complete
        assert victim.read_bytes() == payload
        assert sorted(_clip_paths(tmp_path).values()) == sorted(path for _, path in result.clips)

    def test_failed_rename_leaves_no_clip_under_its_final_name(self, tmp_path, monkeypatch):
        prompt = _prompt()
        params = default_generation_params()
        clip_dir = tmp_path / CLIP_DIR_NAME
        renames = []
        real_replace = os.replace

        def killed_on_second_rename(src, dst):
            renames.append(dst)
            if len(renames) == 2:
                raise KeyboardInterrupt("killed while the second clip was written")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", killed_on_second_rename)
        with pytest.raises(KeyboardInterrupt):
            batch_synthesize(SENTENCES[:2], prompt, params, MockTtsAdapter(), "mock", tmp_path)
        monkeypatch.setattr(os, "replace", real_replace)
        assert len(renames) == 2
        assert not Path(renames[1]).exists()
        assert list(clip_dir.iterdir()) == [Path(renames[0])]

        backend = CountingBackend()
        result = batch_synthesize(SENTENCES[:2], prompt, params, backend, "mock", tmp_path)
        assert backend.calls == 1
        assert result.complete
        assert sorted(clip_dir.iterdir()) == sorted(path for _, path in result.clips)

    def test_missing_clip_file_is_regenerated(self, tmp_path):
        prompt = _prompt()
        params = default_generation_params()
        batch_synthesize(SENTENCES, prompt, params, MockTtsAdapter(), "mock", tmp_path)
        victim = _clip_paths(tmp_path)[sentence_digest(SENTENCES[0])]
        victim.unlink()
        backend = CountingBackend()
        result = batch_synthesize(SENTENCES, prompt, params, backend, "mock", tmp_path)
        assert backend.calls == 1
        assert result.complete
        assert victim.is_file()

    def test_empty_batch_is_trivially_complete(self, tmp_path):
        result = batch_synthesize(
            [], _prompt(), default_generation_params(), MockTtsAdapter(), "mock", tmp_path
        )
        assert result == BatchResult(clips=[])
        assert result.complete

    def test_blank_sentence_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            batch_synthesize(
                ["ok", " "],
                _prompt(),
                default_generation_params(),
                MockTtsAdapter(),
                "mock",
                tmp_path,
            )
