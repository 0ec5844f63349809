from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from voiceforge import corpus, ingest, pipeline, synthesis
from voiceforge.adapters import default_registry
from voiceforge.adapters.base import AdapterDescriptor, AdapterRole
from voiceforge.adapters.mocks import (
    MockAsrAdapter,
    MockCodecAdapter,
    MockDecoder,
    MockDenoiseAdapter,
    MockStemAdapter,
    MockTranscodeAdapter,
    MockTtsAdapter,
    MockVcAdapter,
)
from voiceforge.audio import AudioClip, load_wav
from voiceforge.cli import EXIT_OK, EXIT_PARTIAL, EXIT_STAGE, main
from voiceforge.config import parse_config
from voiceforge.corpus import (
    CorpusEntry,
    SplitSpec,
    client_id_for,
    read_common_voice,
    read_lj,
    write_common_voice,
)
from voiceforge.errors import (
    AdapterLookupError,
    BatchError,
    ConfigurationError,
    DecodeError,
    StageError,
    ValidationError,
)
from voiceforge.preprocess import AudioFormat, segment, transcode
from voiceforge.quality import Severity
from voiceforge.voiceprompt import SpeakerPrompt, extract_codebooks, extract_semantic_tokens, load_prompt

SENTENCES = [
    "नमस्ते, यह पहला परीक्षण वाक्य है।",
    "दूसरा वाक्य थोड़ा अलग है।",
    "तीसरा वाक्य भी यहाँ है।",
]


@pytest.fixture(autouse=True)
def _isolated_env(monkeypatch):
    monkeypatch.delenv("VOICEFORGE_CACHE_DIR", raising=False)
    monkeypatch.delenv("VOICEFORGE_MOCK_TTS_ABORT_AFTER", raising=False)


def _m1_data(root, sentences=SENTENCES, adapters=None, seed=11):
    merged = {"downloader": "mock", "decoder": "mock"}
    merged.update(adapters or {})
    return {
        "methodology": "bark_prompt",
        "source": {"uri": "mock://talk?duration=45&rate=24000&seed=7"},
        "generation": {"seed": seed, "sentences": list(sentences)},
        "output": {"root": str(root), "split": {"valid_fraction": 0.34, "seed": 5}},
        "adapters": merged,
    }


def _m1_config(root, sentences=SENTENCES, adapters=None, seed=11):
    return parse_config(_m1_data(root, sentences, adapters, seed))


def _m2_prep_data(root):
    return {
        "methodology": "rvc_convert",
        "source": {"uri": "mock://lecture?duration=600&rate=32000&seed=3"},
        "output": {"root": str(root), "split": {"valid_fraction": 0.1, "seed": 9}},
        "adapters": {"downloader": "mock", "decoder": "mock"},
    }


def _m2_prep_config(root):
    return parse_config(_m2_prep_data(root))


def _with_passes(data):
    """`data` with the optional denoise and stem-separation passes switched on."""
    return {**data, "preprocessing": {"denoise": 0.5, "stems": "two_stems"}}


def _make_cv_corpus(root, n: int = 3, rate: int = 32000):
    """Handwritten Common Voice input corpus for the conversion phase."""
    transcoder = MockTranscodeAdapter()
    entries, audio = [], {}
    rng = np.random.default_rng(3)
    for i in range(n):
        clip_id = f"orig_{i:06d}"
        clip = AudioClip(
            samples=rng.uniform(-0.4, 0.4, 2 * rate).astype(np.float32),
            sample_rate_hz=rate,
        )
        entries.append(
            CorpusEntry(
                clip_id=clip_id,
                relative_audio_path=f"clips/{clip_id}.mp3",
                sentence=f"मूल वाक्य {i}",
                client_id="original-speaker",
                age="twenties" if i == 0 else None,
                locale="hi",
            )
        )
        audio[clip_id] = transcode(clip, AudioFormat.MP3, transcoder)
    write_common_voice(entries, audio, root, SplitSpec(valid_fraction=0.34, seed=5))
    return entries


def _m2_convert_data(root, input_corpus, model, index, vc="mock"):
    return {
        "methodology": "rvc_convert",
        "source": {"uri": "mock://unused?duration=1"},
        "conversion": {
            "model_ref": str(model),
            "index_ref": str(index),
            "input_corpus": str(input_corpus),
        },
        "output": {"root": str(root), "split": {"valid_fraction": 0.34, "seed": 5}},
        "adapters": {"downloader": "mock", "decoder": "mock", "vc": vc},
    }


def _m2_convert_config(root, input_corpus, model, index):
    return parse_config(_m2_convert_data(root, input_corpus, model, index))


class FailingVc(MockVcAdapter):
    """Mock VC that fails on the listed calls: it raises, or returns one bad sample."""

    def __init__(self, bad, failing_calls):
        super().__init__()
        self.bad = bad
        self.failing_calls = failing_calls
        self.calls = 0

    def convert(self, samples, *rest):
        call, self.calls = self.calls, self.calls + 1
        out, rate = super().convert(samples, *rest)
        if call in self.failing_calls:
            if self.bad == "raise":
                raise RuntimeError("vc fell over")
            out = np.array(out, dtype=np.float32)
            out[out.size // 2] = self.bad
        return out, rate


def _registry_with_vc(vc):
    registry = default_registry()
    registry.register(AdapterDescriptor(role=AdapterRole.VC, id="failing"), vc)
    return registry


def _conversion_inputs(tmp_path):
    """A 3-clip input corpus plus model and index files; returns their paths."""
    corpus = tmp_path / "corpus"
    _make_cv_corpus(corpus)
    model = tmp_path / "voice.pth"
    index = tmp_path / "voice.index"
    model.touch()
    index.touch()
    return corpus, model, index


def _run_cli_with_vc(tmp_path, monkeypatch, vc) -> int:
    """`voiceforge run` of a conversion config whose VC adapter is `vc`; returns the exit code."""
    data = _m2_convert_data(tmp_path / "out", *_conversion_inputs(tmp_path), vc="failing")
    cfg = tmp_path / "convert.yaml"
    cfg.write_text(yaml.safe_dump(data, allow_unicode=True), encoding="utf-8")
    registry = _registry_with_vc(vc)
    monkeypatch.setattr(pipeline, "default_registry", lambda: registry)
    return main(["run", "--config", str(cfg)])


UNREADABLE_CLIPS = pytest.mark.parametrize(
    "damage",
    [
        # the reader already warns of a manifest entry without its file
        pytest.param(
            Path.unlink,
            marks=pytest.mark.filterwarnings("ignore:clips/orig_000001.mp3 is referenced but missing"),
            id="missing",
        ),
        pytest.param(lambda path: path.write_bytes(b"garbage, not a clip"), id="garbage"),
    ],
)
BAD_VC_OUTPUTS = pytest.mark.parametrize(
    "bad", ["raise", 1.5, np.nan], ids=["raise", "out_of_range", "nan"]
)


class TestPlanAndWiring:
    def test_work_dir_is_a_sibling(self, tmp_path):
        assert pipeline.work_dir_for(tmp_path / "out") == tmp_path / "out.work"

    def test_plan_for_generation(self, tmp_path):
        assert pipeline.plan(_m1_config(tmp_path / "out")) == [
            "source: mock://talk?duration=45&rate=24000&seed=7 (remote)",
            "decode to codec native rate",
            "segment into 10.0 s clips (drop_last)",
            "build speaker prompt (2 coarse codebooks)",
            "synthesize 3 sentences",
            "quality-gate clips and write the quality report",
            f"package as common_voice at {tmp_path / 'out'} (valid fraction 0.34)",
        ]

    def test_plan_for_generation_with_denoise_and_stems(self, tmp_path):
        config = parse_config(_with_passes(_m1_data(tmp_path / "out")))
        assert pipeline.plan(config) == [
            "source: mock://talk?duration=45&rate=24000&seed=7 (remote)",
            "decode to codec native rate",
            "segment into 10.0 s clips (drop_last)",
            "denoise at strength 0.5 on segment 0",
            "isolate vocals (two_stems) on segment 0",
            "build speaker prompt (2 coarse codebooks)",
            "synthesize 3 sentences",
            "quality-gate clips and write the quality report",
            f"package as common_voice at {tmp_path / 'out'} (valid fraction 0.34)",
        ]

    def test_plan_for_training_prep(self, tmp_path):
        assert pipeline.plan(_m2_prep_config(tmp_path / "out")) == [
            "source: mock://lecture?duration=600&rate=32000&seed=3 (remote)",
            "decode to 32000 Hz",
            "cut into windows of at least 30 s at digital silences",
            "diarize and transcribe (hi, transcribe)",
            "slice into per-sentence clips",
            "emit trainer config (training_config.txt)",
            "quality-gate clips and write the quality report",
            f"package as lj at {tmp_path / 'out'} (valid fraction 0.1)",
        ]

    def test_plan_for_training_prep_with_denoise_and_stems(self, tmp_path):
        config = parse_config(_with_passes(_m2_prep_data(tmp_path / "out")))
        assert pipeline.plan(config) == [
            "source: mock://lecture?duration=600&rate=32000&seed=3 (remote)",
            "decode to 32000 Hz",
            "cut into windows of at least 30 s at digital silences",
            "denoise at strength 0.5 on each window",
            "isolate vocals (two_stems) on each window",
            "diarize and transcribe (hi, transcribe)",
            "slice into per-sentence clips",
            "emit trainer config (training_config.txt)",
            "quality-gate clips and write the quality report",
            f"package as lj at {tmp_path / 'out'} (valid fraction 0.1)",
        ]

    def test_plan_for_conversion(self, tmp_path):
        corpus = tmp_path / "corpus"
        _make_cv_corpus(corpus)
        model = tmp_path / "m.pth"
        index = tmp_path / "m.index"
        model.touch()
        index.touch()
        config = _m2_convert_config(tmp_path / "out", corpus, model, index)
        assert config.output.format.value == "lj"  # the rvc default
        # conversion never reads the source, so its plan names none
        assert pipeline.plan(config) == [
            f"read input corpus {corpus}",
            f"convert every clip with model {model}",
            "quality-gate clips and write the quality report",
            f"package as common_voice at {tmp_path / 'out'} (valid fraction 0.34)",
        ]

    def test_unknown_adapter_fails_before_any_work(self, tmp_path):
        root = tmp_path / "out"
        config = _m1_config(root, adapters={"tts": "nonexistent"})
        with pytest.raises(AdapterLookupError, match="nonexistent"):
            pipeline.run(config)
        assert not root.exists()
        assert not pipeline.work_dir_for(root).exists()


class RecordingDenoise(MockDenoiseAdapter):
    def __init__(self, calls: list):
        self.calls = calls

    def denoise(self, samples, rate, strength):
        self.calls.append(("denoise", samples.size))
        return super().denoise(samples, rate, strength)


class RecordingStems(MockStemAdapter):
    def __init__(self, calls: list):
        super().__init__()
        self.calls = calls

    def separate_vocals(self, samples, rate, stem_model):
        self.calls.append(("stems", samples.size))
        return super().separate_vocals(samples, rate, stem_model)


def _recording_passes(data):
    """`data` with both passes on, through adapters that record the size of each piece they see."""
    calls: list = []
    registry = default_registry()
    registry.register(AdapterDescriptor(role=AdapterRole.DENOISE, id="rec"), RecordingDenoise(calls))
    registry.register(AdapterDescriptor(role=AdapterRole.STEMS, id="rec"), RecordingStems(calls))
    data = _with_passes(data)
    data["adapters"] = {**data["adapters"], "denoise": "rec", "stems": "rec"}
    return parse_config(data), registry, calls


class TestPasses:
    """The optional passes run once on each piece a job keeps, never on the whole source."""

    def test_the_prompt_passes_segment_0_alone(self, tmp_path):
        config, registry, calls = _recording_passes(_m1_data(tmp_path / "out"))
        pipeline.prompt_stage(config, registry)
        segment_0 = 10 * MockCodecAdapter.native_rate_hz
        assert calls == [("denoise", segment_0), ("stems", segment_0)]

    def test_lj_prep_passes_each_window(self, tmp_path, monkeypatch):
        windows = []
        real = pipeline._windows
        monkeypatch.setattr(
            pipeline, "_windows", lambda *args: (windows.append(w.n_samples) or w for w in real(*args))
        )
        config, registry, calls = _recording_passes(_m2_prep_data(tmp_path / "out"))
        pipeline.run(config, registry)
        assert len(windows) > 1
        assert calls == [(name, n) for n in windows for name in ("denoise", "stems")]

    @pytest.mark.parametrize("data", [_m1_data, _m2_prep_data], ids=["clone", "lj-prep"])
    def test_a_zero_strength_denoise_writes_the_tree_of_no_pass(self, tmp_path, data):
        pipeline.run(parse_config(data(tmp_path / "plain")))
        denoised = data(tmp_path / "denoised")
        denoised["preprocessing"] = {"denoise": 0.0}
        pipeline.run(parse_config(denoised))
        assert _tree_bytes(tmp_path / "denoised") == _tree_bytes(tmp_path / "plain")


class TestGenerationRun:
    def test_full_run_writes_dataset_and_report(self, tmp_path):
        root = tmp_path / "out"
        config = _m1_config(root)
        summary = pipeline.run(config)

        assert summary.clips_in == 4  # 45 s source, 10 s segments, tail dropped
        assert summary.sentences_generated == 3
        assert summary.entries_written == 3
        assert not summary.partial

        entries = read_common_voice(root)
        assert sorted(e.sentence for e in entries) == sorted(SENTENCES)
        assert len(set(e.client_id for e in entries)) == 1
        assert all(e.locale == "hi" for e in entries)
        assert len(list((root / "clips").glob("*.mp3"))) == 3
        assert (root / "README.md").is_file()

        report = json.loads((root / "quality_report.json").read_text(encoding="utf-8"))
        assert report["metrics"]["entries_written"] == 3.0
        assert report["metrics"]["mean_clip_duration_s"] > 1.0

        work = pipeline.work_dir_for(root)
        assert list((work / "assets").glob("prompt_*.npz"))
        assert len(list((work / "synth" / "clips").glob("*.wav"))) == 3

    def test_client_id_derives_from_prompt(self, tmp_path):
        root = tmp_path / "out"
        pipeline.run(_m1_config(root))
        [prompt_path] = pipeline.work_dir_for(root).glob("assets/prompt_*.npz")
        pid = prompt_path.stem.removeprefix("prompt_")
        entries = read_common_voice(root)
        assert all(e.client_id == client_id_for(pid) for e in entries)

    def test_quality_gate_drops_bad_clips(self, tmp_path):
        class TinyTts(MockTtsAdapter):
            def synthesize(self, text, *rest):
                wave = super().synthesize(text, *rest)
                if text.startswith("SHORT"):
                    return wave[: self.native_rate_hz // 2]  # 0.5 s, under the 1 s floor
                return wave

        registry = default_registry()
        registry.register(AdapterDescriptor(role=AdapterRole.TTS, id="tiny"), TinyTts())
        root = tmp_path / "out"
        sentences = [SENTENCES[0], "SHORT कट", SENTENCES[2]]
        config = _m1_config(root, sentences=sentences, adapters={"tts": "tiny"})
        summary = pipeline.run(config, registry=registry)

        assert summary.sentences_generated == 3
        assert summary.entries_written == 2
        assert summary.quality.failing_clip_ids()
        back = read_common_voice(root)
        assert sorted(e.sentence for e in back) == sorted([SENTENCES[0], SENTENCES[2]])
        report = json.loads((root / "quality_report.json").read_text(encoding="utf-8"))
        failing = [
            cid
            for cid, issues in report["per_clip"].items()
            if any(i["code"] == "duration_short" for i in issues)
        ]
        assert len(failing) == 1

    def test_resume_under_a_new_seed_matches_a_fresh_run(self, tmp_path):
        root = tmp_path / "out"

        def tree():
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        pipeline.run(_m1_config(root, seed=42))
        seed_42 = tree()
        pipeline.run(_m1_config(root, seed=999), resume=True)
        resumed = tree()
        pipeline.run(_m1_config(root, seed=999))
        assert resumed != seed_42
        assert resumed == tree()

    def test_too_short_source_is_a_stage_error(self, tmp_path):
        config = parse_config(
            {
                "methodology": "bark_prompt",
                "source": {"uri": "mock://blip?duration=5&rate=24000"},
                "generation": {"sentences": ["क"]},
                "output": {"root": str(tmp_path / "out")},
                "adapters": {"downloader": "mock", "decoder": "mock"},
            }
        )
        with pytest.raises(StageError, match="no full"):
            pipeline.run(config)

    def test_validate_dataset_on_fresh_output(self, tmp_path):
        root = tmp_path / "out"
        config = _m1_config(root)
        pipeline.run(config)
        report = pipeline.validate_dataset(config)
        assert report.failing_clip_ids() == []
        assert report.metrics["entries"] == 3.0
        assert report.metrics["failing_entries"] == 0.0

    def test_validate_dataset_flags_corrupted_clip(self, tmp_path):
        root = tmp_path / "out"
        config = _m1_config(root)
        pipeline.run(config)
        victim = sorted((root / "clips").glob("*.mp3"))[0]
        silent = AudioClip(samples=np.zeros(4800, np.float32), sample_rate_hz=24000)
        victim.write_bytes(
            transcode(silent, AudioFormat.MP3, MockTranscodeAdapter()).payload
        )
        report = pipeline.validate_dataset(config)
        assert report.failing_clip_ids() == [victim.stem]


class TestTrainingPrepRun:
    def test_prep_writes_lj_corpus_and_trainer_config(self, tmp_path):
        root = tmp_path / "out"
        config = _m2_prep_config(root)
        summary = pipeline.run(config)

        assert summary.entries_written > 0
        assert not summary.partial
        entries = read_lj(root)
        assert len(entries) == summary.entries_written
        assert all(e.sentence for e in entries)

        sample = load_wav(root / entries[0].relative_audio_path)
        assert sample.sample_rate_hz == 32000

        trainer = (root / "training_config.txt").read_text(encoding="utf-8")
        assert "sample_rate=32000" in trainer.splitlines()
        assert (root / "quality_report.json").is_file()
        assert any("train a model" in m for m in summary.messages)

    def test_validate_dataset_checks_training_rate(self, tmp_path):
        root = tmp_path / "out"
        config = _m2_prep_config(root)
        pipeline.run(config)
        report = pipeline.validate_dataset(config)
        assert report.failing_clip_ids() == []
        assert report.metrics["entries"] > 0

        # LJ clips are decoded through the configured transcoder, once per entry
        class CountingTranscoder(MockTranscodeAdapter):
            def __init__(self):
                self.calls = []

            def decode(self, payload, format):
                self.calls.append(format)
                return super().decode(payload, format)

        counting = CountingTranscoder()
        registry = default_registry()
        registry.register(AdapterDescriptor(role=AdapterRole.TRANSCODE, id="counting"), counting)
        for transcode_id in ("counting", "wav"):
            data = _m2_prep_data(root)
            data["adapters"]["transcode"] = transcode_id
            again = pipeline.validate_dataset(parse_config(data), registry)
            assert again.to_json() == report.to_json(), transcode_id
        assert counting.calls == ["wav_pcm16"] * len(read_lj(root))


class TestConversionRun:
    def test_converts_existing_corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        originals = _make_cv_corpus(corpus)
        model = tmp_path / "voice.pth"
        index = tmp_path / "voice.index"
        model.touch()
        index.touch()
        root = tmp_path / "out"
        config = _m2_convert_config(root, corpus, model, index)
        summary = pipeline.run(config)

        assert summary.clips_in == 3
        assert summary.entries_written == 3
        converted = read_common_voice(root)
        assert sorted(e.sentence for e in converted) == sorted(
            e.sentence for e in originals
        )
        assert all(e.client_id == client_id_for(str(model)) for e in converted)
        by_id = {e.clip_id: e for e in converted}
        assert by_id["orig_000000"].age == "twenties"

    def test_conversion_always_packages_common_voice(self, tmp_path):
        corpus = tmp_path / "corpus"
        _make_cv_corpus(corpus)
        model = tmp_path / "voice.pth"
        index = tmp_path / "voice.index"
        model.touch()
        index.touch()
        root = tmp_path / "out"
        config = _m2_convert_config(root, corpus, model, index)
        assert config.output.format.value == "lj"  # the rvc default
        pipeline.run(config)
        assert (root / "train.tsv").is_file()
        assert not (root / "train.txt").exists()
        report = pipeline.validate_dataset(config)
        assert report.metrics["entries"] == 3.0
        assert report.metrics["failing_entries"] == 0.0

    @BAD_VC_OUTPUTS
    def test_one_bad_clip_is_isolated(self, tmp_path, bad):
        root = tmp_path / "out"
        data = _m2_convert_data(root, *_conversion_inputs(tmp_path), vc="failing")
        vc = FailingVc(bad, failing_calls={1})
        summary = pipeline.run(parse_config(data), registry=_registry_with_vc(vc))

        assert vc.calls == 3
        assert summary.partial
        assert summary.entries_written == 2
        assert len(read_common_voice(root)) == 2
        [failure] = [m for m in summary.messages if m.startswith("failed clip ")]
        assert "[convert]" in failure

    @BAD_VC_OUTPUTS
    def test_one_bad_clip_exits_partial(self, tmp_path, monkeypatch, capsys, bad):
        vc = FailingVc(bad, failing_calls={1})
        assert _run_cli_with_vc(tmp_path, monkeypatch, vc) == EXIT_PARTIAL
        assert "note: failed clip " in capsys.readouterr().out

    def test_truncated_input_clip_is_skipped(self, tmp_path, capsys):
        corpus, model, index = _conversion_inputs(tmp_path)
        clip = corpus / "clips" / "orig_000001.mp3"
        clip.write_bytes(clip.read_bytes()[:-500])
        data = _m2_convert_data(tmp_path / "out", corpus, model, index)
        cfg = tmp_path / "convert.yaml"
        cfg.write_text(yaml.safe_dump(data, allow_unicode=True), encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == EXIT_PARTIAL
        assert "note: failed clip orig_000001: " in capsys.readouterr().out
        assert sorted(e.clip_id for e in read_common_voice(tmp_path / "out")) == [
            "orig_000000",
            "orig_000002",
        ]

    @UNREADABLE_CLIPS
    def test_a_missing_or_garbage_input_clip_is_skipped(self, tmp_path, capsys, damage):
        corpus, model, index = _conversion_inputs(tmp_path)
        damage(corpus / "clips" / "orig_000001.mp3")
        data = _m2_convert_data(tmp_path / "out", corpus, model, index)
        cfg = tmp_path / "convert.yaml"
        cfg.write_text(yaml.safe_dump(data, allow_unicode=True), encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == EXIT_PARTIAL
        assert "note: failed clip orig_000001: [decode] cannot decode clips/orig_000001.mp3: " in (
            capsys.readouterr().out
        )
        assert sorted(e.clip_id for e in read_common_voice(tmp_path / "out")) == [
            "orig_000000",
            "orig_000002",
        ]

    @UNREADABLE_CLIPS
    def test_validate_fails_a_missing_or_garbage_clip_and_checks_the_rest(
        self, tmp_path, capsys, damage
    ):
        corpus, model, index = _conversion_inputs(tmp_path)
        data = _m2_convert_data(tmp_path / "out", corpus, model, index)
        cfg = tmp_path / "convert.yaml"
        cfg.write_text(yaml.safe_dump(data, allow_unicode=True), encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        damage(tmp_path / "out" / "clips" / "orig_000001.mp3")
        capsys.readouterr()
        assert main(["validate", "--config", str(cfg)]) == EXIT_STAGE
        assert capsys.readouterr().out == "validated 3 entries, 1 failing\nfail: orig_000001\n"
        report = pipeline.validate_dataset(parse_config(data))
        [issue] = report.per_clip["orig_000001"]
        assert (issue.code, issue.severity) == ("decode", Severity.FAIL)
        assert issue.message.startswith("[decode] cannot decode clips/orig_000001.mp3: ")
        assert report.failing_clip_ids() == ["orig_000001"]
        assert report.metrics == {"entries": 3.0, "failing_entries": 1.0}

    def test_every_clip_failing_is_a_stage_error(self, tmp_path, monkeypatch, capsys):
        vc = FailingVc("raise", failing_calls={0, 1, 2})
        assert _run_cli_with_vc(tmp_path, monkeypatch, vc) == EXIT_STAGE
        assert "every clip" in capsys.readouterr().err

    def test_empty_input_corpus_is_a_stage_error(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "train.tsv").write_text(
            "client_id\tpath\tsentence\tup_votes\tdown_votes\tage\tgender\taccents\tlocale\tsegment\n",
            encoding="utf-8",
        )
        (corpus / "dev.tsv").write_text(
            "client_id\tpath\tsentence\tup_votes\tdown_votes\tage\tgender\taccents\tlocale\tsegment\n",
            encoding="utf-8",
        )
        model = tmp_path / "m.pth"
        index = tmp_path / "m.index"
        model.touch()
        index.touch()
        config = _m2_convert_config(tmp_path / "out", corpus, model, index)
        with pytest.raises(StageError, match="no entries"):
            pipeline.run(config)


class TestStages:
    def test_acquire_stage_caches(self, tmp_path):
        config = _m1_config(tmp_path / "out")
        first = pipeline.acquire_stage(config)
        second = pipeline.acquire_stage(config)
        assert first == second
        assert first.is_file()
        assert first.stat().st_size > 0

    @pytest.mark.parametrize(
        "env, cache, made",
        [("", "out.work/cache", ["out.work"]), ("elsewhere", "elsewhere", ["elsewhere", "out.work"])],
    )
    def test_acquire_stage_caches_under_the_variable_else_the_work_dir(
        self, tmp_path, monkeypatch, env, cache, made
    ):
        monkeypatch.chdir(tmp_path)  # nothing lands in the working directory either
        monkeypatch.setenv("VOICEFORGE_CACHE_DIR", env and str(tmp_path / env))
        path = pipeline.acquire_stage(_m1_config(tmp_path / "out"))
        assert path.parent.parent == tmp_path / cache
        assert sorted(p.name for p in tmp_path.iterdir()) == made

    def test_prompt_stage_saves_a_loadable_prompt(self, tmp_path):
        config = _m1_config(tmp_path / "out")
        path = pipeline.prompt_stage(config)
        assert path.name.startswith("prompt_")
        prompt = load_prompt(path)
        assert prompt.fine.codes.shape == (8, 750)
        assert prompt.coarse.codes.shape == (2, 750)
        assert prompt.semantic_tokens.size == 500

    def test_prompt_stage_rejects_conversion_methodology(self, tmp_path):
        with pytest.raises(ConfigurationError, match="bark_prompt"):
            pipeline.prompt_stage(_m2_prep_config(tmp_path / "out"))

    def test_train_config_stage(self, tmp_path):
        root = tmp_path / "out"
        path = pipeline.train_config_stage(_m2_prep_config(root))
        assert path == root / "training_config.txt"
        assert "pitch_guided=true" in path.read_text(encoding="utf-8")

    def test_synth_stage_generates_without_packaging(self, tmp_path):
        root = tmp_path / "out"
        config = _m1_config(root)
        summary = pipeline.synth_stage(config)
        assert summary.sentences_generated == 3
        work = pipeline.work_dir_for(root)
        assert len(list((work / "synth" / "clips").glob("*.wav"))) == 3
        assert not (root / "train.tsv").exists()

    def test_synth_stage_rejects_conversion_methodology(self, tmp_path):
        with pytest.raises(ConfigurationError, match="bark_prompt"):
            pipeline.synth_stage(_m2_prep_config(tmp_path / "out"))


class FaultyDecoder(MockDecoder):
    """The mock decoder with one fault in the source's last block, long after segment 0."""

    def __init__(self, fault: str | None = None):
        self.fault = fault
        self.exhausted = False  # whether the mock's blocks were all pulled

    def decode_blocks(self, path: str):
        rate, n_samples, blocks = super().decode_blocks(path)
        return rate, n_samples, self._blocks(blocks)

    def _blocks(self, blocks):
        previous = next(blocks)
        for block in blocks:
            yield previous
            previous = block
        self.exhausted = True
        if self.fault == "nan":
            previous = previous.copy()
            previous[-1] = np.nan
        if self.fault != "short":
            yield previous
        if self.fault == "long":
            yield previous


def _prompt_with(tmp_path, decoder):
    registry = default_registry()
    registry.register(AdapterDescriptor(role=AdapterRole.DECODER, id="faulty"), decoder)
    data = _m1_data(tmp_path / "out", adapters={"decoder": "faulty"})
    return pipeline.prompt_stage(parse_config(data), registry)


def _decoded_whole(root, decoder, uri=None):
    """The whole-decode reference: `_m1_data(root)`'s source, or `uri`, and its config.

    The source is decoded whole by `ingest.decode_to_audio` at the codec's rate.
    """
    data = _m1_data(root)
    data["source"]["uri"] = uri or data["source"]["uri"]
    config = parse_config(data)
    handle = ingest.RawMediaHandle(pipeline.acquire_stage(config))
    return ingest.decode_to_audio(handle, MockCodecAdapter.native_rate_hz, decoder), config


class TestPromptKeepsTheFirstSegment:
    """The prompt keeps segment 0 of the source, yet reads and checks every block."""

    def test_same_prompt_as_from_the_whole_source(self, tmp_path):
        decoder = FaultyDecoder()
        kept = _prompt_with(tmp_path / "kept", decoder)
        assert decoder.exhausted
        source, config = _decoded_whole(tmp_path / "whole", FaultyDecoder())
        adapters = pipeline.resolve_adapters(config, default_registry())
        first = segment(source, config.preprocessing.segmentation)[0]
        fine = extract_codebooks(first, adapters[AdapterRole.CODEC])
        semantic = extract_semantic_tokens(
            first, adapters[AdapterRole.SEMANTIC_ENCODER], adapters[AdapterRole.TOKEN_QUANTIZER]
        )
        prompt = SpeakerPrompt(semantic, fine, pipeline.PROMPT_N_COARSE, source.source_id)
        whole = pipeline._save_prompt(prompt, tmp_path / "whole")
        assert kept.name == whole.name
        assert kept.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize(
        "fault,error", [("nan", ValidationError), ("short", DecodeError), ("long", DecodeError)]
    )
    def test_a_fault_after_the_first_segment_fails_as_a_whole_decode(self, tmp_path, fault, error):
        with pytest.raises(error) as kept:
            _prompt_with(tmp_path, FaultyDecoder(fault))
        with pytest.raises(error) as whole:
            _decoded_whole(tmp_path / "out", FaultyDecoder(fault))  # the same cached file
        assert str(kept.value) == str(whole.value)

    @pytest.mark.parametrize("rate", [24000, 44100])
    def test_too_short_a_source_reports_its_whole_duration(self, tmp_path, rate):
        data = _m1_data(tmp_path / "out")
        data["source"]["uri"] = f"mock://talk?duration=45&rate={rate}&seed=7"
        data["preprocessing"] = {"segmentation": {"target_len_s": 60.0}}
        with pytest.raises(StageError, match=r"source \(45\.0 s\) yields no full 60\.0 s segment"):
            pipeline.prompt_stage(parse_config(data))


AHEAD_WORKER = "voiceforge-decode-ahead"
GATE_TIMEOUT_S = 10.0
# long enough that a worker let go at 60 s is still pulling when the run unwinds
SOURCE_600S = "mock://talk?duration=600&rate=24000&seed=7"


def _worker_alive() -> bool:
    return any(t.name == AHEAD_WORKER for t in threading.enumerate())


class GatedDecoder(FaultyDecoder):
    """A FaultyDecoder whose blocks from `open_s` seconds on wait for `gate` before they are pulled.

    A wait that times out raises, so code that pulls the whole source before
    the gate opens fails instead of hanging.
    """

    def __init__(self, fault: str | None = None, open_s: float = 60.0):
        super().__init__(fault)
        self.gate = threading.Event()
        self.open_s = open_s

    def decode_blocks(self, path: str):
        rate, n_samples, blocks = super().decode_blocks(path)
        return rate, n_samples, self._gated(blocks, rate)

    def _gated(self, blocks, rate):
        pulled = 0
        for block in blocks:
            if pulled >= self.open_s * rate and not self.gate.wait(GATE_TIMEOUT_S):
                raise RuntimeError("the source's tail was pulled while its gate stayed shut")
            pulled += block.size
            yield block


class GateTts(MockTtsAdapter):
    """The mock TTS; every call opens `gate` first, and `before_call` runs before each call."""

    def __init__(self, gate: threading.Event, before_call=lambda calls: None):
        super().__init__()
        self.gate, self.before_call, self.calls = gate, before_call, 0

    def synthesize(self, *args):
        self.gate.set()
        self.before_call(self.calls)
        self.calls += 1
        return super().synthesize(*args)


def _gated_run(root, decoder, tts=None, codec=None, sentences=SENTENCES):
    """A clone run on a 600 s source through `decoder` and, when given, `tts` and `codec`."""
    registry = default_registry()
    adapters = {"decoder": "gated"}
    registry.register(AdapterDescriptor(role=AdapterRole.DECODER, id="gated"), decoder)
    for role, adapter in ((AdapterRole.TTS, tts), (AdapterRole.CODEC, codec)):
        if adapter is not None:
            registry.register(AdapterDescriptor(role=role, id="gated"), adapter)
            adapters[role.value] = "gated"
    data = _m1_data(root, sentences=sentences, adapters=adapters)
    data["source"]["uri"] = SOURCE_600S
    return pipeline.run(parse_config(data), registry)


class TestTailBesideSynthesis:
    """The clone checks the source's tail on the decode-ahead worker while it synthesizes."""

    def test_synthesis_starts_before_the_tail_is_pulled(self, tmp_path):
        decoder = GatedDecoder()
        tts = GateTts(decoder.gate)
        summary = _gated_run(tmp_path / "out", decoder, tts)
        assert decoder.exhausted
        assert summary.entries_written == len(SENTENCES) == tts.calls

    @pytest.mark.parametrize(
        "fault,error", [("nan", ValidationError), ("short", DecodeError), ("long", DecodeError)]
    )
    def test_a_faulty_tail_fails_the_run_as_a_whole_decode_and_publishes_nothing(
        self, tmp_path, monkeypatch, fault, error
    ):
        monkeypatch.setenv("VOICEFORGE_CACHE_DIR", str(tmp_path / "cache"))  # one path in both errors
        root = tmp_path / "out"
        pipeline.run(_m1_config(root))
        old = _tree_bytes(root)
        with pytest.raises(error) as whole:
            _decoded_whole(tmp_path / "whole", FaultyDecoder(fault), SOURCE_600S)

        decoder = GatedDecoder(fault)
        reported_at = []

        def wait_for_the_fault(calls):
            # the second call waits until the worker has reported the fault
            if calls == 1:
                deadline = time.monotonic() + GATE_TIMEOUT_S
                while _worker_alive():
                    assert time.monotonic() < deadline, "the tail fault was never reported"
                    time.sleep(0.001)
                reported_at.append(calls + 1)

        tts = GateTts(decoder.gate, wait_for_the_fault)
        sentences = [f"वाक्य संख्या {i}" for i in range(8)]
        with pytest.raises(error) as beside:
            _gated_run(root, decoder, tts, sentences=sentences)
        assert (type(beside.value), str(beside.value)) == (type(whole.value), str(whole.value))
        assert _tree_bytes(root) == old
        # the batch stops at the first sentence boundary after the fault is reported
        assert reported_at == [2] and tts.calls == 2

    @pytest.mark.parametrize(
        "fault,error,match", [(None, StageError, "codec gone"), ("nan", ValidationError, r"\[-1, 1\]")]
    )
    def test_a_prompt_error_waits_for_the_tails_verdict(self, tmp_path, fault, error, match):
        decoder = GatedDecoder(fault)

        class FailingCodec(MockCodecAdapter):
            def encode(self, *args):
                decoder.gate.set()
                raise RuntimeError("codec gone")

        # a fault in the tail outranks the codec's error, however far the worker has got
        with pytest.raises(error, match=match):
            _gated_run(tmp_path / "out", decoder, codec=FailingCodec())
        assert decoder.exhausted

    @pytest.mark.parametrize(
        "fault,error,match", [(None, BatchError, "every sentence"), ("nan", ValidationError, r"\[-1, 1\]")]
    )
    def test_every_sentence_failing_waits_for_the_tails_verdict(self, tmp_path, fault, error, match):
        decoder = GatedDecoder(fault)

        class DeadTts(GateTts):
            def synthesize(self, *args):
                self.gate.set()
                raise RuntimeError("tts gone")

        with pytest.raises(error, match=match):
            _gated_run(tmp_path / "out", decoder, DeadTts(decoder.gate))
        assert decoder.exhausted

    def test_a_faulty_tail_leaves_no_prompt_file(self, tmp_path):
        with pytest.raises(ValidationError):
            _prompt_with(tmp_path, FaultyDecoder("nan"))
        assert not list(pipeline.work_dir_for(tmp_path / "out").glob("assets/*"))

    def test_a_tail_fault_outranks_a_too_short_source(self, tmp_path):
        registry = default_registry()
        registry.register(
            AdapterDescriptor(role=AdapterRole.DECODER, id="faulty"), FaultyDecoder("nan")
        )
        data = _m1_data(tmp_path / "out", adapters={"decoder": "faulty"})
        data["preprocessing"] = {"segmentation": {"target_len_s": 60.0}}
        with pytest.raises(ValidationError, match=r"\[-1, 1\]"):
            pipeline.run(parse_config(data), registry)


class TestStreaming:
    """Packaging consumes one clip at a time; nothing upstream buffers them."""

    def test_package_transcodes_each_candidate_before_the_next(self, tmp_path, monkeypatch):
        transcodes = []
        real_transcode = pipeline.transcode

        def counting_transcode(*args, **kwargs):
            transcodes.append(1)
            return real_transcode(*args, **kwargs)

        monkeypatch.setattr(pipeline, "transcode", counting_transcode)
        config = _m1_config(tmp_path / "out")
        adapters = pipeline.resolve_adapters(config, default_registry())
        rate = adapters[AdapterRole.TTS].native_rate_hz
        tone = (0.3 * np.sin(np.arange(2 * rate) * 0.05)).astype(np.float32)

        def candidates():
            for i, sentence in enumerate(SENTENCES):
                assert len(transcodes) == i
                entry = CorpusEntry(clip_id=f"clip_{i}", relative_audio_path="", sentence=sentence)
                yield entry, AudioClip(samples=tone, sample_rate_hz=rate)

        summary = pipeline.RunSummary(methodology="bark_prompt", output_root=str(tmp_path / "out"))
        durations = pipeline._package(config, adapters, candidates(), summary, tmp_path / "staging")
        assert durations == [2.0] * len(SENTENCES)
        assert len(transcodes) == len(SENTENCES)

    def test_package_writes_each_clip_before_pulling_the_next(self, tmp_path):
        config = _m1_config(tmp_path / "out")
        adapters = pipeline.resolve_adapters(config, default_registry())
        rate = adapters[AdapterRole.TTS].native_rate_hz
        tone = (0.3 * np.sin(np.arange(2 * rate) * 0.05)).astype(np.float32)
        clips = pipeline.work_dir_for(tmp_path / "out") / "staging" / "clips"

        def candidates():
            for i, sentence in enumerate(SENTENCES):
                assert sorted(p.name for p in clips.glob("*.mp3")) == [
                    f"clip_{j}.mp3" for j in range(i)
                ]
                entry = CorpusEntry(clip_id=f"clip_{i}", relative_audio_path="", sentence=sentence)
                yield entry, AudioClip(samples=tone, sample_rate_hz=rate)

        summary = pipeline.RunSummary(methodology="bark_prompt", output_root=str(tmp_path / "out"))
        assert pipeline._package(config, adapters, candidates(), summary, clips.parent) == [2.0] * len(
            SENTENCES
        )
        assert not (tmp_path / "out").exists()  # nothing lands in the root before the publish

    def test_package_holds_no_encoded_payload(self, tmp_path):
        """40 clips of 5 s are packaged within the memory of 4 encoded clips."""
        config = _m1_config(tmp_path / "out")
        adapters = pipeline.resolve_adapters(config, default_registry())
        rate = adapters[AdapterRole.TTS].native_rate_hz
        tone = (0.3 * np.sin(np.arange(5 * rate) * 0.05)).astype(np.float32)
        payload = len(adapters[AdapterRole.TRANSCODE].encode(tone, rate, "mp3"))
        candidates = (
            (
                CorpusEntry(clip_id=f"clip_{i:02d}", relative_audio_path="", sentence=f"वाक्य {i}"),
                AudioClip(samples=tone, sample_rate_hz=rate),
            )
            for i in range(40)
        )
        summary = pipeline.RunSummary(methodology="bark_prompt", output_root=str(tmp_path / "out"))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pipeline._package(config, adapters, candidates, summary, tmp_path / "staging")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.entries_written == 40
        assert peak - base < 4 * payload

    @pytest.mark.parametrize(
        "rate,preprocessing",
        [(24000, {}), (44100, {}), (24000, {"denoise": 0.5}), (24000, {"stems": "two_stems"})],
        ids=["24000", "44100", "denoise", "stems"],
    )
    def test_prompt_stage_never_holds_the_whole_source(self, tmp_path, rate, preprocessing):
        data = _m1_data(tmp_path / "out")
        data["source"]["uri"] = f"mock://talk?duration=600&rate={rate}&seed=7"
        data["preprocessing"] = preprocessing  # the passes see segment 0 alone
        config = parse_config(data)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pipeline.prompt_stage(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole source at 24 kHz is 57.6 MB as float32; segment 0 is 10 s of it
        assert peak - base < 20 * 2**20

    def test_generation_run_loads_each_clip_after_the_last_is_transcoded(
        self, tmp_path, monkeypatch
    ):
        transcodes, loads = [], []
        real_transcode, real_load = pipeline.transcode, synthesis.load_wav

        def counting_transcode(*args, **kwargs):
            transcodes.append(1)
            return real_transcode(*args, **kwargs)

        def counting_load(*args, **kwargs):
            assert len(transcodes) == len(loads)
            loads.append(1)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(pipeline, "transcode", counting_transcode)
        monkeypatch.setattr(synthesis, "load_wav", counting_load)
        summary = pipeline.run(_m1_config(tmp_path / "out"))
        assert summary.entries_written == len(SENTENCES)
        assert len(loads) == len(transcodes) == len(SENTENCES)


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# Runs the config named by argv[1] with a transcoder that kills the process
# on its third encode, while the third clip is being packaged.
DYING_TRANSCODE_DRIVER = """
import os, sys
from voiceforge import pipeline
from voiceforge.adapters import default_registry
from voiceforge.adapters.base import AdapterDescriptor, AdapterRole
from voiceforge.adapters.mocks import MockTranscodeAdapter
from voiceforge.config import load_config

class DyingTranscode(MockTranscodeAdapter):
    calls = 0

    def encode(self, *args):
        DyingTranscode.calls += 1
        if DyingTranscode.calls == 3:
            os._exit(137)
        return super().encode(*args)

registry = default_registry()
registry.register(AdapterDescriptor(role=AdapterRole.TRANSCODE, id="dying"), DyingTranscode())
pipeline.run(load_config(sys.argv[1]), registry)
"""


class TestPublish:
    """The root holds the old tree or the new one, never a mix, and never loses user files."""

    def test_run_leaves_no_staging_or_previous(self, tmp_path):
        root = tmp_path / "out"
        pipeline.run(_m1_config(root))
        pipeline.run(_m1_config(root, seed=12))
        assert sorted(p.name for p in pipeline.work_dir_for(root).iterdir()) == [
            "assets",
            "cache",
            "synth",
        ]

    def test_process_killed_while_packaging_keeps_the_old_tree(self, tmp_path):
        reference, root = tmp_path / "reference", tmp_path / "out"
        pipeline.run(_m1_config(reference, seed=12))
        pipeline.run(_m1_config(root))
        old = _tree_bytes(root)
        data = _m1_data(root, adapters={"transcode": "dying"}, seed=12)
        cfg = tmp_path / "dying.yaml"
        cfg.write_text(yaml.safe_dump(data, allow_unicode=True), encoding="utf-8")
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        killed = subprocess.run(
            [sys.executable, "-c", DYING_TRANSCODE_DRIVER, str(cfg)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert killed.returncode == 137, killed.stderr
        assert _tree_bytes(root) == old

        pipeline.run(_m1_config(root, seed=12))
        assert _tree_bytes(root) == _tree_bytes(reference)
        work = pipeline.work_dir_for(root)
        assert not (work / "staging").exists() and not (work / "previous").exists()

    def test_crash_between_the_renames_is_recovered(self, tmp_path, monkeypatch):
        reference, root = tmp_path / "reference", tmp_path / "out"
        pipeline.run(_m1_config(reference, seed=12))
        pipeline.run(_m1_config(root))
        old = _tree_bytes(root)
        real_rename = os.rename

        def rename(src, dst):
            if Path(src).name == "staging":
                raise OSError("simulated crash before the second rename")
            real_rename(src, dst)

        monkeypatch.setattr(os, "rename", rename)
        with pytest.raises(OSError, match="simulated crash"):
            pipeline.run(_m1_config(root, seed=12))
        monkeypatch.setattr(os, "rename", real_rename)
        work = pipeline.work_dir_for(root)
        assert not root.exists()
        assert _tree_bytes(work / "previous") == old

        corpus._recover(root)  # the recovery step every publish starts with
        assert _tree_bytes(root) == old
        pipeline.run(_m1_config(root, seed=12))
        assert _tree_bytes(root) == _tree_bytes(reference)
        assert not (work / "staging").exists() and not (work / "previous").exists()

    def test_root_with_a_foreign_file_is_refused(self, tmp_path):
        root = tmp_path / "out"
        pipeline.run(_m1_config(root))
        (root / "notes.txt").write_text("my notes", encoding="utf-8")
        before = _tree_bytes(root)
        with pytest.raises(StageError, match="notes.txt") as info:
            pipeline.run(_m1_config(root, seed=12))
        assert info.value.stage == "package"
        assert _tree_bytes(root) == before

    def test_symlinked_root_is_refused(self, tmp_path):
        target = tmp_path / "elsewhere"
        target.mkdir()
        (tmp_path / "out").symlink_to(target)
        with pytest.raises(StageError, match="not a directory"):
            pipeline.run(_m1_config(tmp_path / "out"))
        assert (tmp_path / "out").is_symlink() and list(target.iterdir()) == []


class PipedAsr(MockAsrAdapter):
    """Mock ASR whose first transcript of the run holds LJ's '|' delimiter.

    LJ prep calls it once per window, so only the first call that returns
    segments pipes one.
    """

    def __init__(self):
        self.piped = False

    def transcribe(self, samples, rate, config):
        segments = super().transcribe(samples, rate, config)
        if self.piped or not segments:
            return segments
        self.piped = True
        first, *rest = segments
        return [replace(first, text=first.text + " | दो"), *rest]


class TestLayoutGate:
    def test_lj_transcript_with_a_pipe_is_skipped_with_a_layout_issue(self, tmp_path):
        root = tmp_path / "out"
        data = {
            "methodology": "rvc_convert",
            "source": {"uri": "mock://lecture?duration=120&rate=32000&seed=3"},
            "output": {"root": str(root), "split": {"valid_fraction": 0.1, "seed": 9}},
            "adapters": {"downloader": "mock", "decoder": "mock", "asr": "piped"},
        }
        registry = default_registry()
        registry.register(AdapterDescriptor(role=AdapterRole.ASR, id="piped"), PipedAsr())
        summary = pipeline.run(parse_config(data), registry)
        piped = min(summary.quality.per_clip)
        [issue] = [i for i in summary.quality.per_clip[piped] if i.code == "layout"]
        assert issue.severity.value == "fail" and "'|' delimiter" in issue.message
        written = read_lj(root)
        assert piped not in {e.clip_id for e in written}
        assert len(written) == summary.entries_written == summary.clips_in - 1
        report = json.loads((root / "quality_report.json").read_text(encoding="utf-8"))
        assert [i["code"] for i in report["per_clip"][piped]] == [i.code for i in summary.quality.per_clip[piped]]
