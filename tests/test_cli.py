from __future__ import annotations

import os

import numpy as np
import pytest
import yaml

from voiceforge import pipeline
from voiceforge.adapters import AdapterDescriptor, AdapterRole, default_registry
from voiceforge.adapters.mocks import MockTranscodeAdapter
from voiceforge.audio import AudioClip
from voiceforge.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, EXIT_STAGE, build_parser, main
from voiceforge.corpus import CorpusEntry, SplitSpec, write_lj
from voiceforge.errors import StageError
from voiceforge.preprocess import AudioFormat, transcode

SENTENCES = ["पहला वाक्य।", "दूसरा वाक्य।", "तीसरा वाक्य।"]


@pytest.fixture(autouse=True)
def _isolated_env(monkeypatch):
    monkeypatch.delenv("VOICEFORGE_CACHE_DIR", raising=False)
    monkeypatch.delenv("VOICEFORGE_MOCK_TTS_ABORT_AFTER", raising=False)


def _write_config(tmp_path, data) -> str:
    path = tmp_path / "pipeline.yaml"
    path.write_text(yaml.safe_dump(data, allow_unicode=True), encoding="utf-8")
    return str(path)


def _m1_yaml(tmp_path, **overrides) -> str:
    data = {
        "methodology": "bark_prompt",
        "source": {"uri": "mock://talk?duration=45&rate=24000&seed=7"},
        "generation": {"seed": 11, "sentences": SENTENCES},
        "output": {
            "root": str(tmp_path / "out"),
            "split": {"valid_fraction": 0.34, "seed": 5},
        },
        "adapters": {"downloader": "mock", "decoder": "mock"},
    }
    data.update(overrides)
    return _write_config(tmp_path, data)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.yaml")])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_config_value(self, tmp_path, capsys):
        cfg = _m1_yaml(
            tmp_path,
            generation={"sentences": SENTENCES, "text_temp": -1},
        )
        code = main(["run", "--config", cfg])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "generation.text_temp" in err

    def test_lone_surrogate_in_a_sentence_is_a_config_error(self, tmp_path, capsys):
        cfg = _m1_yaml(tmp_path, generation={"sentences": [SENTENCES[0], "\ud800 hi"]})
        lines = open(cfg, encoding="utf-8").read().splitlines()
        line = next(n for n, text in enumerate(lines, start=1) if "uD800" in text)
        code = main(["run", "--config", cfg])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"generation.sentences[1]: must be valid Unicode text (line {line})" in err
        assert not (tmp_path / "out").exists()

    def test_a_repeated_sentence_is_a_config_error(self, tmp_path, capsys):
        cfg = _m1_yaml(tmp_path, generation={"sentences": [*SENTENCES, f"{SENTENCES[1]}  "]})
        lines = open(cfg, encoding="utf-8").read().splitlines()
        line = 3 + next(n for n, text in enumerate(lines, start=1) if SENTENCES[0] in text)
        code = main(["run", "--config", cfg])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"generation.sentences[3]: repeats generation.sentences[1] (line {line})" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_adapter_is_a_config_error(self, tmp_path, capsys):
        cfg = _m1_yaml(tmp_path, adapters={"downloader": "mock", "decoder": "mock", "tts": "nope"})
        code = main(["run", "--config", cfg])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_stage_error_maps_to_two(self, tmp_path, monkeypatch, capsys):
        cfg = _m1_yaml(tmp_path)

        def explode(config, registry=None, resume=False):
            raise StageError("backend fell over", stage="synthesize")

        monkeypatch.setattr(pipeline, "run", explode)
        code = main(["run", "--config", cfg])
        assert code == EXIT_STAGE
        assert "error: [synthesize] backend fell over" in capsys.readouterr().err

    def test_partial_batch_maps_to_three(self, tmp_path, monkeypatch, capsys):
        cfg = _m1_yaml(tmp_path)

        def partial(config, registry=None, resume=False):
            return pipeline.RunSummary(
                methodology="bark_prompt",
                output_root=config.output.root,
                entries_written=2,
                partial=True,
                messages=["failed sentence 'x': boom"],
            )

        monkeypatch.setattr(pipeline, "run", partial)
        code = main(["run", "--config", cfg])
        assert code == EXIT_PARTIAL
        out = capsys.readouterr().out
        assert "note: failed sentence" in out

    def test_argparse_rejects_unknown_command(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate", "--config", "x.yaml"])
        assert excinfo.value.code == 2


class TestDryRun:
    def test_prints_plan_without_side_effects(self, tmp_path, capsys):
        cfg = _m1_yaml(tmp_path)
        code = main(["run", "--config", cfg, "--dry-run"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "plan for run (bark_prompt):" in out
        assert "synthesize 3 sentences" in out
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "out.work").exists()

    def test_dry_run_still_resolves_adapters(self, tmp_path, capsys):
        cfg = _m1_yaml(tmp_path, adapters={"downloader": "mock", "decoder": "mock", "tts": "nope"})
        code = main(["run", "--config", cfg, "--dry-run"])
        assert code == EXIT_CONFIG
        assert "no tts adapter" in capsys.readouterr().err


class TestRunAndValidate:
    def test_run_writes_dataset(self, tmp_path, capsys):
        cfg = _m1_yaml(tmp_path)
        code = main(["run", "--config", cfg])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "3 entries written" in out
        root = tmp_path / "out"
        assert (root / "train.tsv").is_file()
        assert (root / "quality_report.json").is_file()

    def test_validate_passes_on_fresh_dataset(self, tmp_path, capsys):
        cfg = _m1_yaml(tmp_path)
        assert main(["run", "--config", cfg]) == EXIT_OK
        capsys.readouterr()
        code = main(["validate", "--config", cfg])
        assert code == EXIT_OK
        assert "0 failing" in capsys.readouterr().out

    def test_validate_fails_on_corrupted_clip(self, tmp_path, capsys):
        cfg = _m1_yaml(tmp_path)
        assert main(["run", "--config", cfg]) == EXIT_OK
        capsys.readouterr()
        victim = sorted((tmp_path / "out" / "clips").glob("*.mp3"))[0]
        silent = AudioClip(samples=np.zeros(2400, np.float32), sample_rate_hz=24000)
        victim.write_bytes(
            transcode(silent, AudioFormat.MP3, MockTranscodeAdapter()).payload
        )
        code = main(["validate", "--config", cfg])
        assert code == EXIT_STAGE
        out = capsys.readouterr().out
        assert f"fail: {victim.stem}" in out

    def test_resume_flag_reaches_the_pipeline(self, tmp_path, monkeypatch):
        cfg = _m1_yaml(tmp_path)
        seen = {}

        def record(config, registry=None, resume=False):
            seen["resume"] = resume
            return pipeline.RunSummary(methodology="bark_prompt", output_root="x")

        monkeypatch.setattr(pipeline, "run", record)
        assert main(["run", "--config", cfg, "--resume"]) == EXIT_OK
        assert seen == {"resume": True}

    def test_resume_is_refused_where_nothing_reads_it(self, tmp_path, capsys):
        cfg = _m1_yaml(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "--config", cfg, "--resume"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --resume" in capsys.readouterr().err

    def test_workers_key_and_flag_are_rejected(self, tmp_path, capsys):
        cfg = _m1_yaml(tmp_path, workers=2)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "workers: unknown key" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--config", _m1_yaml(tmp_path), "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_a_decoder_without_decode_blocks_is_a_stage_error(self, tmp_path, monkeypatch, capsys):
        class WholeFileDecoder:
            def decode(self, path):
                return np.zeros(24000, np.float32), 24000

        registry = default_registry()
        registry.register(AdapterDescriptor(AdapterRole.DECODER, "whole"), WholeFileDecoder())
        monkeypatch.setattr(pipeline, "default_registry", lambda: registry)
        cfg = _m1_yaml(tmp_path, adapters={"downloader": "mock", "decoder": "whole"})
        assert main(["run", "--config", cfg]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith("error: [decode] cannot decode ")
        assert "'WholeFileDecoder' object has no attribute 'decode_blocks'" in err
        assert not (tmp_path / "out").exists()


class TestStageCommands:
    def test_acquire_prints_the_cached_path(self, tmp_path, capsys):
        cfg = _m1_yaml(tmp_path)
        code = main(["acquire", "--config", cfg])
        assert code == EXIT_OK
        printed = capsys.readouterr().out.strip()
        assert printed.endswith(".mockav")

    def test_acquire_on_a_conversion_config_fetches_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("VOICEFORGE_CACHE_DIR", str(tmp_path / "cache"))
        code = main(["acquire", "--config", _conversion_yaml(tmp_path)])
        assert code == EXIT_CONFIG
        assert "conversion reads conversion.input_corpus" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_prep_is_not_a_command(self, tmp_path, capsys):
        assert "prep" not in build_parser().format_help()
        with pytest.raises(SystemExit) as excinfo:
            main(["prep", "--config", _m1_yaml(tmp_path)])
        assert excinfo.value.code == 2
        assert "invalid choice: 'prep'" in capsys.readouterr().err
        assert not (tmp_path / "out.work").exists()

    def test_prompt_writes_archive(self, tmp_path, capsys):
        cfg = _m1_yaml(tmp_path)
        code = main(["prompt", "--config", cfg])
        assert code == EXIT_OK
        printed = capsys.readouterr().out.strip()
        assert printed.endswith(".npz")

    def test_train_config_writes_file(self, tmp_path, capsys):
        cfg = _m1_yaml(tmp_path)
        code = main(["train-config", "--config", cfg])
        assert code == EXIT_OK
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("training_config.txt")
        assert "sample_rate=32000" in (tmp_path / "out" / "training_config.txt").read_text(
            encoding="utf-8"
        )

    def test_train_config_refuses_a_symlinked_root(self, tmp_path, capsys):
        target = tmp_path / "target"
        target.mkdir()
        (tmp_path / "out").symlink_to(target)
        code = main(["train-config", "--config", _m1_yaml(tmp_path)])
        assert code == EXIT_STAGE
        assert capsys.readouterr().err == (
            f"error: [train-config] output root {tmp_path / 'out'} is a symlink or not a "
            "directory; refusing to write training_config.txt into it\n"
        )
        assert list(target.iterdir()) == []

    def test_train_config_refuses_a_root_with_a_foreign_file(self, tmp_path, capsys):
        root = tmp_path / "out"
        root.mkdir()
        (root / "notes.txt").write_text("my notes", encoding="utf-8")
        code = main(["train-config", "--config", _m1_yaml(tmp_path)])
        assert code == EXIT_STAGE
        assert capsys.readouterr().err == (
            f"error: [train-config] output root {root} holds files voiceforge does not write "
            "(notes.txt); move them or choose another output.root\n"
        )
        assert [p.name for p in root.iterdir()] == ["notes.txt"]

    def test_train_config_over_an_lj_tree_adds_only_the_config(self, tmp_path, capsys):
        root = tmp_path / "out"
        clip = AudioClip(samples=np.zeros(800, dtype=np.float32), sample_rate_hz=8000)
        encoded = transcode(clip, AudioFormat.WAV_PCM16, MockTranscodeAdapter())
        entries = [CorpusEntry(f"c{i}", "", f"वाक्य {i}") for i in range(3)]
        write_lj(entries, {e.clip_id: encoded for e in entries}, root, SplitSpec(0.34, 5))

        def tree():
            return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        before = tree()
        assert main(["train-config", "--config", _m1_yaml(tmp_path)]) == EXIT_OK
        after = tree()
        assert set(after) == set(before) | {"training_config.txt"}
        assert {name: after[name] for name in before} == before

    def test_synth_then_package_completes_the_dataset(self, tmp_path, capsys):
        cfg = _m1_yaml(tmp_path)
        assert main(["synth", "--config", cfg]) == EXIT_OK
        root = tmp_path / "out"
        assert not (root / "train.tsv").exists()
        clips = sorted((tmp_path / "out.work" / "synth" / "clips").iterdir())
        before = [(os.stat(p).st_ino, os.stat(p).st_mtime_ns) for p in clips]
        assert len(clips) == 3
        assert main(["package", "--config", cfg]) == EXIT_OK
        assert (root / "train.tsv").is_file()
        # package reused the clips: the same files, neither rewritten nor replaced
        assert sorted((tmp_path / "out.work" / "synth" / "clips").iterdir()) == clips
        assert [(os.stat(p).st_ino, os.stat(p).st_mtime_ns) for p in clips] == before

    def test_convert_without_model_is_a_config_error(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {
                "methodology": "rvc_convert",
                "source": {"uri": "mock://lecture?duration=60&rate=32000"},
                "output": {"root": str(tmp_path / "out")},
                "adapters": {"downloader": "mock", "decoder": "mock"},
            },
        )
        code = main(["convert", "--config", cfg])
        assert code == EXIT_CONFIG
        assert "model_ref" in capsys.readouterr().err


def _lj_prep_yaml(tmp_path) -> str:
    return _write_config(
        tmp_path,
        {
            "methodology": "rvc_convert",
            "source": {"uri": "mock://lecture?duration=60&rate=32000"},
            "output": {"root": str(tmp_path / "out")},
            "adapters": {"downloader": "mock", "decoder": "mock"},
        },
    )


def _conversion_yaml(tmp_path) -> str:
    return _write_config(
        tmp_path,
        {
            "methodology": "rvc_convert",
            "source": {"uri": "mock://unused?duration=1"},
            "conversion": {
                "model_ref": "voice.pth",
                "index_ref": "voice.index",
                "input_corpus": str(tmp_path / "corpus"),
            },
            "output": {"root": str(tmp_path / "out")},
            "adapters": {"downloader": "mock", "decoder": "mock", "vc": "mock"},
        },
    )


@pytest.mark.parametrize(
    "command, config, refusal",
    [
        ("convert", _lj_prep_yaml, "convert needs methodology: rvc_convert with conversion.model_ref"),
        ("prompt", _lj_prep_yaml, "the prompt stage applies to methodology: bark_prompt"),
        ("synth", _conversion_yaml, "the synth stage applies to methodology: bark_prompt"),
        ("acquire", _conversion_yaml, "acquire applies to a job that reads a source"),
    ],
    ids=["convert", "prompt", "synth", "acquire"],
)
def test_dry_run_refuses_what_the_command_refuses(tmp_path, capsys, command, config, refusal):
    cfg = config(tmp_path)
    stderr = []
    for flags in ([], ["--dry-run"]):
        assert main([command, "--config", cfg, *flags]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        stderr.append(err)
    assert stderr[0] == stderr[1]
    assert stderr[0].startswith(f"configuration error: {refusal}")
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "out.work").exists()
