"""The Quick start config in README.md runs and validates as documented."""

from __future__ import annotations

import re
from pathlib import Path

import yaml

from voiceforge.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_config() -> dict:
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    [block] = [b for b in blocks if b.startswith("# clone.yaml\n")]
    return yaml.safe_load(block)


def test_quick_start_config_runs_and_validates(tmp_path, monkeypatch):
    monkeypatch.delenv("VOICEFORGE_CACHE_DIR", raising=False)
    monkeypatch.delenv("VOICEFORGE_MOCK_TTS_ABORT_AFTER", raising=False)
    config = _quick_start_config()
    config["output"]["root"] = str(tmp_path / "dataset")
    path = tmp_path / "clone.yaml"
    path.write_text(yaml.safe_dump(config, allow_unicode=True), encoding="utf-8")

    assert main(["run", "--config", str(path)]) == EXIT_OK
    assert main(["validate", "--config", str(path)]) == EXIT_OK
    assert (tmp_path / "dataset" / "train.tsv").is_file()
