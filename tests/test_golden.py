"""Golden digests: the bytes of every kind of output tree are pinned.

One small config per output (clone to Common Voice, clone to LJ, LJ training
prep, conversion of the clone's Common Voice tree) runs in-process, and a
SHA-256 over the sorted (relative path, bytes) pairs of each whole tree,
`quality_report.json` and `training_config.txt` included, must equal the
committed constant. A change that alters output bytes on purpose updates the
constant in the same commit and logs the old and new digests in CHANGES.md.

Run as a script (`python tests/test_golden.py DIR`), the module builds the
four trees under DIR and prints their digests as JSON; the subprocess case
uses that to repeat the runs with numpy's SIMD dispatch forced down to its
baseline.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from voiceforge import pipeline
from voiceforge.config import parse_config

GOLDEN = {
    "m1_common_voice": "8200c580a2a5643747ed3e0450b65c6fa22652b4bf0476f9d9501ee147174d8b",
    "m1_lj": "42a97199fd4fc769e05cf9f22e1b0a29e2abf568c35e07028292782123f6b9cd",
    "m2_lj_prep": "82e0311c089082ca389cdcfc788e00a0ebb4f013ae1d5c817c50db3b86f5e2be",
    "m2_conversion": "065f85ce2123ab53d5525b1f5f7d7c07e89b25af475c86f05deba40093ca17f1",
}

CLONE_SOURCE = "mock://talk?duration=25&rate=24000&seed=7"
SENTENCES = ["नमस्ते, यह पहला वाक्य है।", "दूसरा वाक्य थोड़ा लंबा और अलग है।", "तीसरा।"]
SPLIT = {"valid_fraction": 0.34, "seed": 5}
MOCK_FETCH = {"downloader": "mock", "decoder": "mock"}
MODEL_REF, INDEX_REF = "target_voice.pth", "target_voice.index"
# Environment variables that would change what a run does.
UNSET = ("VOICEFORGE_CACHE_DIR", "VOICEFORGE_MOCK_TTS_ABORT_AFTER")


def _configs(base: Path) -> dict[str, dict]:
    """The four configs, in run order: conversion reads the clone's Common Voice tree."""

    def clone(name: str, fmt: str) -> dict:
        return {
            "methodology": "bark_prompt",
            "source": {"uri": CLONE_SOURCE},
            "generation": {"seed": 11, "sentences": SENTENCES},
            "output": {"root": str(base / name), "format": fmt, "split": SPLIT},
            "adapters": MOCK_FETCH,
        }

    return {
        "m1_common_voice": clone("m1_common_voice", "common_voice"),
        "m1_lj": clone("m1_lj", "lj"),
        "m2_lj_prep": {
            "methodology": "rvc_convert",
            "source": {"uri": "mock://lecture?duration=40&rate=44100&seed=3"},
            "output": {
                "root": str(base / "m2_lj_prep"),
                "split": {"valid_fraction": 0.25, "seed": 9},
            },
            "adapters": MOCK_FETCH,
        },
        "m2_conversion": {
            "methodology": "rvc_convert",
            "source": {"uri": "mock://unused?duration=1"},
            "conversion": {
                "model_ref": MODEL_REF,
                "index_ref": INDEX_REF,
                "input_corpus": str(base / "m1_common_voice"),
            },
            "output": {"root": str(base / "m2_conversion"), "split": SPLIT},
            "adapters": MOCK_FETCH,
        },
    }


def tree_digest(root: Path) -> str:
    """SHA-256 over each file's relative path and bytes, in sorted path order."""
    digest = hashlib.sha256()
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.is_file())
    for relative, path in files:
        payload = path.read_bytes()
        for part in (relative.encode("utf-8"), payload):
            digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


def build_all(base: Path) -> dict[str, str]:
    """Run the four configs under `base`; returns each output tree's digest.

    The model refs are relative names, since a clip's client id hashes the
    ref, so the runs happen with `base` as the working directory.
    """
    digests = {}
    cwd = Path.cwd()
    os.chdir(base)
    try:
        for ref in (MODEL_REF, INDEX_REF):
            Path(ref).touch()
        for name, data in _configs(base).items():
            pipeline.run(parse_config(data))
            digests[name] = tree_digest(base / name)
    finally:
        os.chdir(cwd)
    return digests


def _cpu_dispatch() -> list[str]:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return list(umath.__cpu_dispatch__)


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict[str, str]:
    with pytest.MonkeyPatch.context() as mp:
        for name in UNSET:
            mp.delenv(name, raising=False)
        return build_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", list(GOLDEN))
def test_output_tree_matches_its_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name]


def test_baseline_simd_dispatch_gives_the_same_bytes(tmp_path):
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(_cpu_dispatch())
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == GOLDEN


if __name__ == "__main__":
    print(json.dumps(build_all(Path(sys.argv[1]))))
