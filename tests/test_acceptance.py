"""Release acceptance suite.

One test per shipped guarantee, each self-timed against its runtime budget.
The heavyweight criteria (end-to-end runs, kill/resume) drive the installed
CLI in subprocesses exactly the way a user would.
"""

from __future__ import annotations

import functools
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from voiceforge import (
    AudioClip,
    AudioFormat,
    CodebookMatrix,
    CorpusEntry,
    EncodedAudio,
    SegmentationPolicy,
    SpeakerPrompt,
    SplitSpec,
    TailPolicy,
    character_error_rate,
    default_conversion_params,
    default_generation_params,
    default_training_config,
    load_prompt,
    read_common_voice,
    read_lj,
    save_prompt,
    segment,
    split_train_valid,
    word_error_rate,
    write_common_voice,
    write_lj,
)
from voiceforge.adapters.mocks import MockTranscodeAdapter
from voiceforge.audio import decode_wav_pcm16, encode_wav_pcm16
from voiceforge.conversion import MIN_TRAINING_SECONDS
from voiceforge.corpus import CV_COLUMNS
from voiceforge.quality import ClipConstraints, levenshtein, validate_clip
from voiceforge.transcribe import AsrConfig, AsrTask

DEVANAGARI_SENTENCES = [
    "नमस्ते, आप कैसे हैं",
    "आज मौसम बहुत सुहावना है",
    "यह एक परीक्षण वाक्य है",
    "किताबें ज्ञान का भंडार हैं",
]
LATIN_SENTENCES = [
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen jugs",
    "a quiet morning by the river",
]

M1_CONFIG = """\
methodology: bark_prompt
source:
  uri: "mock://talk?duration=45&rate=24000&seed=7"
generation:
  seed: 11
  sentences:
    - "नमस्ते दुनिया"
    - "यह एक परीक्षण है"
    - "आवाज क्लोनिंग का नमूना"
output:
  root: {root}
  split:
    valid_fraction: 0.34
    seed: 5
adapters:
  downloader: mock
  decoder: mock
"""

M2_CONFIG = """\
methodology: rvc_convert
source:
  uri: "mock://lecture?duration=600&rate=32000&seed=3"
output:
  root: {root}
  split:
    valid_fraction: 0.1
    seed: 9
adapters:
  downloader: mock
  decoder: mock
"""


class _Budget:
    """Asserts the block under `with` finished inside the allowed seconds."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, f"took {elapsed:.2f} s, budget {self.seconds} s"
        return False


def _run_cli(args: list[str], cwd: Path, env_extra: dict[str, str]) -> subprocess.CompletedProcess:
    import os

    env = dict(os.environ)
    env.pop("VOICEFORGE_MOCK_TTS_ABORT_AFTER", None)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "voiceforge.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_published_default_constants():
    with _Budget(1.0):
        gen = default_generation_params()
        assert (gen.text_temp, gen.waveform_temp) == (0.85, 0.7)

        conv = default_conversion_params()
        assert (conv.envelope_mix, conv.filter_radius, conv.index_ratio, conv.protect) == (
            0.25,
            3,
            0.75,
            0.33,
        )
        assert conv.transpose_semitones == 0

        training = default_training_config()
        assert (training.target_sample_rate_hz, training.batch_size, training.epochs) == (
            32000,
            40,
            200,
        )
        assert (training.pretrained_gen, training.pretrained_disc) == ("f0G32k", "f0D32k")
        assert training.pitch_guided is True

        asr = AsrConfig()
        assert (asr.language, asr.task) == ("hi", AsrTask.TRANSCRIBE)

        assert MIN_TRAINING_SECONDS == 600.0


def test_segmentation_matches_floor_oracle():
    # Targets are multiples of 0.5 s and every rate is even, so target*rate
    # is an exact integer and the floor oracle can be evaluated in integer
    # arithmetic with no float round-off of its own.
    rng = random.Random(0x5E6)
    rates = (8000, 16000, 22050, 24000, 32000, 44100, 48000)
    with _Budget(10.0):
        for _ in range(1000):
            rate = rng.choice(rates)
            n = rng.randrange(0, rate * 30)
            half_steps = rng.randrange(1, 31)  # target in [0.5 s, 15 s]
            target_s = half_steps / 2
            step = half_steps * (rate // 2)
            keep = rng.random() < 0.5
            if keep:
                tail_half_steps = rng.randrange(0, half_steps)
                policy = SegmentationPolicy(
                    target_len_s=target_s,
                    tail=TailPolicy.KEEP_LAST,
                    min_tail_s=tail_half_steps / 2,
                )
                min_tail_samples = tail_half_steps * (rate // 2)
            else:
                policy = SegmentationPolicy(target_len_s=target_s, tail=TailPolicy.DROP_LAST)

            samples = ((np.arange(n, dtype=np.int64) % 977) / 1000.0).astype(np.float32)
            clip = AudioClip(samples=samples, sample_rate_hz=rate)
            segments = segment(clip, policy)

            full = n // step
            remainder = n - full * step
            expect_tail = keep and remainder > 0 and remainder >= min_tail_samples
            assert len(segments) == full + (1 if expect_tail else 0)

            for k, piece in enumerate(segments[:full]):
                assert piece.n_samples == step
                assert piece.offset_s == k * target_s  # exact: dyadic target
            if expect_tail:
                assert segments[-1].n_samples == remainder
                assert segments[-1].offset_s == full * target_s

            covered = sum(piece.n_samples for piece in segments)
            joined = (
                np.concatenate([piece.samples for piece in segments])
                if segments
                else np.empty(0, np.float32)
            )
            assert np.array_equal(joined, samples[:covered])


def test_prompt_save_load_identity():
    import tempfile

    rng = np.random.default_rng(1234)
    with _Budget(10.0), tempfile.TemporaryDirectory() as tmp:
        for i in range(200):
            count = int(rng.integers(2, 9))
            n_coarse = int(rng.integers(1, count))
            n_frames = int(rng.integers(1, 400))
            codebook_size = int(rng.integers(2, 1025))
            fine = CodebookMatrix(
                codes=rng.integers(0, codebook_size, size=(count, n_frames), dtype=np.int64),
                frame_rate_hz=float(rng.choice([50.0, 75.0, 86.0])),
                codebook_size=codebook_size,
            )
            semantic = rng.integers(0, 10000, size=int(rng.integers(1, 300)), dtype=np.int64)
            prompt = SpeakerPrompt(semantic, fine, n_coarse, source_id=f"case{i:03d}")

            assert prompt.coarse.n_codebooks == n_coarse
            assert np.array_equal(prompt.coarse.codes, prompt.fine.codes[:n_coarse])

            path = Path(tmp) / f"prompt_{i:03d}.npz"
            save_prompt(prompt, path)
            assert load_prompt(path) == prompt


@functools.cache
def _edit_oracle(a: tuple, b: tuple) -> int:
    """Recursive three-way edit distance, structurally independent of the DP."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    if a[0] == b[0]:
        return _edit_oracle(a[1:], b[1:])
    return 1 + min(
        _edit_oracle(a[1:], b),
        _edit_oracle(a, b[1:]),
        _edit_oracle(a[1:], b[1:]),
    )


def test_error_rates_match_recursive_oracle():
    rng = random.Random(41)
    alphabet = "abc"
    with _Budget(30.0):
        for _ in range(5000):
            ref = "".join(rng.choices(alphabet, k=rng.randrange(1, 9)))
            hyp = "".join(rng.choices(alphabet, k=rng.randrange(0, 9)))
            expected = _edit_oracle(tuple(ref), tuple(hyp))
            assert levenshtein(ref, hyp) == expected
            assert character_error_rate(ref, hyp) == expected / len(ref)
            # one char per token makes the word-level distance identical
            assert word_error_rate(" ".join(ref), " ".join(hyp)) == expected / len(ref)


def _make_wav_audio(rng: random.Random) -> EncodedAudio:
    n = rng.randrange(1600, 4800)
    samples = ((np.arange(n, dtype=np.int64) % 881) / 1000.0).astype(np.float32)
    clip = AudioClip(samples=samples, sample_rate_hz=8000)
    return EncodedAudio(payload=encode_wav_pcm16(clip), format=AudioFormat.WAV_PCM16)


def _make_mp3_audio(rng: random.Random, codec: MockTranscodeAdapter) -> EncodedAudio:
    n = rng.randrange(1600, 4800)
    samples = ((np.arange(n, dtype=np.int64) % 881) / 1000.0).astype(np.float32)
    return EncodedAudio(payload=codec.encode(samples, 8000, "mp3"), format=AudioFormat.MP3)


def test_corpus_writers_and_readers_are_inverses(tmp_path):
    rng = random.Random(77)
    codec = MockTranscodeAdapter()
    header = "\t".join(CV_COLUMNS).encode("utf-8")
    with _Budget(10.0):
        for set_i in range(100):
            n_entries = rng.randrange(1, 8)
            with_extras = set_i % 3 == 0
            lj_entries: list[CorpusEntry] = []
            cv_entries: list[CorpusEntry] = []
            wav_audio: dict[str, EncodedAudio] = {}
            mp3_audio: dict[str, EncodedAudio] = {}
            for j in range(n_entries):
                clip_id = f"s{set_i:03d}_{j:06d}"
                if j == 0:
                    sentence = rng.choice(DEVANAGARI_SENTENCES)
                else:
                    sentence = rng.choice(DEVANAGARI_SENTENCES + LATIN_SENTENCES)
                lj_entries.append(
                    CorpusEntry(
                        clip_id=clip_id,
                        relative_audio_path=f"wavs/{clip_id}.wav",
                        sentence=sentence,
                    )
                )
                cv_entries.append(
                    CorpusEntry(
                        clip_id=clip_id,
                        relative_audio_path=f"clips/{clip_id}.mp3",
                        sentence=sentence,
                        client_id=f"{rng.getrandbits(64):016x}",
                        up_votes=rng.randrange(0, 5),
                        down_votes=rng.randrange(0, 2),
                        age=rng.choice([None, "twenties", "thirties"]),
                        gender=rng.choice([None, "female", "male"]),
                        accents=None,
                        locale=rng.choice(["hi", "en"]),
                        segment=None,
                        extra={"variant": f"v{j}"} if with_extras else {},
                    )
                )
                wav_audio[clip_id] = _make_wav_audio(rng)
                mp3_audio[clip_id] = _make_mp3_audio(rng, codec)

            split = SplitSpec(valid_fraction=rng.choice([0.1, 0.2, 0.5]), seed=set_i)

            lj_root = tmp_path / f"lj_{set_i:03d}"
            write_lj(lj_entries, wav_audio, lj_root, split)
            read_back = sorted(read_lj(lj_root), key=lambda e: e.clip_id)
            assert read_back == sorted(lj_entries, key=lambda e: e.clip_id)

            cv_root = tmp_path / f"cv_{set_i:03d}"
            write_common_voice(cv_entries, mp3_audio, cv_root, split)
            read_back = sorted(read_common_voice(cv_root), key=lambda e: e.clip_id)
            assert read_back == sorted(cv_entries, key=lambda e: e.clip_id)

            if not with_extras:
                for manifest in ("train.tsv", "dev.tsv"):
                    first = (cv_root / manifest).read_bytes().split(b"\n", 1)[0]
                    assert first == header


def test_split_is_deterministic_across_processes():
    # each child times its own split, after its imports (numpy and scipy can
    # take seconds to import on a loaded host), and prints it after the ids
    script = (
        "import time\n"
        "from voiceforge.corpus import CorpusEntry, SplitSpec, split_train_valid\n"
        "start = time.monotonic()\n"
        "entries = [CorpusEntry(clip_id=f'clip_{i:03d}',"
        " relative_audio_path=f'wavs/clip_{i:03d}.wav',"
        " sentence=f'sentence number {i}') for i in range(20)]\n"
        "train, valid = split_train_valid(entries, SplitSpec(valid_fraction=0.2, seed=42))\n"
        "print(','.join(e.clip_id for e in valid))\n"
        "print(time.monotonic() - start)\n"
    )
    outputs = []
    for _ in range(2):
        stdout = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        ).stdout
        ids, elapsed = stdout.splitlines()
        assert float(elapsed) < 5.0, f"the split took {float(elapsed):.2f} s in a child, budget 5.0 s"
        outputs.append(ids)
    assert outputs[0] == outputs[1]

    with _Budget(5.0):
        entries = [
            CorpusEntry(
                clip_id=f"clip_{i:03d}",
                relative_audio_path=f"wavs/clip_{i:03d}.wav",
                sentence=f"sentence number {i}",
            )
            for i in range(20)
        ]
        _, valid = split_train_valid(entries, SplitSpec(valid_fraction=0.2, seed=42))
        assert outputs[0].strip() == ",".join(e.clip_id for e in valid)

        for n in range(1, 51):
            entries = [
                CorpusEntry(
                    clip_id=f"e{n:02d}_{i:03d}",
                    relative_audio_path=f"wavs/e{i:03d}.wav",
                    sentence=f"sentence {i}",
                )
                for i in range(n)
            ]
            for fraction in (0.1, 0.2, 0.5):
                train, valid = split_train_valid(entries, SplitSpec(fraction, seed=7))
                assert len(valid) == int(n * fraction + 0.5)  # round, half-up
                assert len(train) + len(valid) == n
                train_ids = {e.clip_id for e in train}
                valid_ids = {e.clip_id for e in valid}
                assert not train_ids & valid_ids


def test_end_to_end_runs_are_byte_identical(tmp_path):
    cache = {"VOICEFORGE_CACHE_DIR": str(tmp_path / "cache")}
    with _Budget(60.0):
        # methodology 1: two fresh executions into the same root
        (tmp_path / "m1.yaml").write_text(M1_CONFIG.format(root="out_m1"), encoding="utf-8")
        trees = []
        for _ in range(2):
            proc = _run_cli(["run", "--config", "m1.yaml"], tmp_path, cache)
            assert proc.returncode == 0, proc.stderr + proc.stdout
            trees.append(_tree_bytes(tmp_path / "out_m1"))
        assert trees[0] == trees[1]

        m1_root = tmp_path / "out_m1"
        entries = read_common_voice(m1_root)
        assert sorted(e.sentence for e in entries) == sorted(
            ["नमस्ते दुनिया", "यह एक परीक्षण है", "आवाज क्लोनिंग का नमूना"]
        )
        codec = MockTranscodeAdapter()
        constraints = ClipConstraints(required_rate_hz=24000)
        for entry in entries:
            payload = (m1_root / entry.relative_audio_path).read_bytes()
            samples, rate = codec.decode(payload, "mp3")
            clip = AudioClip(samples=samples, sample_rate_hz=rate)
            assert validate_clip(clip, constraints) == []

        # methodology 2 (training prep): same double-run comparison
        (tmp_path / "m2.yaml").write_text(M2_CONFIG.format(root="out_m2"), encoding="utf-8")
        trees = []
        for _ in range(2):
            proc = _run_cli(["run", "--config", "m2.yaml"], tmp_path, cache)
            assert proc.returncode == 0, proc.stderr + proc.stdout
            trees.append(_tree_bytes(tmp_path / "out_m2"))
        assert trees[0] == trees[1]

        m2_root = tmp_path / "out_m2"
        assert (m2_root / "wavs").is_dir()
        assert (m2_root / "train.txt").is_file()
        assert (m2_root / "valid.txt").is_file()
        lj_entries = read_lj(m2_root)
        assert lj_entries
        for entry in lj_entries:
            assert entry.relative_audio_path == f"wavs/{entry.clip_id}.wav"
            assert (m2_root / entry.relative_audio_path).is_file()
        config_text = (m2_root / "training_config.txt").read_text(encoding="utf-8")
        assert "sample_rate=32000" in config_text


def test_end_to_end_runs_agree_across_cache_dirs(tmp_path):
    # clip ids, split membership and client ids follow the source's bytes,
    # not the directory the downloaded source is cached in
    with _Budget(60.0):
        for name, template in (("m1", M1_CONFIG), ("m2", M2_CONFIG)):
            (tmp_path / f"{name}.yaml").write_text(
                template.format(root=f"out_{name}"), encoding="utf-8"
            )
            trees = []
            for cache in ("cache_a", "cache_b"):
                env = {"VOICEFORGE_CACHE_DIR": str(tmp_path / cache)}
                proc = _run_cli(["run", "--config", f"{name}.yaml"], tmp_path, env)
                assert proc.returncode == 0, proc.stderr + proc.stdout
                trees.append(_tree_bytes(tmp_path / f"out_{name}"))
            assert trees[0] == trees[1]


def test_killed_batch_resumes_to_identical_dataset(tmp_path):
    cache = {"VOICEFORGE_CACHE_DIR": str(tmp_path / "cache")}
    with _Budget(30.0):
        (tmp_path / "kill.yaml").write_text(M1_CONFIG.format(root="out_kill"), encoding="utf-8")
        (tmp_path / "ref.yaml").write_text(M1_CONFIG.format(root="out_ref"), encoding="utf-8")

        proc = _run_cli(
            ["run", "--config", "kill.yaml"],
            tmp_path,
            {**cache, "VOICEFORGE_MOCK_TTS_ABORT_AFTER": "1"},
        )
        assert proc.returncode == 137, proc.stderr + proc.stdout

        clips = list((tmp_path / "out_kill.work" / "synth" / "clips").iterdir())
        assert len(clips) == 1 and clips[0].suffix == ".wav"  # item 1 of 3 survived the kill

        proc = _run_cli(["run", "--config", "kill.yaml", "--resume"], tmp_path, cache)
        assert proc.returncode == 0, proc.stderr + proc.stdout

        proc = _run_cli(["run", "--config", "ref.yaml"], tmp_path, cache)
        assert proc.returncode == 0, proc.stderr + proc.stdout

        assert _tree_bytes(tmp_path / "out_kill") == _tree_bytes(tmp_path / "out_ref")


def test_wav_round_trip_error_bound():
    rng = np.random.default_rng(99)
    bound = 1.0 / 32768.0
    with _Budget(10.0):
        for i in range(100):
            rate = int(rng.choice([8000, 16000, 22050, 24000, 32000, 44100, 48000]))
            n = int(rng.integers(1, 24000))
            samples = rng.uniform(-1.0, 1.0, n).astype(np.float32)
            samples[0] = 1.0
            if n > 1:
                samples[-1] = -1.0
            clip = AudioClip(samples=samples, sample_rate_hz=rate)
            decoded, out_rate = decode_wav_pcm16(encode_wav_pcm16(clip))
            assert out_rate == rate
            assert decoded.size == n
            assert float(np.max(np.abs(decoded - clip.samples))) <= bound
