"""Per-workload correctness checks and the output digest, run after timing."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from voiceforge import (
    AudioClip,
    ClipConstraints,
    read_common_voice,
    read_lj,
    validate_clip,
)
from voiceforge.adapters.mocks import MockTranscodeAdapter
from voiceforge.audio import decode_wav_pcm16
from voiceforge.corpus import client_id_for

DURATION_TOLERANCE_S = 1e-3
PACKAGED_RATE_HZ = 32000  # LJ training prep and conversion both target 32 kHz


@dataclass
class Outcome:
    attempted: int
    delivered: int
    audio_s: float = 0.0
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def failed(self) -> int:
        return self.attempted if self.problems else self.attempted - self.delivered


def digest(pairs) -> str:
    """SHA-256 over the sorted (sentence, SHA-256 of audio bytes) pairs.

    Clip ids, client ids and split membership are left out: they follow the
    source's cache path, which differs between runs.
    """
    h = hashlib.sha256()
    for sentence, audio_sha in sorted((s, hashlib.sha256(p).hexdigest()) for s, p in pairs):
        h.update(f"{sentence}\t{audio_sha}\n".encode("utf-8"))
    return h.hexdigest()


def _passes(clip: AudioClip, rate_hz: int) -> bool:
    issues = validate_clip(clip, ClipConstraints(required_rate_hz=rate_hz))
    return not any(issue.severity.value == "fail" for issue in issues)


def _read(root: Path, reader, out: Outcome) -> list:
    try:
        return reader(root)
    except Exception as exc:  # a missing or unreadable dataset fails the check
        out.problems.append(f"{reader.__name__}({root}) raised {exc!r}")
        return []


def check_clone_cv(config, validation, sentences: list[str]) -> Outcome:
    root = Path(config.output.root)
    out = Outcome(attempted=len(sentences), delivered=0)
    entries = _read(root, read_common_voice, out)
    out.delivered = len(entries)
    if len(entries) != len(sentences):
        out.problems.append(f"{len(entries)} entries for {len(sentences)} sentences")
    if sorted(e.sentence for e in entries) != sorted(sentences):
        out.problems.append("dataset sentences differ from the requested ones")
    if isinstance(validation, Exception):
        out.problems.append(f"validate_dataset raised {validation!r}")
    elif validation.metrics.get("failing_entries") != 0.0:
        out.problems.append(f"validate_dataset: {validation.metrics.get('failing_entries')} failing")
    transcoder = MockTranscodeAdapter()
    pairs = []
    for entry in entries:
        payload = (root / entry.relative_audio_path).read_bytes()
        samples, rate = transcoder.decode(payload, "mp3")
        out.audio_s += samples.size / rate
        pairs.append((entry.sentence, payload))
    out.digest = digest(pairs)
    return out


def check_prep_lj(config, summary) -> Outcome:
    root = Path(config.output.root)
    out = Outcome(attempted=summary.clips_in if summary else 0, delivered=0)
    entries = _read(root, read_lj, out)
    out.delivered = len(entries)
    if summary is None or not entries or len(entries) != summary.entries_written:
        out.problems.append(f"{len(entries)} entries read back, run reported "
                            f"{summary.entries_written if summary else None}")
    pairs = []
    for entry in entries:
        payload = (root / entry.relative_audio_path).read_bytes()
        samples, rate = decode_wav_pcm16(payload)
        clip = AudioClip(samples=samples, sample_rate_hz=rate)
        out.audio_s += clip.duration_s
        if not _passes(clip, PACKAGED_RATE_HZ):
            out.problems.append(f"{entry.relative_audio_path} fails validate_clip at 32 kHz")
        pairs.append((entry.sentence, payload))
    if not (root / "training_config.txt").is_file():
        out.problems.append("training_config.txt is missing")
    out.digest = digest(pairs)
    return out


def check_convert_cv(config) -> Outcome:
    conv = config.conversion
    source_root = Path(conv.input_corpus)
    root = Path(config.output.root)
    out = Outcome(attempted=0, delivered=0)
    before = _read(source_root, read_common_voice, out)
    out.attempted = len(before)
    after = _read(root, read_common_voice, out)
    out.delivered = len(after)
    if [e.sentence for e in after] != [e.sentence for e in before] or not before:
        out.problems.append("converted sentences or their order differ from the input corpus")
    transcoder = MockTranscodeAdapter()
    expected_client = client_id_for(conv.model_ref)
    pairs = []
    for old, new in zip(before, after):
        source = (source_root / old.relative_audio_path).read_bytes()
        old_samples, old_rate = transcoder.decode(source, "mp3")
        payload = (root / new.relative_audio_path).read_bytes()
        samples, rate = transcoder.decode(payload, "mp3")
        clip = AudioClip(samples=samples, sample_rate_hz=rate)
        out.audio_s += clip.duration_s
        pairs.append((new.sentence, payload))
        if rate != PACKAGED_RATE_HZ or not _passes(clip, PACKAGED_RATE_HZ):
            out.problems.append(f"{new.relative_audio_path} fails validate_clip at 32 kHz")
        if abs(clip.duration_s - old_samples.size / old_rate) > DURATION_TOLERANCE_S:
            out.problems.append(f"{new.relative_audio_path} changed duration")
        if new.client_id != expected_client:
            out.problems.append(f"{new.relative_audio_path}: client_id is not sha256(model_ref)")
    out.digest = digest(pairs)
    return out
