"""Corpus QA: edit-distance error rates, clip constraints, speaker similarity."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .audio import AudioClip
from .errors import ValidationError

SILENCE_EPS = 1e-4
# Voiced samples less than SPEECH_GAP_S apart belong to one utterance: the mock
# ASR merges speech over shorter silences, and LJ prep cuts its windows only
# inside a silence at least this long, so a cut splits no utterance.
SPEECH_GAP_S = 0.3


class Severity(str, Enum):
    INFO = "info"
    WARN = "warn"
    FAIL = "fail"


@dataclass(frozen=True)
class Issue:
    code: str
    severity: Severity
    message: str


@dataclass(frozen=True)
class ClipConstraints:
    """Acceptable envelope for a corpus clip at `required_rate_hz`.

    The duration bounds track the clip-length findings (1 to 15 s,
    generation targets 10 s); the default rate is the codec-native 24 kHz.
    """

    MIN_DURATION_S = 1.0
    MAX_DURATION_S = 15.0
    MAX_SILENCE_FRACTION = 0.9
    required_rate_hz: int = 24000

    def __post_init__(self) -> None:
        if self.required_rate_hz <= 0:
            raise ValidationError("required_rate_hz must be positive")


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Unit-cost edit distance via the classic two-row dynamic program."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, item_a in enumerate(a, start=1):
        current = [i]
        for j, item_b in enumerate(b, start=1):
            cost = 0 if item_a == item_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def character_error_rate(reference: str, hypothesis: str) -> float:
    """Edit distance over Unicode scalar values, normalized by reference length."""
    if not reference:
        raise ValidationError("reference must be non-empty")
    return levenshtein(reference, hypothesis) / len(reference)


def word_error_rate(reference: str, hypothesis: str) -> float:
    """Edit distance over whitespace tokens, normalized by reference token count."""
    ref_tokens = reference.split()
    if not ref_tokens:
        raise ValidationError("reference must contain at least one token")
    return levenshtein(ref_tokens, hypothesis.split()) / len(ref_tokens)


def silence_fraction(clip: AudioClip) -> float:
    """Share of samples below the 1e-4 amplitude threshold; empty clips count as 1."""
    if clip.is_empty:
        return 1.0
    return float(np.mean(np.abs(clip.samples) < SILENCE_EPS))


def validate_clip(clip: AudioClip, constraints: ClipConstraints) -> list[Issue]:
    """One issue per violated constraint; an empty list means the clip passes."""
    issues: list[Issue] = []
    duration = clip.duration_s
    if duration < constraints.MIN_DURATION_S:
        issues.append(
            Issue(
                code="duration_short",
                severity=Severity.FAIL,
                message=f"duration {duration:.2f} s below minimum {constraints.MIN_DURATION_S} s",
            )
        )
    if duration > constraints.MAX_DURATION_S:
        issues.append(
            Issue(
                code="duration_long",
                severity=Severity.FAIL,
                message=f"duration {duration:.2f} s above maximum {constraints.MAX_DURATION_S} s",
            )
        )
    if clip.sample_rate_hz != constraints.required_rate_hz:
        issues.append(
            Issue(
                code="rate_mismatch",
                severity=Severity.FAIL,
                message=f"rate {clip.sample_rate_hz} Hz, expected {constraints.required_rate_hz} Hz",
            )
        )
    fraction = silence_fraction(clip)
    if fraction > constraints.MAX_SILENCE_FRACTION:
        issues.append(
            Issue(
                code="too_silent",
                severity=Severity.FAIL,
                message=f"silence fraction {fraction:.3f} exceeds "
                f"{constraints.MAX_SILENCE_FRACTION}",
            )
        )
    return issues


def speaker_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two voice embeddings."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(f"embeddings must share one dimension, got {a.shape} and {b.shape}")
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0 or norm_b == 0:
        raise ValidationError("embeddings must have nonzero norm")
    return float(np.clip(np.dot(a, b) / (norm_a * norm_b), -1.0, 1.0))


@dataclass
class QualityReport:
    """Per-clip issues plus corpus-level metrics, serializable next to the dataset."""

    per_clip: dict[str, list[Issue]] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in self.metrics.items():
            if not math.isfinite(value):
                raise ValidationError(f"metric {name!r} must be finite, got {value}")

    def add(self, clip_id: str, issues: list[Issue]) -> None:
        self.per_clip[clip_id] = list(issues)

    def failing_clip_ids(self) -> list[str]:
        return sorted(
            clip_id
            for clip_id, issues in self.per_clip.items()
            if any(issue.severity is Severity.FAIL for issue in issues)
        )

    def to_json(self) -> str:
        doc = {
            "per_clip": {
                clip_id: [
                    {"code": i.code, "severity": i.severity.value, "message": i.message}
                    for i in issues
                ]
                for clip_id, issues in self.per_clip.items()
            },
            "metrics": self.metrics,
        }
        return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")
