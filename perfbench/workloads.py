"""The benchmark's three workloads: inputs generated from a seed, plus configs.

Only the standard library is used here, so the orchestrating process never
imports voiceforge or numpy. Every input property that sets how much work a
run does (source length, clip lengths, sentence lengths, item counts) is a
fixed multiset; the seed only shuffles it and picks the words and waveforms,
so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("clone_cv", "prep_lj", "convert_cv")

# Devanagari vocabulary for the generated sentences.
HINDI_WORDS = (
    "आज", "कल", "हम", "तुम", "वह", "यह", "घर", "बाजार", "पानी", "किताब", "संगीत",
    "मौसम", "बहुत", "अच्छा", "सुहावना", "बच्चे", "बगीचे", "में", "खेल", "रहे", "हैं",
    "है", "था", "जाएंगे", "सुबह", "शाम", "की", "सैर", "सेहत", "के", "लिए", "ज्ञान",
    "का", "भंडार", "देश", "विशाल", "नदी", "पहाड़", "शहर", "गांव", "रेलगाड़ी", "समय",
    "पर", "आई", "लोग", "काम", "करते", "मुझे", "पसंद", "सुनना", "पढ़ना", "लिखना",
    "दोस्त", "परिवार", "खाना", "स्वादिष्ट", "रंग", "नीला", "आसमान", "सूरज",
)

# TTS clip lengths run from about 1.2 s to 13.8 s: the mock TTS speaks
# 0.055 s per character on top of a 1 s floor.
CLONE_CHARS = (4, 233)
CONVERT_CLIP_S = (2.0, 12.0)
CONVERT_RATE_HZ = 24000
MODEL_REF = "target_voice.pth"
INDEX_REF = "target_voice.index"


@dataclass(frozen=True)
class Size:
    """How big a workload is; `full()` is what the benchmark measures."""

    source_s: float
    items: int

    @staticmethod
    def full(name: str) -> "Size":
        return {
            "clone_cv": Size(source_s=600.0, items=200),
            "prep_lj": Size(source_s=900.0, items=0),
            "convert_cv": Size(source_s=0.0, items=200),
        }[name]


def _spread(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _unique_sentences(rng: random.Random, lengths: list[int]) -> list[str]:
    """One sentence per target length (in characters), all distinct."""
    seen: set[str] = set()
    out: list[str] = []
    for length in lengths:
        while True:
            words: list[str] = []
            while len(" ".join(words)) < length:
                words.append(rng.choice(HINDI_WORDS))
            text = " ".join(words)[:length]
            if text.endswith(" "):
                text = text[:-1] + "।"  # keep the exact length without a trailing space
            if text not in seen:
                break
        seen.add(text)
        out.append(text)
    return out


def clone_sentences(seed: int, n: int) -> list[str]:
    lengths = [round(x) for x in _spread(*CLONE_CHARS, n)]
    rng = random.Random(seed)
    rng.shuffle(lengths)
    return _unique_sentences(rng, lengths)


def convert_clips(seed: int, n: int) -> list[dict]:
    """Input corpus plan: clip id, sentence, duration and waveform seed per clip."""
    durations = _spread(*CONVERT_CLIP_S, n)
    rng = random.Random(seed)
    rng.shuffle(durations)
    sentences = _unique_sentences(rng, [rng.randint(12, 60) for _ in range(n)])
    return [
        {
            "clip_id": f"cv_{seed}_{i:06d}",
            "sentence": sentence,
            "duration_s": duration,
            "wave_seed": rng.randrange(2**31),
        }
        for i, (sentence, duration) in enumerate(zip(sentences, durations))
    ]


def config_for(name: str, seed: int, size: Size, root: Path, corpus: Path | None) -> dict:
    """The workload's pipeline config, as the mapping its YAML file holds."""
    adapters = {"downloader": "mock", "decoder": "mock"}
    split = {"valid_fraction": 0.1, "seed": seed}
    if name == "clone_cv":
        return {
            "methodology": "bark_prompt",
            "source": {"uri": f"mock://clone_cv?duration={size.source_s:g}&rate=24000&seed={seed}"},
            "generation": {"seed": seed, "sentences": clone_sentences(seed, size.items)},
            "output": {"root": str(root), "format": "common_voice", "split": split},
            "adapters": adapters,
        }
    if name == "prep_lj":
        return {
            "methodology": "rvc_convert",
            "source": {"uri": f"mock://prep_lj?duration={size.source_s:g}&rate=44100&seed={seed}"},
            "training": {"target_sample_rate_hz": 32000},
            "output": {"root": str(root), "format": "lj", "split": split},
            "adapters": adapters,
        }
    if name == "convert_cv":
        # output.format is left at the rvc_convert default (lj) on purpose,
        # as demos/04_voice_conversion.py does; see README.md, known defects.
        return {
            "methodology": "rvc_convert",
            "source": {"uri": "mock://unused?duration=1"},
            "conversion": {
                "model_ref": MODEL_REF,
                "index_ref": INDEX_REF,
                "input_corpus": str(corpus),
            },
            "output": {"root": str(root), "split": split},
            "adapters": adapters,
        }
    raise ValueError(f"unknown workload {name!r}")


def write_config(path: Path, config: dict) -> None:
    """Write a config as YAML; JSON is a subset of YAML, so json.dumps suffices."""
    path.write_text(json.dumps(config, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")
