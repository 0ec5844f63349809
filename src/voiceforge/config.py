"""Pipeline configuration: YAML loading, schema validation, defaults.

Validation collects every violation (with the YAML line it came from) before
raising one ConfigurationError, so a config file never needs more than one
fix-and-retry round to be fully diagnosed. Unknown keys are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any

import yaml

from .adapters.base import AdapterRole
from .conversion import ConversionParams, TrainingConfig
from .corpus import SplitSpec
from .errors import ConfigurationError, ValidationError
from .ingest import SourceKind, SourceSpec
from .preprocess import SegmentationPolicy, StemModel, TailPolicy
from .synthesis import DEFAULT_RETRIES, GenerationParams
from .transcribe import AsrConfig, AsrTask

_REQUIRED = object()

DEFAULT_ADAPTERS: dict[AdapterRole, str] = {
    AdapterRole.DOWNLOADER: "urllib",
    AdapterRole.DECODER: "wav",
    AdapterRole.DENOISE: "mock",
    AdapterRole.STEMS: "mock",
    AdapterRole.CODEC: "mock",
    AdapterRole.SEMANTIC_ENCODER: "mock",
    AdapterRole.TOKEN_QUANTIZER: "mock",
    AdapterRole.TTS: "mock",
    AdapterRole.VC: "mock",
    AdapterRole.ASR: "mock",
    AdapterRole.DIARIZATION: "mock",
    AdapterRole.SPEAKER_EMBEDDING: "mock",
    AdapterRole.TRANSCODE: "mock",
}


class Methodology(str, Enum):
    BARK_PROMPT = "bark_prompt"
    RVC_CONVERT = "rvc_convert"


class OutputFormat(str, Enum):
    LJ = "lj"
    COMMON_VOICE = "common_voice"


@dataclass(frozen=True)
class PreprocessConfig:
    denoise_strength: float | None = None
    stems: StemModel | None = None
    segmentation: SegmentationPolicy = field(default_factory=SegmentationPolicy)


@dataclass(frozen=True)
class GenerationConfig:
    params: GenerationParams
    sentences: tuple[str, ...] = ()
    retries: int = DEFAULT_RETRIES


@dataclass(frozen=True)
class ConversionConfig:
    params: ConversionParams
    model_ref: str | None = None
    index_ref: str | None = None
    input_corpus: str | None = None


@dataclass(frozen=True)
class OutputConfig:
    format: OutputFormat
    root: str
    split: SplitSpec
    locale: str = "hi"


@dataclass(frozen=True)
class PipelineConfig:
    methodology: Methodology
    source: SourceSpec
    preprocessing: PreprocessConfig
    asr: AsrConfig
    generation: GenerationConfig
    conversion: ConversionConfig
    training: TrainingConfig
    output: OutputConfig
    adapters: dict[AdapterRole, str]
    workers: int = 1


def _line_map(node: yaml.Node | None, prefix: str = "") -> dict[str, int]:
    out: dict[str, int] = {}
    if isinstance(node, yaml.MappingNode):
        for key_node, value_node in node.value:
            key = str(key_node.value)
            path = f"{prefix}.{key}" if prefix else key
            out[path] = key_node.start_mark.line + 1
            out.update(_line_map(value_node, path))
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            path = f"{prefix}[{i}]"
            out[path] = item.start_mark.line + 1
            out.update(_line_map(item, path))
    return out


class _Reader:
    """Accumulates schema violations with their source locations."""

    def __init__(self, lines: dict[str, int]):
        self.lines = lines
        self.violations: list[str] = []

    def _loc(self, path: str) -> str:
        line = self.lines.get(path)
        return f" (line {line})" if line is not None else ""

    def bad(self, path: str, message: str) -> None:
        self.violations.append(f"{path}: {message}{self._loc(path)}")

    def section(self, data: Any, path: str, allowed: tuple[str, ...]) -> dict:
        if data is None:
            return {}
        if not isinstance(data, dict):
            self.bad(path or "<root>", "must be a mapping")
            return {}
        for key in data:
            full = f"{path}.{key}" if path else str(key)
            if key not in allowed:
                self.bad(full, "unknown key")
        return data

    def get(self, mapping: dict, path: str, key: str, kind: str, default: Any = _REQUIRED) -> Any:
        full = f"{path}.{key}" if path else key
        if key not in mapping or mapping[key] is None:
            if default is _REQUIRED:
                self.bad(full, "is required")
                return None
            return default
        value = mapping[key]
        checks = {
            "str": lambda v: isinstance(v, str),
            "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
            "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
            "bool": lambda v: isinstance(v, bool),
            "list": lambda v: isinstance(v, list),
        }
        if not checks[kind](value):
            self.bad(full, f"must be a {kind}, got {type(value).__name__}")
            return None if default is _REQUIRED else default
        return float(value) if kind == "float" else value

    def enum(self, mapping: dict, path: str, key: str, enum_cls, default: Any = _REQUIRED) -> Any:
        raw = self.get(mapping, path, key, "str", default)
        if raw is default or raw is None or isinstance(raw, enum_cls):
            return raw
        try:
            return enum_cls(raw)
        except ValueError:
            allowed = ", ".join(m.value for m in enum_cls)
            self.bad(f"{path}.{key}" if path else key, f"must be one of: {allowed}")
            return None


def _parse_source(r: _Reader, data: Any) -> SourceSpec | None:
    sec = r.section(data, "source", ("uri", "kind", "expected_duration_s"))
    uri = r.get(sec, "source", "uri", "str")
    kind = r.enum(sec, "source", "kind", SourceKind, default=None)
    expected = r.get(sec, "source", "expected_duration_s", "float", default=None)
    if uri is None:
        return None
    if kind is None:
        kind = SourceKind.REMOTE if "://" in uri else SourceKind.LOCAL
    try:
        return SourceSpec(uri=uri, kind=kind, expected_duration_s=expected)
    except ValidationError as exc:
        r.bad("source", str(exc))
        return None


def _parse_preprocessing(r: _Reader, data: Any) -> PreprocessConfig:
    sec = r.section(data, "preprocessing", ("denoise", "stems", "segmentation"))
    strength = r.get(sec, "preprocessing", "denoise", "float", default=None)
    if strength is not None and not 0.0 <= strength <= 1.0:
        r.bad("preprocessing.denoise", f"must be in [0, 1], got {strength}")
        strength = None
    stems = r.enum(sec, "preprocessing", "stems", StemModel, default=None)
    seg_sec = r.section(
        sec.get("segmentation"),
        "preprocessing.segmentation",
        ("target_len_s", "tail", "min_tail_s"),
    )
    target = r.get(seg_sec, "preprocessing.segmentation", "target_len_s", "float", default=10.0)
    tail = r.enum(
        seg_sec, "preprocessing.segmentation", "tail", TailPolicy, default=TailPolicy.DROP_LAST
    )
    min_tail = r.get(seg_sec, "preprocessing.segmentation", "min_tail_s", "float", default=0.0)
    try:
        policy = SegmentationPolicy(
            target_len_s=target if target is not None else 10.0,
            tail=tail if tail is not None else TailPolicy.DROP_LAST,
            min_tail_s=min_tail if min_tail is not None else 0.0,
        )
    except ValidationError as exc:
        r.bad("preprocessing.segmentation", str(exc))
        policy = SegmentationPolicy()
    return PreprocessConfig(denoise_strength=strength, stems=stems, segmentation=policy)


def _parse_asr(r: _Reader, data: Any) -> AsrConfig:
    sec = r.section(data, "asr", ("language", "task"))
    language = r.get(sec, "asr", "language", "str", default="hi")
    task = r.enum(sec, "asr", "task", AsrTask, default=AsrTask.TRANSCRIBE)
    try:
        return AsrConfig(language=language or "hi", task=task or AsrTask.TRANSCRIBE)
    except ValidationError as exc:
        r.bad("asr", str(exc))
        return AsrConfig()


def _parse_generation(r: _Reader, data: Any) -> GenerationConfig:
    sec = r.section(
        data, "generation", ("text_temp", "waveform_temp", "seed", "sentences", "retries")
    )
    text_temp = r.get(sec, "generation", "text_temp", "float", default=0.85)
    waveform_temp = r.get(sec, "generation", "waveform_temp", "float", default=0.7)
    for name, temp in (("text_temp", text_temp), ("waveform_temp", waveform_temp)):
        if temp is not None and not 0.0 < temp <= 2.0:
            r.bad(f"generation.{name}", f"must be in (0, 2], got {temp}")
            if name == "text_temp":
                text_temp = 0.85
            else:
                waveform_temp = 0.7
    seed = r.get(sec, "generation", "seed", "int", default=None)
    retries = r.get(sec, "generation", "retries", "int", default=DEFAULT_RETRIES)
    if retries is not None and retries < 0:
        r.bad("generation.retries", "must be non-negative")
        retries = DEFAULT_RETRIES
    raw_sentences = r.get(sec, "generation", "sentences", "list", default=[])
    sentences: list[str] = []
    for i, item in enumerate(raw_sentences or []):
        if not isinstance(item, str) or not item.strip():
            r.bad(f"generation.sentences[{i}]", "must be a non-empty string")
        elif "\n" in item or "\r" in item:
            r.bad(f"generation.sentences[{i}]", "must not contain newlines")
        else:
            sentences.append(item)
    try:
        params = GenerationParams(
            text_temp=text_temp if text_temp is not None else 0.85,
            waveform_temp=waveform_temp if waveform_temp is not None else 0.7,
            seed=seed,
        )
    except ValidationError as exc:
        r.bad("generation", str(exc))
        params = GenerationParams(text_temp=0.85, waveform_temp=0.7)
    return GenerationConfig(
        params=params,
        sentences=tuple(sentences),
        retries=retries if retries is not None else DEFAULT_RETRIES,
    )


def _parse_conversion(r: _Reader, data: Any) -> ConversionConfig:
    sec = r.section(
        data,
        "conversion",
        (
            "envelope_mix",
            "filter_radius",
            "index_ratio",
            "protect",
            "transpose_semitones",
            "model_ref",
            "index_ref",
            "input_corpus",
        ),
    )
    envelope = r.get(sec, "conversion", "envelope_mix", "float", default=0.25)
    radius = r.get(sec, "conversion", "filter_radius", "int", default=3)
    index_ratio = r.get(sec, "conversion", "index_ratio", "float", default=0.75)
    protect = r.get(sec, "conversion", "protect", "float", default=0.33)
    transpose = r.get(sec, "conversion", "transpose_semitones", "int", default=0)
    model_ref = r.get(sec, "conversion", "model_ref", "str", default=None)
    index_ref = r.get(sec, "conversion", "index_ref", "str", default=None)
    input_corpus = r.get(sec, "conversion", "input_corpus", "str", default=None)
    try:
        params = ConversionParams(
            envelope_mix=envelope if envelope is not None else 0.25,
            filter_radius=radius if radius is not None else 3,
            index_ratio=index_ratio if index_ratio is not None else 0.75,
            protect=protect if protect is not None else 0.33,
            transpose_semitones=transpose if transpose is not None else 0,
        )
    except ValidationError as exc:
        r.bad("conversion", str(exc))
        params = ConversionParams(0.25, 3, 0.75, 0.33, 0)
    return ConversionConfig(
        params=params, model_ref=model_ref, index_ref=index_ref, input_corpus=input_corpus
    )


def _parse_training(r: _Reader, data: Any) -> TrainingConfig:
    sec = r.section(
        data,
        "training",
        (
            "target_sample_rate_hz",
            "batch_size",
            "epochs",
            "pretrained_gen",
            "pretrained_disc",
            "pitch_guided",
        ),
    )
    rate = r.get(sec, "training", "target_sample_rate_hz", "int", default=32000)
    batch = r.get(sec, "training", "batch_size", "int", default=40)
    epochs = r.get(sec, "training", "epochs", "int", default=200)
    gen = r.get(sec, "training", "pretrained_gen", "str", default="f0G32k")
    disc = r.get(sec, "training", "pretrained_disc", "str", default="f0D32k")
    pitch = r.get(sec, "training", "pitch_guided", "bool", default=True)
    try:
        return TrainingConfig(
            target_sample_rate_hz=rate if rate is not None else 32000,
            batch_size=batch if batch is not None else 40,
            epochs=epochs if epochs is not None else 200,
            pretrained_gen=gen or "f0G32k",
            pretrained_disc=disc or "f0D32k",
            pitch_guided=pitch if pitch is not None else True,
        )
    except ValidationError as exc:
        r.bad("training", str(exc))
        return TrainingConfig(32000, 40, 200, "f0G32k", "f0D32k", True)


def _parse_output(r: _Reader, data: Any, methodology: Methodology | None) -> OutputConfig | None:
    sec = r.section(data, "output", ("format", "root", "split", "locale"))
    default_format = (
        OutputFormat.LJ if methodology is Methodology.RVC_CONVERT else OutputFormat.COMMON_VOICE
    )
    fmt = r.enum(sec, "output", "format", OutputFormat, default=default_format)
    root = r.get(sec, "output", "root", "str")
    locale = r.get(sec, "output", "locale", "str", default="hi")
    split_sec = r.section(sec.get("split"), "output.split", ("valid_fraction", "seed"))
    fraction = r.get(split_sec, "output.split", "valid_fraction", "float", default=0.1)
    seed = r.get(split_sec, "output.split", "seed", "int", default=0)
    try:
        split = SplitSpec(
            valid_fraction=fraction if fraction is not None else 0.1,
            seed=seed if seed is not None else 0,
        )
    except ValidationError as exc:
        r.bad("output.split", str(exc))
        split = SplitSpec(valid_fraction=0.1, seed=0)
    if root is None:
        return None
    return OutputConfig(
        format=fmt or default_format, root=root, split=split, locale=locale or "hi"
    )


def _parse_adapters(r: _Reader, data: Any) -> dict[AdapterRole, str]:
    adapters = dict(DEFAULT_ADAPTERS)
    role_names = tuple(role.value for role in AdapterRole)
    sec = r.section(data, "adapters", role_names)
    for key, value in sec.items():
        if key not in role_names:
            continue  # already reported as unknown
        if not isinstance(value, str) or not value:
            r.bad(f"adapters.{key}", "must be a non-empty adapter id")
            continue
        adapters[AdapterRole(key)] = value
    return adapters


def _cross_checks(r: _Reader, methodology, generation, conversion, output) -> None:
    if methodology is Methodology.BARK_PROMPT and not generation.sentences:
        r.bad("generation.sentences", "bark_prompt needs at least one sentence to synthesize")
    refs = (conversion.model_ref, conversion.index_ref)
    if any(refs) and not all(refs):
        r.bad("conversion", "model_ref and index_ref must be supplied together")
    if all(refs) and not conversion.input_corpus:
        r.bad("conversion.input_corpus", "required when a trained model is configured")
    if output is not None:
        for i, sentence in enumerate(generation.sentences):
            if output.format is OutputFormat.LJ and "|" in sentence:
                r.bad(f"generation.sentences[{i}]", "LJ output cannot contain '|'")
            if output.format is OutputFormat.COMMON_VOICE and "\t" in sentence:
                r.bad(f"generation.sentences[{i}]", "Common Voice output cannot contain tabs")


def parse_config(data: Any, lines: dict[str, int] | None = None) -> PipelineConfig:
    """Validate a parsed YAML document into a PipelineConfig."""
    r = _Reader(lines or {})
    root = r.section(
        data,
        "",
        (
            "methodology",
            "source",
            "preprocessing",
            "asr",
            "generation",
            "conversion",
            "training",
            "output",
            "adapters",
            "workers",
        ),
    )
    if not isinstance(data, dict):
        raise ConfigurationError("configuration must be a mapping", violations=r.violations)

    methodology = r.enum(root, "", "methodology", Methodology)
    source = _parse_source(r, root.get("source"))
    preprocessing = _parse_preprocessing(r, root.get("preprocessing"))
    asr = _parse_asr(r, root.get("asr"))
    generation = _parse_generation(r, root.get("generation"))
    conversion = _parse_conversion(r, root.get("conversion"))
    training = _parse_training(r, root.get("training"))
    output = _parse_output(r, root.get("output"), methodology)
    adapters = _parse_adapters(r, root.get("adapters"))
    workers = r.get(root, "", "workers", "int", default=1)
    if workers is not None and workers < 1:
        r.bad("workers", "must be >= 1")
        workers = 1

    if methodology is not None:
        _cross_checks(r, methodology, generation, conversion, output)

    if r.violations:
        raise ConfigurationError("invalid configuration", violations=r.violations)
    assert methodology is not None and source is not None and output is not None
    return PipelineConfig(
        methodology=methodology,
        source=source,
        preprocessing=preprocessing,
        asr=asr,
        generation=generation,
        conversion=conversion,
        training=training,
        output=output,
        adapters=adapters,
        workers=workers if workers is not None else 1,
    )


def load_config(path: str | Path) -> PipelineConfig:
    """Read and validate a YAML config file; all violations reported at once."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file {path} does not exist")
    text = path.read_text(encoding="utf-8")
    try:
        data = yaml.safe_load(text)
        node = yaml.compose(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config file {path} is not valid YAML: {exc}") from exc
    return parse_config(data, _line_map(node))
