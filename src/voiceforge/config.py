"""Pipeline configuration: YAML loading, schema validation, defaults.

Validation collects every violation (with the YAML line it came from) before
raising one ConfigurationError, so a config file never needs more than one
fix-and-retry round to be fully diagnosed. Unknown keys are rejected.

`_SCHEMA` states each key once: its type or Enum class, its default and an
optional range check. A missing or null value reads as the default, and so
does a bad one once it is reported. Defaults that a domain module already
states are taken from that module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable

import yaml

from .adapters.base import AdapterRole
from .conversion import (
    ConversionParams,
    TrainingConfig,
    default_conversion_params,
    default_training_config,
)
from .corpus import SplitSpec
from .errors import ConfigurationError, ValidationError
from .ingest import SourceKind, SourceSpec
from .preprocess import SegmentationPolicy, StemModel, TailPolicy
from .synthesis import DEFAULT_RETRIES, GenerationParams, default_generation_params
from .transcribe import AsrConfig, AsrTask

# Every role defaults to its offline mock, except fetching and decoding real media.
DEFAULT_ADAPTERS: dict[AdapterRole, str] = {
    **{role: "mock" for role in AdapterRole},
    AdapterRole.DOWNLOADER: "urllib",
    AdapterRole.DECODER: "wav",
}


class Methodology(str, Enum):
    BARK_PROMPT = "bark_prompt"
    RVC_CONVERT = "rvc_convert"


class OutputFormat(str, Enum):
    LJ = "lj"
    COMMON_VOICE = "common_voice"


@dataclass(frozen=True)
class PreprocessConfig:
    denoise_strength: float | None
    stems: StemModel | None
    segmentation: SegmentationPolicy


@dataclass(frozen=True)
class GenerationConfig:
    params: GenerationParams
    sentences: tuple[str, ...]
    retries: int


@dataclass(frozen=True)
class ConversionConfig:
    params: ConversionParams
    model_ref: str | None
    index_ref: str | None
    input_corpus: str | None


@dataclass(frozen=True)
class OutputConfig:
    format: OutputFormat
    root: str
    split: SplitSpec
    locale: str


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


_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    """One schema row: the value's type or Enum class, its default and an optional check.

    `check` returns None for a good value, else the violation message.
    """

    kind: type
    default: Any = _REQUIRED
    check: Callable[[Any], str | None] | None = None


def _unit_interval(value: float) -> str | None:
    return None if 0.0 <= value <= 1.0 else f"must be in [0, 1], got {value}"


def _temperature(value: float) -> str | None:
    return None if 0.0 < value <= 2.0 else f"must be in (0, 2], got {value}"


def _non_negative(value: int) -> str | None:
    return None if value >= 0 else "must be non-negative"


def _non_empty(value: str) -> str | None:
    return None if value else "must be non-empty"


_GENERATION = default_generation_params()
_CONVERSION = default_conversion_params()
_TRAINING = default_training_config()
_SEGMENTATION = SegmentationPolicy()
_ASR = AsrConfig()

# Every section of the YAML document except `adapters`; a nested dict is a
# subsection. A row's position sets the order its violations are reported in.
_SCHEMA: dict[str, Any] = {
    "methodology": _Key(Methodology),
    "source": {"uri": _Key(str), "kind": _Key(SourceKind, None)},
    "preprocessing": {
        "denoise": _Key(float, None, _unit_interval),
        "stems": _Key(StemModel, None),
        "segmentation": {
            "target_len_s": _Key(float, _SEGMENTATION.target_len_s),
            "tail": _Key(TailPolicy, _SEGMENTATION.tail),
            "min_tail_s": _Key(float, _SEGMENTATION.min_tail_s),
        },
    },
    "asr": {
        "language": _Key(str, _ASR.language, _non_empty),
        "task": _Key(AsrTask, _ASR.task),
    },
    "generation": {
        "text_temp": _Key(float, _GENERATION.text_temp, _temperature),
        "waveform_temp": _Key(float, _GENERATION.waveform_temp, _temperature),
        "seed": _Key(int, _GENERATION.seed),
        "retries": _Key(int, DEFAULT_RETRIES, _non_negative),
        "sentences": _Key(list, ()),
    },
    "conversion": {
        "envelope_mix": _Key(float, _CONVERSION.envelope_mix),
        "filter_radius": _Key(int, _CONVERSION.filter_radius),
        "index_ratio": _Key(float, _CONVERSION.index_ratio),
        "protect": _Key(float, _CONVERSION.protect),
        "transpose_semitones": _Key(int, _CONVERSION.transpose_semitones),
        "model_ref": _Key(str, None, _non_empty),
        "index_ref": _Key(str, None, _non_empty),
        "input_corpus": _Key(str, None, _non_empty),
    },
    "training": {
        "target_sample_rate_hz": _Key(int, _TRAINING.target_sample_rate_hz),
        "batch_size": _Key(int, _TRAINING.batch_size),
        "epochs": _Key(int, _TRAINING.epochs),
        "pretrained_gen": _Key(str, _TRAINING.pretrained_gen, _non_empty),
        "pretrained_disc": _Key(str, _TRAINING.pretrained_disc, _non_empty),
        "pitch_guided": _Key(bool, _TRAINING.pitch_guided),
    },
    "output": {
        "format": _Key(OutputFormat, None),  # the default depends on the methodology
        "root": _Key(str, check=_non_empty),
        "locale": _Key(str, "hi", _non_empty),
        "split": {"valid_fraction": _Key(float, 0.1), "seed": _Key(int, 0)},
    },
}


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
        return "" if line is None else f" (line {line})"

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

    def read(self, data: Any, path: str, schema: dict[str, Any]) -> dict[str, Any]:
        """The value of every key of `schema` in the mapping `data`, by key."""
        mapping = self.section(data, path, tuple(schema))
        values: dict[str, Any] = {}
        for key, spec in schema.items():
            full = f"{path}.{key}" if path else key
            if isinstance(spec, dict):
                values[key] = self.read(mapping.get(key), full, spec)
            else:
                values[key] = self.value(mapping.get(key), full, spec)
        return values

    def value(self, value: Any, path: str, spec: _Key) -> Any:
        """`value` checked against `spec`; a missing or bad value reads as the default."""
        fallback = None if spec.default is _REQUIRED else spec.default
        if value is None:
            if spec.default is _REQUIRED:
                self.bad(path, "is required")
            return fallback
        is_enum = issubclass(spec.kind, Enum)
        kind = str if is_enum else spec.kind
        accepted = (int, float) if kind is float else kind
        if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
            self.bad(path, f"must be a {kind.__name__}, got {type(value).__name__}")
            return fallback
        if is_enum:
            try:
                return spec.kind(value)
            except ValueError:
                allowed = ", ".join(member.value for member in spec.kind)
                self.bad(path, f"must be one of: {allowed}")
                return fallback
        if kind is float:
            value = float(value)
        problem = spec.check(value) if spec.check else None
        if problem is not None:
            self.bad(path, problem)
            return fallback
        return value

    def build(self, path: str, cls: type, **values: Any) -> Any:
        """`cls(**values)`, or None after reporting the domain's own check at `path`.

        A None never reaches a caller of parse_config: the violation makes it raise.
        """
        try:
            return cls(**values)
        except ValidationError as exc:
            self.bad(path, str(exc))
            return None


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


def _folded(sentence: str) -> str:
    """`sentence` in NFC, each run of whitespace one space and none at either end."""
    import unicodedata  # its tables cost about 0.2 MB: only a config with sentences loads them

    return unicodedata.normalize("NFC", " ".join(sentence.split()))


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
    root = r.section(data, "", (*_SCHEMA, "adapters"))
    if not isinstance(data, dict):
        raise ConfigurationError("configuration must be a mapping", violations=r.violations)

    def read(name: str) -> dict[str, Any]:
        return r.read(root.get(name), name, _SCHEMA[name])

    methodology = r.value(root.get("methodology"), "methodology", _SCHEMA["methodology"])

    src = read("source")
    source = None
    if src["uri"] is not None:
        inferred = SourceKind.REMOTE if "://" in src["uri"] else SourceKind.LOCAL
        source = r.build("source", SourceSpec, uri=src["uri"], kind=src["kind"] or inferred)

    pre = read("preprocessing")
    preprocessing = PreprocessConfig(
        denoise_strength=pre["denoise"],
        stems=pre["stems"],
        segmentation=r.build(
            "preprocessing.segmentation", SegmentationPolicy, **pre["segmentation"]
        ),
    )
    asr = r.build("asr", AsrConfig, **read("asr"))

    gen = read("generation")
    sentences: list[str] = []
    first: dict[str, int] = {}  # folded sentence -> index of its first entry
    for i, item in enumerate(gen.pop("sentences")):
        if not isinstance(item, str) or not item.strip():
            r.bad(f"generation.sentences[{i}]", "must be a non-empty string")
        elif "\n" in item or "\r" in item:
            r.bad(f"generation.sentences[{i}]", "must not contain newlines")
        elif any("\ud800" <= ch <= "\udfff" for ch in item):  # a surrogate has no UTF-8 form
            r.bad(f"generation.sentences[{i}]", "must be valid Unicode text")
        elif (j := first.setdefault(_folded(item), i)) != i:
            # it would synthesize to the same clip, which the split can put on both sides
            r.bad(f"generation.sentences[{i}]", f"repeats generation.sentences[{j}]")
        else:
            sentences.append(item)
    retries = gen.pop("retries")
    generation = GenerationConfig(
        params=r.build("generation", GenerationParams, **gen),
        sentences=tuple(sentences),
        retries=retries,
    )

    conv = read("conversion")
    refs = {key: conv.pop(key) for key in ("model_ref", "index_ref", "input_corpus")}
    conversion = ConversionConfig(params=r.build("conversion", ConversionParams, **conv), **refs)
    training = r.build("training", TrainingConfig, **read("training"))

    out = read("output")
    split = r.build("output.split", SplitSpec, **out.pop("split"))
    output = None
    if out["root"] is not None:
        default_format = (
            OutputFormat.LJ if methodology is Methodology.RVC_CONVERT else OutputFormat.COMMON_VOICE
        )
        output = OutputConfig(
            format=out["format"] or default_format,
            root=out["root"],
            split=split,
            locale=out["locale"],
        )
    adapters = _parse_adapters(r, root.get("adapters"))

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
