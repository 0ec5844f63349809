from __future__ import annotations

import textwrap

import pytest

from voiceforge.adapters.base import AdapterRole
from voiceforge.config import (
    DEFAULT_ADAPTERS,
    Methodology,
    OutputFormat,
    load_config,
    parse_config,
)
from voiceforge.conversion import default_conversion_params, default_training_config
from voiceforge.errors import ConfigurationError
from voiceforge.ingest import SourceKind
from voiceforge.preprocess import SegmentationPolicy, TailPolicy
from voiceforge.synthesis import default_generation_params
from voiceforge.transcribe import AsrConfig, AsrTask


def _minimal_m1(**overrides) -> dict:
    data = {
        "methodology": "bark_prompt",
        "source": {"uri": "mock://talk?duration=30"},
        "generation": {"sentences": ["एक वाक्य।"]},
        "output": {"root": "out"},
    }
    data.update(overrides)
    return data


def _minimal_m2(**overrides) -> dict:
    data = {
        "methodology": "rvc_convert",
        "source": {"uri": "/media/lecture.mp4"},
        "output": {"root": "out"},
    }
    data.update(overrides)
    return data


class TestDefaults:
    def test_minimal_bark_config_fills_published_defaults(self):
        config = parse_config(_minimal_m1())
        assert config.methodology is Methodology.BARK_PROMPT
        assert config.generation.params.text_temp == 0.85
        assert config.generation.params.waveform_temp == 0.7
        assert config.generation.retries == 2
        assert config.conversion.params.envelope_mix == 0.25
        assert config.conversion.params.filter_radius == 3
        assert config.conversion.params.index_ratio == 0.75
        assert config.conversion.params.protect == 0.33
        assert config.training.target_sample_rate_hz == 32000
        assert config.training.batch_size == 40
        assert config.training.epochs == 200
        assert config.asr.language == "hi"
        assert config.asr.task is AsrTask.TRANSCRIBE
        assert config.output.split.valid_fraction == 0.1
        assert config.output.split.seed == 0
        assert config.output.locale == "hi"
        assert config.preprocessing.segmentation.target_len_s == 10.0
        assert config.preprocessing.segmentation.tail is TailPolicy.DROP_LAST
        assert config.preprocessing.denoise_strength is None
        assert config.preprocessing.stems is None

    def test_bark_defaults_to_common_voice_output(self):
        assert parse_config(_minimal_m1()).output.format is OutputFormat.COMMON_VOICE

    def test_rvc_defaults_to_lj_output(self):
        assert parse_config(_minimal_m2()).output.format is OutputFormat.LJ

    def test_default_adapters_cover_every_role(self):
        config = parse_config(_minimal_m1())
        assert config.adapters == DEFAULT_ADAPTERS
        assert set(config.adapters) == set(AdapterRole)

    def test_source_kind_inferred_from_uri(self):
        assert parse_config(_minimal_m1()).source.kind is SourceKind.REMOTE
        assert parse_config(_minimal_m2()).source.kind is SourceKind.LOCAL


class TestOverrides:
    def test_explicit_values_survive(self):
        config = parse_config(
            _minimal_m1(
                generation={
                    "sentences": ["क", "ख"],
                    "text_temp": 1.2,
                    "waveform_temp": 0.5,
                    "seed": 7,
                    "retries": 0,
                },
                adapters={"tts": "mock", "decoder": "mock"},
                preprocessing={
                    "denoise": 0.3,
                    "stems": "two_stems",
                    "segmentation": {"target_len_s": 8.0, "tail": "keep_last", "min_tail_s": 2.0},
                },
            )
        )
        assert config.generation.params.seed == 7
        assert config.generation.retries == 0
        assert config.generation.sentences == ("क", "ख")
        assert config.adapters[AdapterRole.DECODER] == "mock"
        assert config.adapters[AdapterRole.DOWNLOADER] == "urllib"
        assert config.preprocessing.denoise_strength == 0.3
        assert config.preprocessing.segmentation.tail is TailPolicy.KEEP_LAST
        assert config.preprocessing.segmentation.min_tail_s == 2.0

    def test_conversion_model_triple(self):
        config = parse_config(
            _minimal_m2(
                conversion={
                    "model_ref": "voice.pth",
                    "index_ref": "voice.index",
                    "input_corpus": "corpus_dir",
                }
            )
        )
        assert config.conversion.model_ref == "voice.pth"
        assert config.conversion.index_ref == "voice.index"
        assert config.conversion.input_corpus == "corpus_dir"


class TestViolations:
    def test_all_violations_reported_at_once(self):
        bad = _minimal_m1(
            generation={"sentences": ["ठीक"], "text_temp": -1, "retries": -1},
            training={"batch_size": 0},
        )
        with pytest.raises(ConfigurationError) as excinfo:
            parse_config(bad)
        text = str(excinfo.value)
        assert "generation.retries" in text
        assert "generation.text_temp" in text
        assert "training" in text
        assert len(excinfo.value.violations) == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_config(_minimal_m1(sped=3))

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"workers": 2}, "workers"),
            (
                {"source": {"uri": "talk.wav", "expected_duration_s": 60}},
                "source.expected_duration_s",
            ),
        ],
    )
    def test_deleted_keys_are_unknown(self, overrides, path):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_config(_minimal_m1(**overrides))
        assert excinfo.value.violations == [f"{path}: unknown key"]

    @pytest.mark.parametrize(
        "section, key",
        [
            ("asr", "language"),
            ("training", "pretrained_gen"),
            ("training", "pretrained_disc"),
            ("output", "locale"),
            ("output", "root"),
            ("conversion", "model_ref"),
            ("conversion", "index_ref"),
            ("conversion", "input_corpus"),
        ],
    )
    def test_empty_string_is_rejected(self, section, key):
        data = _minimal_m1()
        data[section] = {**data.get(section, {}), key: ""}
        with pytest.raises(ConfigurationError) as excinfo:
            parse_config(data)
        assert excinfo.value.violations == [f"{section}.{key}: must be non-empty"]

    def test_unknown_nested_key_names_full_path(self):
        with pytest.raises(ConfigurationError, match="output.splat"):
            parse_config(_minimal_m2(output={"root": "out", "splat": {}}))

    def test_bad_enum_lists_choices(self):
        with pytest.raises(ConfigurationError, match="bark_prompt, rvc_convert"):
            parse_config(_minimal_m1(methodology="diffusion"))

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigurationError, match="training.epochs"):
            parse_config(_minimal_m1(training={"epochs": True}))

    def test_missing_methodology(self):
        data = _minimal_m1()
        del data["methodology"]
        with pytest.raises(ConfigurationError, match="methodology: is required"):
            parse_config(data)

    def test_missing_output_root(self):
        with pytest.raises(ConfigurationError, match="output.root"):
            parse_config(_minimal_m1(output={}))

    def test_non_mapping_document(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            parse_config(["not", "a", "mapping"])

    def test_bark_without_sentences(self):
        data = _minimal_m1()
        data["generation"] = {}
        with pytest.raises(ConfigurationError, match="at least one sentence"):
            parse_config(data)

    def test_model_ref_without_index_ref(self):
        with pytest.raises(ConfigurationError, match="together"):
            parse_config(_minimal_m2(conversion={"model_ref": "m.pth"}))

    def test_model_without_input_corpus(self):
        with pytest.raises(ConfigurationError, match="input_corpus"):
            parse_config(
                _minimal_m2(conversion={"model_ref": "m.pth", "index_ref": "m.index"})
            )

    def test_lj_sentences_cannot_contain_pipe(self):
        data = _minimal_m2(generation={"sentences": ["with | pipe"]})
        with pytest.raises(ConfigurationError, match="'\\|'"):
            parse_config(data)

    def test_cv_sentences_cannot_contain_tab(self):
        data = _minimal_m1()
        data["generation"] = {"sentences": ["with\ttab"]}
        with pytest.raises(ConfigurationError, match="tabs"):
            parse_config(data)

    def test_split_fraction_bounds(self):
        data = _minimal_m1(output={"root": "out", "split": {"valid_fraction": 1.5}})
        with pytest.raises(ConfigurationError, match="output.split"):
            parse_config(data)


class TestLoadConfig:
    def test_yaml_file_round_trip(self, tmp_path):
        path = tmp_path / "pipeline.yaml"
        path.write_text(
            textwrap.dedent(
                """\
                methodology: bark_prompt
                source:
                  uri: "mock://talk?duration=30"
                generation:
                  sentences:
                    - "पहला वाक्य।"
                output:
                  root: out
                """
            ),
            encoding="utf-8",
        )
        config = load_config(path)
        assert config.methodology is Methodology.BARK_PROMPT
        assert config.generation.sentences == ("पहला वाक्य।",)

    def test_violations_carry_line_numbers(self, tmp_path):
        path = tmp_path / "pipeline.yaml"
        path.write_text(
            textwrap.dedent(
                """\
                methodology: bark_prompt
                source:
                  uri: "mock://talk"
                generation:
                  text_temp: -1
                  sentences: ["ठीक"]
                output:
                  root: out
                """
            ),
            encoding="utf-8",
        )
        with pytest.raises(ConfigurationError, match=r"generation.text_temp.*\(line 5\)"):
            load_config(path)

    def test_a_repeated_sentence_names_its_line(self, tmp_path):
        path = tmp_path / "pipeline.yaml"
        # entry 3 is entry 1 decomposed (NFD) and spaced otherwise; case is kept, so entry 5
        # is new; indices count the bad entry 0 too
        path.write_text(
            textwrap.dedent(
                """\
                methodology: bark_prompt
                source:
                  uri: "mock://talk"
                generation:
                  sentences:
                    - " "
                    - "caf\\u00e9 au lait"
                    - "the menu"
                    - " cafe\\u0301 \\u00a0au  lait "
                    - "the menu"
                    - "The menu"
                output:
                  root: out
                """
            ),
            encoding="utf-8",
        )
        with pytest.raises(ConfigurationError) as info:
            load_config(path)
        assert info.value.violations == [
            "generation.sentences[0]: must be a non-empty string (line 6)",
            "generation.sentences[3]: repeats generation.sentences[1] (line 9)",
            "generation.sentences[4]: repeats generation.sentences[2] (line 10)",
        ]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            load_config(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("methodology: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid YAML"):
            load_config(path)


# The config contract, pinned: every leaf key of the schema with a value of the
# wrong type, and every range, enum and required-key check, each through
# load_config on a file whose keys sit on known lines.
FULL_YAML = """\
methodology: bark_prompt
source:
  uri: "mock://talk?duration=30"
  kind: remote
preprocessing:
  denoise: 0.5
  stems: two_stems
  segmentation:
    target_len_s: 10.0
    tail: keep_last
    min_tail_s: 2.0
asr:
  language: hi
  task: transcribe
generation:
  text_temp: 0.85
  waveform_temp: 0.7
  seed: 7
  retries: 2
  sentences: ["एक वाक्य।"]
conversion:
  envelope_mix: 0.25
  filter_radius: 3
  index_ratio: 0.75
  protect: 0.33
  transpose_semitones: 0
  model_ref: voice.pth
  index_ref: voice.index
  input_corpus: corpus
training:
  target_sample_rate_hz: 32000
  batch_size: 40
  epochs: 200
  pretrained_gen: f0G32k
  pretrained_disc: f0D32k
  pitch_guided: true
output:
  format: common_voice
  root: out
  locale: hi
  split:
    valid_fraction: 0.1
    seed: 0
adapters:
  downloader: urllib
  decoder: wav
  denoise: mock
  stems: mock
  codec: mock
  semantic_encoder: mock
  token_quantizer: mock
  tts: mock
  vc: mock
  asr: mock
  diarization: mock
  speaker_embedding: mock
  transcode: mock
"""

WRONG_TYPE = [
    ("methodology", "5", ["methodology: must be a str, got int (line 1)"]),
    ("source.uri", "5", ["source.uri: must be a str, got int (line 3)"]),
    ("source.kind", "5", ["source.kind: must be a str, got int (line 4)"]),
    ("preprocessing.denoise", '"x"', ["preprocessing.denoise: must be a float, got str (line 6)"]),
    ("preprocessing.stems", "5", ["preprocessing.stems: must be a str, got int (line 7)"]),
    (
        "preprocessing.segmentation.target_len_s",
        '"x"',
        ["preprocessing.segmentation.target_len_s: must be a float, got str (line 9)"],
    ),
    (
        "preprocessing.segmentation.tail",
        "5",
        ["preprocessing.segmentation.tail: must be a str, got int (line 10)"],
    ),
    (
        "preprocessing.segmentation.min_tail_s",
        '"x"',
        ["preprocessing.segmentation.min_tail_s: must be a float, got str (line 11)"],
    ),
    ("asr.language", "5", ["asr.language: must be a str, got int (line 13)"]),
    ("asr.task", "5", ["asr.task: must be a str, got int (line 14)"]),
    ("generation.text_temp", '"x"', ["generation.text_temp: must be a float, got str (line 16)"]),
    (
        "generation.waveform_temp",
        '"x"',
        ["generation.waveform_temp: must be a float, got str (line 17)"],
    ),
    ("generation.seed", '"x"', ["generation.seed: must be a int, got str (line 18)"]),
    ("generation.seed", "1.5", ["generation.seed: must be a int, got float (line 18)"]),
    ("generation.retries", '"x"', ["generation.retries: must be a int, got str (line 19)"]),
    (
        "generation.sentences",
        '"x"',
        [
            "generation.sentences: must be a list, got str (line 20)",
            "generation.sentences: bark_prompt needs at least one sentence to synthesize"
            " (line 20)",
        ],
    ),
    (
        "conversion.envelope_mix",
        '"x"',
        ["conversion.envelope_mix: must be a float, got str (line 22)"],
    ),
    (
        "conversion.filter_radius",
        '"x"',
        ["conversion.filter_radius: must be a int, got str (line 23)"],
    ),
    (
        "conversion.index_ratio",
        '"x"',
        ["conversion.index_ratio: must be a float, got str (line 24)"],
    ),
    ("conversion.protect", '"x"', ["conversion.protect: must be a float, got str (line 25)"]),
    (
        "conversion.transpose_semitones",
        '"x"',
        ["conversion.transpose_semitones: must be a int, got str (line 26)"],
    ),
    (
        "conversion.model_ref",
        "5",
        [
            "conversion.model_ref: must be a str, got int (line 27)",
            "conversion: model_ref and index_ref must be supplied together (line 21)",
        ],
    ),
    (
        "conversion.index_ref",
        "5",
        [
            "conversion.index_ref: must be a str, got int (line 28)",
            "conversion: model_ref and index_ref must be supplied together (line 21)",
        ],
    ),
    (
        "conversion.input_corpus",
        "5",
        [
            "conversion.input_corpus: must be a str, got int (line 29)",
            "conversion.input_corpus: required when a trained model is configured (line 29)",
        ],
    ),
    (
        "training.target_sample_rate_hz",
        '"x"',
        ["training.target_sample_rate_hz: must be a int, got str (line 31)"],
    ),
    ("training.batch_size", '"x"', ["training.batch_size: must be a int, got str (line 32)"]),
    ("training.epochs", '"x"', ["training.epochs: must be a int, got str (line 33)"]),
    ("training.epochs", "true", ["training.epochs: must be a int, got bool (line 33)"]),
    (
        "training.pretrained_gen",
        "5",
        ["training.pretrained_gen: must be a str, got int (line 34)"],
    ),
    (
        "training.pretrained_disc",
        "5",
        ["training.pretrained_disc: must be a str, got int (line 35)"],
    ),
    ("training.pitch_guided", "5", ["training.pitch_guided: must be a bool, got int (line 36)"]),
    ("output.format", "5", ["output.format: must be a str, got int (line 38)"]),
    ("output.root", "5", ["output.root: must be a str, got int (line 39)"]),
    ("output.locale", "5", ["output.locale: must be a str, got int (line 40)"]),
    (
        "output.split.valid_fraction",
        '"x"',
        ["output.split.valid_fraction: must be a float, got str (line 42)"],
    ),
    ("output.split.seed", '"x"', ["output.split.seed: must be a int, got str (line 43)"]),
    (
        "adapters.downloader",
        "5",
        ["adapters.downloader: must be a non-empty adapter id (line 45)"],
    ),
    ("adapters.decoder", "5", ["adapters.decoder: must be a non-empty adapter id (line 46)"]),
    ("adapters.denoise", "5", ["adapters.denoise: must be a non-empty adapter id (line 47)"]),
    ("adapters.stems", "5", ["adapters.stems: must be a non-empty adapter id (line 48)"]),
    ("adapters.codec", "5", ["adapters.codec: must be a non-empty adapter id (line 49)"]),
    (
        "adapters.semantic_encoder",
        "5",
        ["adapters.semantic_encoder: must be a non-empty adapter id (line 50)"],
    ),
    (
        "adapters.token_quantizer",
        "5",
        ["adapters.token_quantizer: must be a non-empty adapter id (line 51)"],
    ),
    ("adapters.tts", "5", ["adapters.tts: must be a non-empty adapter id (line 52)"]),
    ("adapters.vc", "5", ["adapters.vc: must be a non-empty adapter id (line 53)"]),
    ("adapters.asr", "5", ["adapters.asr: must be a non-empty adapter id (line 54)"]),
    (
        "adapters.diarization",
        "5",
        ["adapters.diarization: must be a non-empty adapter id (line 55)"],
    ),
    (
        "adapters.speaker_embedding",
        "5",
        ["adapters.speaker_embedding: must be a non-empty adapter id (line 56)"],
    ),
    ("adapters.transcode", "5", ["adapters.transcode: must be a non-empty adapter id (line 57)"]),
]

OUT_OF_RANGE = [
    (
        "methodology",
        "diffusion",
        ["methodology: must be one of: bark_prompt, rvc_convert (line 1)"],
    ),
    ("methodology", "null", ["methodology: is required (line 1)"]),
    ("source.uri", "null", ["source.uri: is required (line 3)"]),
    ("source.uri", "no-scheme", ["source: remote uri 'no-scheme' needs a scheme prefix (line 2)"]),
    ("source.kind", "satellite", ["source.kind: must be one of: local, remote (line 4)"]),
    (
        "preprocessing.denoise",
        "1.5",
        ["preprocessing.denoise: must be in [0, 1], got 1.5 (line 6)"],
    ),
    (
        "preprocessing.denoise",
        "-0.1",
        ["preprocessing.denoise: must be in [0, 1], got -0.1 (line 6)"],
    ),
    (
        "preprocessing.stems",
        "six_stems",
        ["preprocessing.stems: must be one of: two_stems, four_stems, five_stems (line 7)"],
    ),
    (
        "preprocessing.segmentation.target_len_s",
        "0",
        ["preprocessing.segmentation: target_len_s must be positive (line 8)"],
    ),
    (
        "preprocessing.segmentation.tail",
        "middle",
        ["preprocessing.segmentation.tail: must be one of: drop_last, keep_last (line 10)"],
    ),
    (
        "preprocessing.segmentation.min_tail_s",
        "-1",
        ["preprocessing.segmentation: min_tail_s must be non-negative (line 8)"],
    ),
    (
        "preprocessing.segmentation.min_tail_s",
        "10.0",
        ["preprocessing.segmentation: min_tail_s must be smaller than target_len_s (line 8)"],
    ),
    ("asr.task", "dictate", ["asr.task: must be one of: transcribe, translate (line 14)"]),
    ("generation.text_temp", "0", ["generation.text_temp: must be in (0, 2], got 0.0 (line 16)"]),
    (
        "generation.text_temp",
        "2.5",
        ["generation.text_temp: must be in (0, 2], got 2.5 (line 16)"],
    ),
    (
        "generation.waveform_temp",
        "3",
        ["generation.waveform_temp: must be in (0, 2], got 3.0 (line 17)"],
    ),
    (
        "generation.seed",
        "18446744073709551616",
        ["generation: seed must fit in 64 bits (line 15)"],
    ),
    ("generation.retries", "-1", ["generation.retries: must be non-negative (line 19)"]),
    (
        "generation.sentences",
        '[""]',
        [
            "generation.sentences[0]: must be a non-empty string (line 20)",
            "generation.sentences: bark_prompt needs at least one sentence to synthesize"
            " (line 20)",
        ],
    ),
    (
        "generation.sentences",
        '["a\\nb"]',
        [
            "generation.sentences[0]: must not contain newlines (line 20)",
            "generation.sentences: bark_prompt needs at least one sentence to synthesize"
            " (line 20)",
        ],
    ),
    (
        "generation.sentences",
        "[]",
        ["generation.sentences: bark_prompt needs at least one sentence to synthesize (line 20)"],
    ),
    ("conversion.envelope_mix", "1.5", ["conversion: envelope_mix must be in [0, 1] (line 21)"]),
    (
        "conversion.filter_radius",
        "-1",
        ["conversion: filter_radius must be non-negative (line 21)"],
    ),
    ("conversion.index_ratio", "-0.5", ["conversion: index_ratio must be in [0, 1] (line 21)"]),
    ("conversion.protect", "0.6", ["conversion: protect must be in [0, 0.5] (line 21)"]),
    (
        "training.target_sample_rate_hz",
        "44100",
        [
            "training: target_sample_rate_hz must be one of (32000, 40000, 48000), got 44100"
            " (line 30)",
        ],
    ),
    ("training.batch_size", "0", ["training: batch_size must be >= 1 (line 30)"]),
    ("training.epochs", "0", ["training: epochs must be >= 1 (line 30)"]),
    ("output.format", "wav", ["output.format: must be one of: lj, common_voice (line 38)"]),
    ("output.root", "null", ["output.root: is required (line 39)"]),
    (
        "output.split.valid_fraction",
        "1.0",
        ["output.split: valid_fraction must be in (0, 1) (line 41)"],
    ),
    (
        "output.split.seed",
        "18446744073709551616",
        ["output.split: seed must fit in 64 bits (line 41)"],
    ),
    ("adapters.tts", '""', ["adapters.tts: must be a non-empty adapter id (line 52)"]),
]



def _with_value(text: str, path: str, value: str) -> str:
    """`text` with the value of the leaf at dotted `path` replaced."""
    out, stack = [], []
    for line in text.splitlines():
        depth = (len(line) - len(line.lstrip())) // 2
        key = line.strip().partition(":")[0]
        del stack[depth:]
        stack.append(key)
        if ".".join(stack) == path:
            line = f"{'  ' * depth}{key}: {value}"
        out.append(line)
    assert out != text.splitlines(), f"no leaf {path}"
    return "\n".join(out) + "\n"


def _violations(tmp_path, text: str) -> list[str]:
    path = tmp_path / "pipeline.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigurationError) as excinfo:
        load_config(path)
    return excinfo.value.violations


class TestContract:
    def test_full_config_is_valid(self, tmp_path):
        path = tmp_path / "pipeline.yaml"
        path.write_text(FULL_YAML, encoding="utf-8")
        assert load_config(path).training.pretrained_gen == "f0G32k"

    @pytest.mark.parametrize(
        "key, value, expected", WRONG_TYPE, ids=[case[0] for case in WRONG_TYPE]
    )
    def test_wrong_type(self, tmp_path, key, value, expected):
        assert _violations(tmp_path, _with_value(FULL_YAML, key, value)) == expected

    @pytest.mark.parametrize(
        "key, value, expected",
        OUT_OF_RANGE,
        ids=[f"{case[0]}={case[1]}" for case in OUT_OF_RANGE],
    )
    def test_out_of_range(self, tmp_path, key, value, expected):
        assert _violations(tmp_path, _with_value(FULL_YAML, key, value)) == expected

    def test_unknown_keys_and_non_mappings(self, tmp_path):
        text = textwrap.dedent(
            """\
            methodology: bark_prompt
            sped: 3
            source:
              uri: "mock://talk?duration=30"
              mirror: b
            preprocessing:
              segmentation:
                target: 1
            asr: [hi]
            generation:
              sentences: ["एक वाक्य।"]
            output: 5
            """
        )
        assert _violations(tmp_path, text) == [
            "sped: unknown key (line 2)",
            "source.mirror: unknown key (line 5)",
            "preprocessing.segmentation.target: unknown key (line 8)",
            "asr: must be a mapping (line 9)",
            "output: must be a mapping (line 12)",
            "output.root: is required",
        ]

    def test_minimal_config_sections_equal_domain_defaults(self, tmp_path):
        path = tmp_path / "pipeline.yaml"
        path.write_text(
            'methodology: rvc_convert\nsource:\n  uri: talk.wav\noutput:\n  root: out\n',
            encoding="utf-8",
        )
        config = load_config(path)
        assert config.training == default_training_config()
        assert config.conversion.params == default_conversion_params()
        assert config.generation.params == default_generation_params()
        assert config.preprocessing.segmentation == SegmentationPolicy()
        assert config.asr == AsrConfig()
