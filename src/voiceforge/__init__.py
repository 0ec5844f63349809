"""voiceforge: build voice-cloning speech corpora from a single source recording.

Two workflows are wired end to end behind swappable model adapters: prompted
text-to-speech generation driven by a speaker prompt extracted from source
audio, and voice conversion applied over an existing corpus. Outputs are
packaged as LJ-style or Common Voice 11 style datasets.
"""

from __future__ import annotations

from .adapters import AdapterDescriptor, AdapterRegistry, AdapterRole, default_registry
from .audio import AudioClip, load_wav, resample, save_wav
from .config import (
    Methodology,
    OutputFormat,
    PipelineConfig,
    load_config,
    parse_config,
)
from .conversion import (
    ConversionParams,
    TrainingConfig,
    convert_voice,
    default_conversion_params,
    default_training_config,
    validate_training_data,
    write_training_config,
)
from .corpus import (
    CorpusEntry,
    SplitSpec,
    make_clip_id,
    read_common_voice,
    read_lj,
    split_train_valid,
    write_common_voice,
    write_lj,
)
from .errors import (
    ConfigurationError,
    FormatError,
    ParseError,
    StageError,
    ValidationError,
    VoiceforgeError,
)
from .ingest import RawMediaHandle, SourceSpec, acquire_source, decode_to_audio
from .pipeline import RunSummary, run
from .preprocess import (
    AudioFormat,
    EncodedAudio,
    SegmentationPolicy,
    StemModel,
    TailPolicy,
    denoise,
    segment,
    separate_vocals,
    transcode,
)
from .quality import (
    ClipConstraints,
    QualityReport,
    character_error_rate,
    speaker_similarity,
    validate_clip,
    word_error_rate,
)
from .synthesis import (
    BatchResult,
    GenerationParams,
    batch_synthesize,
    default_generation_params,
    synthesize,
)
from .transcribe import (
    AsrConfig,
    AsrTask,
    SpeakerTurn,
    TranscriptSegment,
    diarize,
    slice_by_segments,
    transcribe,
)
from .voiceprompt import (
    CodebookMatrix,
    SpeakerPrompt,
    extract_codebooks,
    extract_semantic_tokens,
    load_prompt,
    save_prompt,
)

__version__ = "0.1.0"

__all__ = [
    "AdapterDescriptor",
    "AdapterRegistry",
    "AdapterRole",
    "AsrConfig",
    "AsrTask",
    "AudioClip",
    "AudioFormat",
    "BatchResult",
    "ClipConstraints",
    "CodebookMatrix",
    "ConfigurationError",
    "ConversionParams",
    "CorpusEntry",
    "EncodedAudio",
    "FormatError",
    "GenerationParams",
    "Methodology",
    "OutputFormat",
    "ParseError",
    "PipelineConfig",
    "QualityReport",
    "RawMediaHandle",
    "RunSummary",
    "SegmentationPolicy",
    "SourceSpec",
    "SpeakerPrompt",
    "SpeakerTurn",
    "SplitSpec",
    "StageError",
    "StemModel",
    "TailPolicy",
    "TrainingConfig",
    "TranscriptSegment",
    "ValidationError",
    "VoiceforgeError",
    "acquire_source",
    "batch_synthesize",
    "character_error_rate",
    "convert_voice",
    "decode_to_audio",
    "default_conversion_params",
    "default_generation_params",
    "default_registry",
    "default_training_config",
    "denoise",
    "diarize",
    "extract_codebooks",
    "extract_semantic_tokens",
    "load_config",
    "load_prompt",
    "load_wav",
    "make_clip_id",
    "parse_config",
    "read_common_voice",
    "read_lj",
    "resample",
    "run",
    "save_prompt",
    "save_wav",
    "segment",
    "separate_vocals",
    "slice_by_segments",
    "speaker_similarity",
    "split_train_valid",
    "synthesize",
    "transcode",
    "transcribe",
    "validate_clip",
    "validate_training_data",
    "word_error_rate",
    "write_common_voice",
    "write_lj",
    "write_training_config",
]
