"""Voice-conversion support: training config emission, data checks, inference.

Model training itself runs in the external trainer; this module writes the
flat key=value config that trainer expects, sanity-checks the training data,
and drives conversion inference through a backend adapter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .adapters.base import VcAdapter
from .audio import AudioClip, replace_file
from .errors import StageError, ValidationError, backend_call

ALLOWED_TRAINING_RATES_HZ = (32000, 40000, 48000)
MIN_TRAINING_SECONDS = 600.0


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters handed to the external voice-conversion trainer."""

    target_sample_rate_hz: int
    batch_size: int
    epochs: int
    pretrained_gen: str
    pretrained_disc: str
    pitch_guided: bool

    def __post_init__(self) -> None:
        if self.target_sample_rate_hz not in ALLOWED_TRAINING_RATES_HZ:
            raise ValidationError(
                f"target_sample_rate_hz must be one of {ALLOWED_TRAINING_RATES_HZ}, "
                f"got {self.target_sample_rate_hz}"
            )
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")


@dataclass(frozen=True)
class ConversionParams:
    """Inference knobs for the conversion backend."""

    envelope_mix: float
    filter_radius: int
    index_ratio: float
    protect: float
    transpose_semitones: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.envelope_mix <= 1.0:
            raise ValidationError("envelope_mix must be in [0, 1]")
        if self.filter_radius < 0:
            raise ValidationError("filter_radius must be non-negative")
        if not 0.0 <= self.index_ratio <= 1.0:
            raise ValidationError("index_ratio must be in [0, 1]")
        if not 0.0 <= self.protect <= 0.5:
            raise ValidationError("protect must be in [0, 0.5]")


def default_training_config() -> TrainingConfig:
    """Training hyperparameters the cloning experiments converged on."""
    return TrainingConfig(
        target_sample_rate_hz=32000,
        batch_size=40,
        epochs=200,
        pretrained_gen="f0G32k",
        pretrained_disc="f0D32k",
        pitch_guided=True,
    )


def default_conversion_params() -> ConversionParams:
    """Inference settings matching the published conversion setup."""
    return ConversionParams(
        envelope_mix=0.25,
        filter_radius=3,
        index_ratio=0.75,
        protect=0.33,
        transpose_semitones=0,
    )


def validate_training_data(total_s: float) -> list[str]:
    """Advisory warning when the training data totals under the 600 s minimum; never raises."""
    # clip rates need no check: packaging drops every clip not at the trainer's rate
    if total_s >= MIN_TRAINING_SECONDS:
        return []
    return [
        f"training data totals {total_s:.1f} s, below the {MIN_TRAINING_SECONDS:.0f} s minimum"
    ]


def convert_voice(
    clip: AudioClip,
    model_ref: str,
    index_ref: str,
    params: ConversionParams,
    backend: VcAdapter,
) -> AudioClip:
    """Re-voice a clip through the conversion backend; time-preserving."""
    clip.require_non_empty("conversion input")
    with backend_call("conversion backend failed", stage="convert", source_id=clip.source_id):
        samples, rate = backend.convert(
            clip.samples, clip.sample_rate_hz, model_ref, index_ref, params
        )
    try:
        out = replace(clip, samples=np.asarray(samples, dtype=np.float32), sample_rate_hz=rate)
    except ValidationError as exc:
        raise StageError(
            f"conversion backend returned invalid audio: {exc}",
            stage="convert",
            source_id=clip.source_id,
        ) from exc
    if abs(out.duration_s - clip.duration_s) > 0.02 * clip.duration_s:
        raise StageError(
            f"conversion changed duration {clip.duration_s:.3f} s -> {out.duration_s:.3f} s "
            f"(more than 2%)",
            stage="convert",
            source_id=clip.source_id,
        )
    return out


def write_training_config(config: TrainingConfig, path: str | Path) -> None:
    """Emit the flat key=value file the external trainer reads."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"sample_rate={config.target_sample_rate_hz}",
        f"batch_size={config.batch_size}",
        f"epochs={config.epochs}",
        f"pretrained_generator={config.pretrained_gen}",
        f"pretrained_discriminator={config.pretrained_disc}",
        f"pitch_guided={'true' if config.pitch_guided else 'false'}",
    ]
    replace_file(path, ("\n".join(lines) + "\n").encode("utf-8"))
