"""Exception hierarchy shared by all voiceforge modules.

The CLI maps these onto exit codes: ConfigurationError -> 1, any StageError
(or other VoiceforgeError) -> 2, partial batches -> 3.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager


class VoiceforgeError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(VoiceforgeError):
    """Invalid configuration: bad config file, unknown adapter, bad knob value."""

    def __init__(self, message: str, violations: list[str] | None = None):
        self.violations = violations or []
        if self.violations:
            message = message + "\n" + "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(message)


class ValidationError(VoiceforgeError):
    """A domain value violates its invariants (bad clip, bad entry, bad range)."""


class ParseError(ValidationError):
    """A manifest or archive could not be parsed; carries file location context."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" ({path}" + (f", line {line})" if line is not None else ")")
        super().__init__(message + where)


class FormatError(VoiceforgeError):
    """An on-disk artifact (prompt archive, encoded audio) has the wrong shape."""


class StageError(VoiceforgeError):
    """A pipeline stage failed at runtime; carries the stage name and provenance."""

    def __init__(self, message: str, *, stage: str | None = None, source_id: str | None = None):
        self.stage = stage
        self.source_id = source_id
        prefix = f"[{stage}] " if stage else ""
        suffix = f" (source {source_id})" if source_id else ""
        super().__init__(prefix + message + suffix)


class AcquisitionError(StageError):
    """Source media could not be acquired (unreachable URI, downloader failure)."""


class IntegrityError(StageError):
    """Acquired or produced data fails an integrity check (empty file, bad duration)."""


class DecodeError(StageError):
    """Media could not be decoded to audio."""


class EmptyAudioError(DecodeError):
    """Decoding succeeded but produced no audio samples."""


class GenerationError(StageError):
    """The TTS backend failed to synthesize a sentence."""


class BatchError(StageError):
    """Every item of a batch failed; carries per-item causes."""

    def __init__(self, message: str, causes: dict[str, str], *, stage: str | None = None):
        self.causes = dict(causes)
        detail = "; ".join(f"{k!r}: {v}" for k, v in sorted(self.causes.items()))
        super().__init__(f"{message}: {detail}", stage=stage)


class RegistryError(VoiceforgeError):
    """Adapter registry misuse (duplicate registration, invalid descriptor)."""


class AdapterLookupError(VoiceforgeError):
    """No adapter registered under the requested (role, id)."""


class IntegrityWarning(UserWarning):
    """Advisory finding from a corpus reader (missing or orphaned audio file)."""


@contextmanager
def backend_call(
    message: str, *, stage: str, source_id: str | None = None, error: type[StageError] = StageError
) -> Iterator[None]:
    """Guard one adapter call: the failure policy of the backend boundary.

    ConfigurationError and ValidationError pass through unchanged; any other
    exception is raised as `error(f"{message}: {exc}")` with the stage and
    source id, chained to the original.
    """
    try:
        yield
    except (ConfigurationError, ValidationError):
        raise
    except Exception as exc:
        raise error(f"{message}: {exc}", stage=stage, source_id=source_id) from exc
