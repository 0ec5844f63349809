"""Dataset packaging: LJ and Common Voice 11 layouts, readers, and splitting.

Each layout has one streaming writer (`LjWriter`, `CommonVoiceWriter`) that
writes every clip as it is added; `write_lj` and `write_common_voice` loop
over it. `publishing` swaps every tree, a run's or a library write's, in for
its root. Readers reproduce the written entry list exactly, and the
train/valid split is a pure function of (seed, clip_id) via SHA-256 ranking,
so every platform and run produces the same partition.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import warnings
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import IntegrityWarning, ParseError, StageError, ValidationError
from .preprocess import AudioFormat, EncodedAudio

CV_COLUMNS = (
    "client_id",
    "path",
    "sentence",
    "up_votes",
    "down_votes",
    "age",
    "gender",
    "accents",
    "locale",
    "segment",
)
CV_README = """# Custom Common Voice style dataset

Generated corpus in the Common Voice 11.0 directory layout. The up_votes and
down_votes columns are constant placeholders (2 and 0) so that standard
"validated" filters accept the rows; they do not reflect human review.
"""

_OPTIONAL_FIELDS = ("age", "gender", "accents", "locale", "segment")
QUALITY_REPORT_NAME = "quality_report.json"
TRAINING_CONFIG_NAME = "training_config.txt"


@dataclass(frozen=True)
class CorpusEntry:
    """One labeled clip as it appears in a dataset manifest."""

    clip_id: str
    relative_audio_path: str
    sentence: str
    client_id: str = ""
    up_votes: int = 2
    down_votes: int = 0
    age: str | None = None
    gender: str | None = None
    accents: str | None = None
    locale: str | None = None
    segment: str | None = None
    extra: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.clip_id:
            raise ValidationError("clip_id must be non-empty")
        if not self.sentence.strip():
            raise ValidationError("sentence must be non-empty")
        if "\\" in self.relative_audio_path:
            raise ValidationError("relative_audio_path must use forward slashes")
        if self.up_votes < 0 or self.down_votes < 0:
            raise ValidationError("vote counts must be non-negative")
        for key, value in self.extra.items():
            if not key or not value:
                raise ValidationError("extra columns need non-empty names and values")


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/valid split parameters."""

    valid_fraction: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.valid_fraction < 1.0:
            raise ValidationError("valid_fraction must be in (0, 1)")
        if not -(2**63) <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 bits")


def make_clip_id(source_id: str, index: int) -> str:
    """Sortable, collision-free clip identifier: `<source_id>_<000000>`."""
    return f"{source_id}_{index:06d}"


def client_id_for(speaker_ref: str) -> str:
    """Anonymized speaker id: SHA-256 of the prompt or model identifier."""
    return hashlib.sha256(speaker_ref.encode("utf-8")).hexdigest()


def _rank_key(seed: int, clip_id: str) -> bytes:
    seed_bytes = (seed & (2**64 - 1)).to_bytes(8, "big")
    return hashlib.sha256(seed_bytes + clip_id.encode("utf-8")).digest()


def split_train_valid(
    entries: list[CorpusEntry], split: SplitSpec
) -> tuple[list[CorpusEntry], list[CorpusEntry]]:
    """Partition entries deterministically; |valid| = round(fraction * N).

    Entries are ranked by SHA-256(seed || clip_id); the lowest-ranked
    round(f*N) fall into valid. Rounding is half-up so every platform
    agrees at the .5 boundary. Input order is preserved inside each part.
    """
    if not entries:
        raise ValidationError("cannot split an empty entry list")
    n_valid = int(len(entries) * split.valid_fraction + 0.5)
    ranked = sorted(entries, key=lambda e: _rank_key(split.seed, e.clip_id))
    valid_ids = {e.clip_id for e in ranked[:n_valid]}
    train = [e for e in entries if e.clip_id not in valid_ids]
    valid = [e for e in entries if e.clip_id in valid_ids]
    return train, valid


def _check_unique(entries: list[CorpusEntry]) -> None:
    seen: set[str] = set()
    for entry in entries:
        if entry.clip_id in seen:
            raise ValidationError(f"duplicate clip_id {entry.clip_id!r}")
        seen.add(entry.clip_id)


class CorpusWriter:
    """Writes one dataset tree clip by clip; only the entries stay in memory.

    `add` checks an entry, writes its audio file and keeps the entry (with its
    path in the tree), not the payload; `finish` writes the manifests.
    """

    audio_dir: str
    audio_format: AudioFormat
    extension: str
    names: tuple[str, ...]  # top-level names: audio dir, train and valid manifests, extras

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.entries: list[CorpusEntry] = []
        self._ids: set[str] = set()
        (self.root / self.audio_dir).mkdir(parents=True, exist_ok=True)

    @classmethod
    def check(cls, entry: CorpusEntry) -> None:
        """Raise `ValidationError` unless the layout can hold this entry's text."""
        try:
            "".join(_texts(entry)).encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(f"clip {entry.clip_id!r}: text is not valid UTF-8") from None
        if any(c in entry.clip_id for c in "/\\\0"):
            raise ValidationError(f"clip {entry.clip_id!r}: clip id contains a path separator or NUL")

    def add(self, entry: CorpusEntry, encoded: EncodedAudio) -> None:
        if entry.clip_id in self._ids:
            raise ValidationError(f"duplicate clip_id {entry.clip_id!r}")
        if encoded.format is not self.audio_format:
            raise ValidationError(
                f"clip {entry.clip_id!r} is {encoded.format.value}, writer needs {self.audio_format.value}"
            )
        self.check(entry)
        path = f"{self.audio_dir}/{entry.clip_id}.{self.extension}"
        (self.root / path).write_bytes(encoded.payload)
        self._ids.add(entry.clip_id)
        self.entries.append(replace(entry, relative_audio_path=path))

    def finish(self, split: SplitSpec) -> None:
        parts = split_train_valid(self.entries, split) if self.entries else ([], [])
        for name, part in zip(self.names[1:3], parts):
            (self.root / name).write_text("".join(self._lines(part)), encoding="utf-8")


def _texts(entry: CorpusEntry) -> list[str]:
    """Every text field of an entry, extra column names included."""
    optional = (getattr(entry, f) or "" for f in _OPTIONAL_FIELDS)
    return [entry.clip_id, entry.sentence, entry.client_id, *optional, *entry.extra, *entry.extra.values()]


class LjWriter(CorpusWriter):
    """`wavs/<clip_id>.wav` plus train.txt/valid.txt manifest lines."""

    audio_dir, audio_format, extension = "wavs", AudioFormat.WAV_PCM16, "wav"
    names = ("wavs", "train.txt", "valid.txt")

    @classmethod
    def check(cls, entry: CorpusEntry) -> None:
        super().check(entry)
        for name, value in (("sentence", entry.sentence), ("clip id", entry.clip_id)):
            if "|" in value:
                raise ValidationError(f"clip {entry.clip_id!r}: {name} contains the '|' delimiter")
            if "\n" in value or "\r" in value:
                raise ValidationError(f"clip {entry.clip_id!r}: {name} contains a newline")

    def _lines(self, part: list[CorpusEntry]) -> list[str]:
        return [f"wavs/{entry.clip_id}.wav|{entry.sentence}\n" for entry in part]


class CommonVoiceWriter(CorpusWriter):
    """`clips/<clip_id>.mp3` plus train.tsv/dev.tsv manifests and a README."""

    audio_dir, audio_format, extension = "clips", AudioFormat.MP3, "mp3"
    names = ("clips", "train.tsv", "dev.tsv", "README.md")

    @classmethod
    def check(cls, entry: CorpusEntry) -> None:
        super().check(entry)
        for value in _texts(entry):
            if "\t" in value or "\n" in value or "\r" in value:
                raise ValidationError(f"clip {entry.clip_id!r}: field contains a tab or newline")
        repeated = sorted(set(entry.extra) & set(CV_COLUMNS))
        if repeated:
            raise ValidationError(f"clip {entry.clip_id!r}: extra column {repeated[0]!r} repeats a standard column")

    def finish(self, split: SplitSpec) -> None:
        super().finish(split)
        (self.root / "README.md").write_text(CV_README, encoding="utf-8")

    def _lines(self, part: list[CorpusEntry]) -> list[str]:
        extra_columns = sorted({key for entry in self.entries for key in entry.extra})
        lines = ["\t".join([*CV_COLUMNS, *extra_columns]) + "\n"]
        for entry in part:
            row = [
                entry.client_id,
                f"{entry.clip_id}.mp3",
                entry.sentence,
                str(entry.up_votes),
                str(entry.down_votes),
                *(getattr(entry, f) or "" for f in _OPTIONAL_FIELDS),
                *(entry.extra.get(column, "") for column in extra_columns),
            ]
            lines.append("\t".join(row) + "\n")
        return lines


# Every top-level name a dataset tree holds; a root holding anything else is refused, not replaced.
ROOT_NAMES = {*LjWriter.names, *CommonVoiceWriter.names, QUALITY_REPORT_NAME, TRAINING_CONFIG_NAME}


def work_dir_for(root: str | Path) -> Path:
    """The `<root>.work/` sibling holding a run's intermediates and the staging tree."""
    root = Path(root)
    return root.parent / (root.name + ".work")


def _check_root(root: Path, stage: str, verb: str) -> None:
    """Refuse to `verb` a root that is a symlink or holds names no dataset tree has."""
    if root.is_symlink() or (root.exists() and not root.is_dir()):
        raise StageError(
            f"output root {root} is a symlink or not a directory; refusing to {verb} it",
            stage=stage,
        )
    foreign = sorted(p.name for p in root.iterdir() if p.name not in ROOT_NAMES) if root.exists() else []
    if foreign:
        raise StageError(
            f"output root {root} holds files voiceforge does not write ({', '.join(foreign)}); "
            "move them or choose another output.root",
            stage=stage,
        )


def _recover(root: Path) -> None:
    """Undo a publish that died between its two renames: `previous` becomes the root again."""
    previous = work_dir_for(root) / "previous"
    if previous.is_dir() and not os.path.lexists(root):
        os.rename(previous, root)


@contextmanager
def publishing(root: str | Path) -> Iterator[Path]:
    """Yield a fresh `<root>.work/staging/`; on a normal exit, swap it in for `root`.

    On entry a torn publish is undone and a symlinked or foreign root refused.
    The swap is two renames, root -> `<work>/previous` and staging -> root. An
    exception in the body deletes staging and leaves the root as it was.
    """
    root = Path(root)
    work = work_dir_for(root)
    staging, previous = work / "staging", work / "previous"
    try:
        _recover(root)
        _check_root(root, "package", "replace")
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)  # raises if a leftover could not be removed
        try:
            yield staging
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        shutil.rmtree(previous, ignore_errors=True)  # left by a crash after the renames
        _check_root(root, "package", "replace")
        if os.path.lexists(root):
            os.rename(root, previous)  # fails if a stale `previous` could not be removed
        os.rename(staging, root)
        shutil.rmtree(previous, ignore_errors=True)
    finally:
        with suppress(OSError):
            work.rmdir()


def _write(
    writer_type: type[CorpusWriter],
    entries: list[CorpusEntry],
    audio: dict[str, EncodedAudio],
    root: str | Path,
    split: SplitSpec,
) -> None:
    """Write the whole entry list into a fresh tree and publish it as `root`."""
    with publishing(root) as staging:
        writer = writer_type(staging)
        for entry in entries:
            if entry.clip_id not in audio:
                raise ValidationError(f"no audio supplied for clip {entry.clip_id!r}")
            writer.add(entry, audio[entry.clip_id])
        writer.finish(split)


def write_lj(
    entries: list[CorpusEntry],
    audio: dict[str, EncodedAudio],
    root: str | Path,
    split: SplitSpec,
) -> None:
    """Write `wavs/<clip_id>.wav` plus train.txt/valid.txt manifest lines."""
    _write(LjWriter, entries, audio, root, split)


def write_common_voice(
    entries: list[CorpusEntry],
    audio: dict[str, EncodedAudio],
    root: str | Path,
    split: SplitSpec,
) -> None:
    """Write `clips/<clip_id>.mp3` plus train.tsv/dev.tsv manifests."""
    _write(CommonVoiceWriter, entries, audio, root, split)


def _read_lj_manifest(path: Path) -> list[CorpusEntry]:
    if not path.is_file():
        raise ParseError(f"manifest {path} is missing", path=str(path))
    entries: list[CorpusEntry] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("|")
            if len(parts) != 2:
                raise ParseError(
                    f"expected exactly one '|' delimiter, found {len(parts) - 1}",
                    path=str(path),
                    line=line_no,
                )
            rel_path, sentence = parts
            if not sentence.strip():
                raise ParseError("empty sentence", path=str(path), line=line_no)
            entries.append(
                CorpusEntry(
                    clip_id=Path(rel_path).stem,
                    relative_audio_path=rel_path,
                    sentence=sentence,
                )
            )
    return entries


def _read_split(
    root: str | Path, writer_type: type[CorpusWriter], read_manifest
) -> tuple[list[CorpusEntry], list[CorpusEntry]]:
    """Read a tree's train and valid manifests; warn about clips missing or unreferenced."""
    root = Path(root)
    train, valid = (read_manifest(root / name) for name in writer_type.names[1:3])
    _check_unique(train + valid)
    referenced = {Path(e.relative_audio_path).name for e in train + valid}
    audio_dir = root / writer_type.audio_dir
    present = {p.name for p in audio_dir.glob(f"*.{writer_type.extension}")}
    for name in sorted(referenced - present):
        warnings.warn(f"{audio_dir.name}/{name} is referenced but missing", IntegrityWarning)
    for name in sorted(present - referenced):
        warnings.warn(f"{audio_dir.name}/{name} exists but is not referenced", IntegrityWarning)
    return train, valid


def read_lj_split(root: str | Path) -> tuple[list[CorpusEntry], list[CorpusEntry]]:
    """Read back an LJ-layout dataset, keeping train/valid membership."""
    return _read_split(root, LjWriter, _read_lj_manifest)


def read_lj(root: str | Path) -> list[CorpusEntry]:
    train, valid = read_lj_split(root)
    return train + valid


def _read_cv_manifest(path: Path) -> list[CorpusEntry]:
    if not path.is_file():
        raise ParseError(f"manifest {path} is missing", path=str(path))
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines or not lines[0]:
        raise ParseError("missing header row", path=str(path), line=1)
    header = lines[0].split("\t")
    if tuple(header[: len(CV_COLUMNS)]) != CV_COLUMNS:
        raise ParseError(
            f"header must start with the {len(CV_COLUMNS)} standard columns",
            path=str(path),
            line=1,
        )
    extra_columns = header[len(CV_COLUMNS) :]

    entries: list[CorpusEntry] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, found {len(fields)}",
                path=str(path),
                line=line_no,
            )
        named = dict(zip(header, fields))
        try:
            up_votes = int(named["up_votes"])
            down_votes = int(named["down_votes"])
        except ValueError as exc:
            raise ParseError(
                f"vote counts must be integers: {exc}", path=str(path), line=line_no
            ) from exc
        extra = {
            column: named[column] for column in extra_columns if named[column]
        }
        entries.append(
            CorpusEntry(
                clip_id=Path(named["path"]).stem,
                relative_audio_path=f"clips/{named['path']}",
                sentence=named["sentence"],
                client_id=named["client_id"],
                up_votes=up_votes,
                down_votes=down_votes,
                **{name: named[name] or None for name in _OPTIONAL_FIELDS},
                extra=extra,
            )
        )
    return entries


def read_common_voice_split(
    root: str | Path,
) -> tuple[list[CorpusEntry], list[CorpusEntry]]:
    """Read back a Common Voice layout dataset with split membership."""
    return _read_split(root, CommonVoiceWriter, _read_cv_manifest)


def read_common_voice(root: str | Path) -> list[CorpusEntry]:
    train, valid = read_common_voice_split(root)
    return train + valid
