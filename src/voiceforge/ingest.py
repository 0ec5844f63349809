"""Source acquisition and decoding to the canonical mono float representation.

Remote media lands in a content cache keyed by the SHA-256 of the URI, so
repeated runs are idempotent and concurrent runs can share one cache
directory (writes go to a temp file, then an atomic rename). The caller
picks the cache directory.
"""

from __future__ import annotations

import hashlib
import os
import queue
import tempfile
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adapters.base import DecoderAdapter, DownloaderAdapter
from .audio import (
    MAX_SAMPLE_RATE_HZ,
    MIN_SAMPLE_RATE_HZ,
    AudioClip,
    SampleBlocks,
    downmix_mean,
    require_amplitude,
    resample,
)
from .errors import (
    AcquisitionError,
    ConfigurationError,
    DecodeError,
    EmptyAudioError,
    IntegrityError,
    ValidationError,
    backend_call,
)

DURATION_TOLERANCE_S = 0.1
# Checked decoder blocks that an `Ahead` worker may hold ready for the resampler.
AHEAD_BLOCKS = 2


@dataclass(frozen=True)
class SourceSpec:
    """Where a piece of source media lives: a URI with `://` is fetched, anything else is a local path."""

    uri: str

    def __post_init__(self) -> None:
        if not self.uri:
            raise ValidationError("source uri must be non-empty")

    @property
    def remote(self) -> bool:
        return "://" in self.uri


@dataclass(frozen=True)
class RawMediaHandle:
    """A local media file ready for decoding.

    duration_s is None unless the downloader reported one; plain local
    acquisition has no decoder in hand, so it cannot promise a duration.
    """

    path: Path
    duration_s: float | None = None

    def __post_init__(self) -> None:
        if not self.path.is_file():
            raise IntegrityError(f"media file {self.path} does not exist", stage="acquire")
        if self.path.stat().st_size == 0:
            raise IntegrityError(f"media file {self.path} is empty", stage="acquire")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValidationError("duration_s must be positive when known")


def _extension_for(uri: str, container_format: str | None) -> str:
    if container_format:
        return container_format.lstrip(".").lower()
    suffix = Path(uri.split("?", 1)[0]).suffix.lstrip(".").lower()
    return suffix or "bin"


def acquire_source(
    spec: SourceSpec,
    downloader: DownloaderAdapter | None = None,
    cache_dir: str | Path | None = None,
) -> RawMediaHandle:
    """Resolve a SourceSpec to a local file, downloading through the cache in `cache_dir` if remote."""
    if not spec.remote:
        path = Path(spec.uri)
        if not path.is_file():
            raise AcquisitionError(f"local source {spec.uri} not found", source_id=spec.uri)
        return RawMediaHandle(path=path)

    if downloader is None:
        raise ConfigurationError("remote sources need a downloader adapter")
    if cache_dir is None:
        raise ConfigurationError("remote sources need a cache directory")

    digest = hashlib.sha256(spec.uri.encode("utf-8")).hexdigest()
    bucket = Path(cache_dir) / digest[:2]
    bucket.mkdir(parents=True, exist_ok=True)

    existing = sorted(bucket.glob(f"{digest}.*"))
    if existing:
        return RawMediaHandle(path=existing[0])

    fd, tmp_name = tempfile.mkstemp(prefix=f".{digest}.", dir=bucket)
    os.close(fd)
    try:
        result = downloader.download(spec.uri, tmp_name)
        if os.path.getsize(tmp_name) == 0:
            raise IntegrityError(f"download of {spec.uri} produced zero bytes", source_id=spec.uri)
        ext = _extension_for(spec.uri, result.container_format)
        final = bucket / f"{digest}.{ext}"
        os.replace(tmp_name, final)
    except AcquisitionError:
        raise
    except IntegrityError:
        raise
    except Exception as exc:
        raise AcquisitionError(f"download of {spec.uri} failed: {exc}", source_id=spec.uri) from exc
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
    return RawMediaHandle(path=final, duration_s=result.duration_s)


def source_id_for(path: str | Path) -> str:
    """Stable 16-hex identifier for a media file: SHA-256 of its bytes.

    The id follows the content alone, so the same media gives the same clip
    ids from any cache directory, path or modification time.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def decode_to_audio(
    media: RawMediaHandle, target_rate_hz: int, decoder: DecoderAdapter
) -> AudioClip:
    """Decode a media file to a mono AudioClip at exactly target_rate_hz.

    The source is opened with `open_source` and resampled block by block, so
    the source at its native rate is never held whole.
    """
    return resample(open_source(media, target_rate_hz, decoder), target_rate_hz)


def open_source(
    media: RawMediaHandle, target_rate_hz: int, decoder: DecoderAdapter
) -> SampleBlocks:
    """Open a media file for decoding at target_rate_hz: its samples at their native rate.

    The decoder's blocks (`decode_blocks`) are downmixed and range-checked
    one at a time as they are pulled, and they must hold the reported sample
    count. They are pulled on one worker thread, at most AHEAD_BLOCKS ahead
    of the consumer (see `Ahead`), so decoding overlaps the resampling.
    A file whose decoded duration disagrees with the downloader's report is a
    truncated or corrupt download. It is deleted before DecodeError is
    raised: a cache hit carries no reported duration, so a rerun would
    otherwise decode it unchecked.
    """
    if not MIN_SAMPLE_RATE_HZ <= target_rate_hz <= MAX_SAMPLE_RATE_HZ:
        raise ConfigurationError(
            f"target_rate_hz must be within [{MIN_SAMPLE_RATE_HZ}, {MAX_SAMPLE_RATE_HZ}], "
            f"got {target_rate_hz}"
        )
    where = str(media.path)
    with backend_call(f"cannot decode {where}", stage="decode", source_id=where, error=DecodeError):
        native_rate, n_samples, blocks = decoder.decode_blocks(where)
    if n_samples == 0:
        raise EmptyAudioError(f"{media.path} has no audio samples", source_id=where)

    native_duration = n_samples / native_rate
    if media.duration_s is not None and abs(native_duration - media.duration_s) > DURATION_TOLERANCE_S:
        media.path.unlink(missing_ok=True)
        raise DecodeError(
            f"decoded duration {native_duration:.3f}s disagrees with container "
            f"duration {media.duration_s:.3f}s for {media.path}",
            stage="decode",
            source_id=where,
        )
    blocks = Ahead(_checked(blocks, n_samples, where))
    return SampleBlocks(native_rate, n_samples, blocks, source_id_for(media.path))


class Ahead:
    """A stream's blocks in order, pulled on one worker thread into a queue of AHEAD_BLOCKS.

    The worker starts on the first pull. An exception it meets is raised
    here, after every block before it. A consumer that needs no more blocks
    may `detach`: the worker then pulls and checks the rest alone, hands
    nothing over, and `check` raises what it met. The worker is joined once
    its end or fault is taken, and `close` (also on drop) stops and joins it
    at once, so it never outlives the stream.
    """

    def __init__(self, blocks: Iterable[np.ndarray]) -> None:
        self._blocks = blocks
        self._ready: queue.Queue = queue.Queue(AHEAD_BLOCKS)
        self._stop, self._detached = threading.Event(), threading.Event()
        self._worker: threading.Thread | None = None
        self._ended = False

    def _start(self) -> None:
        if self._worker is not None or self._ended:
            return
        # the worker holds no reference to self, so a dropped stream is closed
        blocks, ready, stop, detached = self._blocks, self._ready, self._stop, self._detached
        self._blocks = None

        def pull() -> None:
            # stop is checked after every block, so once it is set the worker
            # makes at most one more put, and `close`'s drain leaves room for it
            try:
                for block in blocks:
                    if not detached.is_set():
                        ready.put((block, None))
                    if stop.is_set():
                        return
                ready.put((None, None))
            except BaseException as exc:  # the consumer raises it
                ready.put((None, exc))

        self._worker = threading.Thread(target=pull, name="voiceforge-decode-ahead", daemon=True)
        self._worker.start()

    def _take(self, wait: bool) -> np.ndarray | None:
        """The next queued block; None at the end, or when `wait` is off and none is queued."""
        if self._ended:
            return None
        try:
            block, exc = self._ready.get(block=wait)
        except queue.Empty:
            return None
        if block is None:
            self._ended = True
            self._worker.join()
            if exc is not None:
                raise exc
        return block

    def __iter__(self) -> "Ahead":
        return self

    def __next__(self) -> np.ndarray:
        self._start()
        block = self._take(wait=True)
        if block is None:
            raise StopIteration
        return block

    def detach(self) -> None:
        """Take no more blocks: the worker goes on pulling and checking the rest alone."""
        self._detached.set()
        self._start()
        self.check()  # drops what it queued, which may free it from a blocked put

    def check(self, wait: bool = False) -> None:
        """Raise what a detached worker met, if it ended on a fault; with `wait`, wait for its end."""
        while self._take(wait) is not None:
            pass

    def close(self) -> None:
        """Stop the worker and join it, leaving whatever it had yet to pull or raise."""
        self._ended = True
        self._stop.set()
        while not self._ready.empty():  # the worker only puts, so this get cannot block
            self._ready.get_nowait()
        if self._worker is not None:
            self._worker.join()

    def __del__(self) -> None:
        self.close()


def _checked(blocks: Iterable[np.ndarray], n_samples: int, where: str) -> Iterator[np.ndarray]:
    """The decoder's blocks, downmixed and range-checked, holding exactly n_samples in all."""
    seen = 0
    pending = iter(blocks)
    while True:
        with backend_call(f"cannot decode {where}", stage="decode", source_id=where, error=DecodeError):
            block = next(pending, None)
        if block is None:
            break
        block = downmix_mean(block)
        require_amplitude(block)
        seen += block.size
        if seen > n_samples:
            break
        yield block
    if seen != n_samples:
        raise DecodeError(
            f"the decoder reported {n_samples} samples but its blocks hold "
            f"{'more' if seen > n_samples else seen} for {where}",
            stage="decode",
            source_id=where,
        )
