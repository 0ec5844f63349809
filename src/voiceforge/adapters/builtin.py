"""Adapters with no model dependency: urllib downloads and PCM16 WAV I/O."""

from __future__ import annotations

import os
import shutil
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from ..audio import AudioClip, decode_wav_pcm16, encode_wav_pcm16, pcm16_to_mono, wav_layout
from ..errors import AcquisitionError, ConfigurationError, FormatError
from .base import DownloadResult


def _container_from_name(name: str) -> str | None:
    suffix = Path(name).suffix.lstrip(".").lower()
    return suffix or None


class UrllibDownloader:
    """Fetches file://, http:// and https:// URIs to a destination path."""

    TIMEOUT_S = 60.0

    def download(self, uri: str, dest_path: str) -> DownloadResult:
        import urllib.request  # loads ssl, so only a run that downloads pays for it
        try:
            with urllib.request.urlopen(uri, timeout=self.TIMEOUT_S) as response:
                with open(dest_path, "wb") as fh:
                    shutil.copyfileobj(response, fh)
        except (OSError, ValueError) as exc:
            raise AcquisitionError(f"download failed for {uri}: {exc}", source_id=uri) from exc
        return DownloadResult(container_format=_container_from_name(uri))


class WavFileDecoder:
    """PCM16 WAV files on disk, read in blocks of BLOCK_BYTES."""

    BLOCK_BYTES = 1 << 18  # a multiple of every frame size (2 or 4 bytes)

    def decode_blocks(self, path: str) -> tuple[int, int, Iterator[np.ndarray]]:
        """Read the chunk headers now; the data chunk is read block by block."""
        with open(path, "rb") as fh:
            if fh.read(4) != b"RIFF":
                raise FormatError(f"{path} is not a RIFF/WAV file")

            def read(pos: int, n: int) -> bytes:
                fh.seek(pos)
                return fh.read(n)

            rate, n_channels, offset, length = wav_layout(read, os.fstat(fh.fileno()).st_size)

        def blocks() -> Iterator[np.ndarray]:
            with open(path, "rb") as fh:
                fh.seek(offset)
                for start in range(0, length, self.BLOCK_BYTES):
                    payload = fh.read(min(self.BLOCK_BYTES, length - start))
                    yield pcm16_to_mono(np.frombuffer(payload, dtype="<i2"), n_channels)

        return rate, length // (2 * n_channels), blocks()


class WavTranscodeAdapter:
    """Transcoder restricted to the self-contained PCM16 WAV codec."""

    def encode(self, samples: np.ndarray, rate: int, format: str) -> bytes:
        if format != "wav_pcm16":
            raise ConfigurationError(
                f"{type(self).__name__} cannot encode {format!r}; register an adapter that can"
            )
        clip = AudioClip(samples=np.asarray(samples, dtype=np.float32), sample_rate_hz=rate)
        return encode_wav_pcm16(clip)

    def decode(self, payload: bytes, format: str) -> tuple[np.ndarray, int]:
        if format != "wav_pcm16":
            raise ConfigurationError(
                f"{type(self).__name__} cannot decode {format!r}; register an adapter that can"
            )
        return decode_wav_pcm16(payload)
