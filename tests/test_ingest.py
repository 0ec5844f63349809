from __future__ import annotations

import struct

import numpy as np
import pytest

from voiceforge.adapters.base import DownloadResult
from voiceforge.adapters.builtin import WavFileDecoder
from voiceforge.adapters.mocks import MockDecoder, MockDownloader
from voiceforge.audio import encode_wav_pcm16, quantize_pcm16, AudioClip
from voiceforge.errors import (
    AcquisitionError,
    ConfigurationError,
    DecodeError,
    EmptyAudioError,
    IntegrityError,
    ValidationError,
)
from voiceforge.ingest import (
    RawMediaHandle,
    SourceKind,
    SourceSpec,
    acquire_source,
    decode_to_audio,
    source_id_for,
)


class TestSourceSpec:
    def test_remote_requires_scheme(self):
        with pytest.raises(ValidationError, match="scheme"):
            SourceSpec(uri="no-scheme-here", kind=SourceKind.REMOTE)

    def test_empty_uri_rejected(self):
        with pytest.raises(ValidationError):
            SourceSpec(uri="", kind=SourceKind.LOCAL)


class TestAcquire:
    def test_local_passthrough_keeps_container(self, tmp_path):
        media = tmp_path / "talk.mp4"
        media.write_bytes(b"fake video payload")
        handle = acquire_source(SourceSpec(uri=str(media), kind=SourceKind.LOCAL))
        assert handle.path == media
        assert handle.container_format == "mp4"
        assert handle.duration_s is None

    def test_local_missing_file(self, tmp_path):
        spec = SourceSpec(uri=str(tmp_path / "absent.wav"), kind=SourceKind.LOCAL)
        with pytest.raises(AcquisitionError, match="absent.wav"):
            acquire_source(spec)

    def test_remote_needs_downloader(self):
        with pytest.raises(ConfigurationError):
            acquire_source(SourceSpec(uri="mock://x", kind=SourceKind.REMOTE))

    def test_remote_download_lands_in_cache(self, tmp_path):
        spec = SourceSpec(uri="mock://talk?duration=1&rate=8000&seed=1", kind=SourceKind.REMOTE)
        handle = acquire_source(spec, MockDownloader(), cache_dir=tmp_path)
        assert handle.path.is_file()
        assert handle.path.suffix == ".mockav"
        assert handle.path.parent.parent == tmp_path
        assert len(handle.path.parent.name) == 2  # two-hex bucket
        assert handle.duration_s == pytest.approx(1.0)

    def test_second_acquire_hits_cache(self, tmp_path):
        calls = []

        class CountingDownloader:
            def download(self, uri: str, dest_path: str) -> DownloadResult:
                calls.append(uri)
                return MockDownloader().download(uri, dest_path)

        spec = SourceSpec(uri="mock://talk?duration=1&rate=8000&seed=1", kind=SourceKind.REMOTE)
        first = acquire_source(spec, CountingDownloader(), cache_dir=tmp_path)
        second = acquire_source(spec, CountingDownloader(), cache_dir=tmp_path)
        assert first.path == second.path
        assert len(calls) == 1

    def test_download_failing_the_duration_check_is_fetched_again(self, tmp_path):
        calls = []

        class TruncatingDownloader:
            """Reports a 10 s container but writes 1 s of audio."""

            def download(self, uri: str, dest_path: str) -> DownloadResult:
                calls.append(uri)
                clip = AudioClip(samples=np.zeros(8000, np.float32), sample_rate_hz=8000)
                with open(dest_path, "wb") as fh:
                    fh.write(encode_wav_pcm16(clip))
                return DownloadResult(container_format="wav", duration_s=10.0)

        spec = SourceSpec(uri="mock://truncated", kind=SourceKind.REMOTE)
        for _ in range(2):
            handle = acquire_source(spec, TruncatingDownloader(), cache_dir=tmp_path)
            with pytest.raises(DecodeError, match="disagrees"):
                decode_to_audio(handle, 8000, WavFileDecoder())
            assert not handle.path.exists()
        assert len(calls) == 2

    def test_zero_byte_download_is_rejected(self, tmp_path):
        class EmptyDownloader:
            def download(self, uri: str, dest_path: str) -> DownloadResult:
                open(dest_path, "wb").close()
                return DownloadResult()

        spec = SourceSpec(uri="mock://empty", kind=SourceKind.REMOTE)
        with pytest.raises(IntegrityError, match="zero bytes"):
            acquire_source(spec, EmptyDownloader(), cache_dir=tmp_path)
        # the failed attempt must not leave a cache entry behind
        assert not any(p.is_file() for p in tmp_path.rglob("*"))

    def test_downloader_failure_carries_uri(self, tmp_path):
        class FailingDownloader:
            def download(self, uri: str, dest_path: str) -> DownloadResult:
                raise OSError("connection refused")

        spec = SourceSpec(uri="mock://down", kind=SourceKind.REMOTE)
        with pytest.raises(AcquisitionError, match="mock://down"):
            acquire_source(spec, FailingDownloader(), cache_dir=tmp_path)


def test_source_id_follows_content_not_path_or_mtime(tmp_path):
    import hashlib
    import os

    payload = bytes(range(256)) * 5000  # spans more than one read chunk
    first = tmp_path / "a" / "talk.wav"
    second = tmp_path / "b" / "copy.wav"
    for path, mtime_ns in ((first, 10**15), (second, 2 * 10**15)):
        path.parent.mkdir()
        path.write_bytes(payload)
        os.utime(path, ns=(mtime_ns, mtime_ns))
    assert source_id_for(first) == source_id_for(second)
    assert source_id_for(first) == hashlib.sha256(payload).hexdigest()[:16]

    second.write_bytes(payload[:-1] + b"\x00")
    assert source_id_for(second) != source_id_for(first)


class TestDecode:
    def _write_wav(self, tmp_path, n: int, rate: int):
        clip = AudioClip(
            samples=(np.sin(np.linspace(0, 50, n)) * 0.4).astype(np.float32),
            sample_rate_hz=rate,
        )
        path = tmp_path / "audio.wav"
        path.write_bytes(encode_wav_pcm16(clip))
        return path, clip

    def test_target_rate_bounds(self, tmp_path):
        path, _ = self._write_wav(tmp_path, 800, 8000)
        handle = RawMediaHandle(path=path)
        with pytest.raises(ConfigurationError):
            decode_to_audio(handle, 4000, WavFileDecoder())
        with pytest.raises(ConfigurationError):
            decode_to_audio(handle, 96000, WavFileDecoder())

    def test_identity_rate_is_bit_exact(self, tmp_path):
        path, clip = self._write_wav(tmp_path, 2400, 24000)
        out = decode_to_audio(RawMediaHandle(path=path), 24000, WavFileDecoder())
        expected = quantize_pcm16(clip.samples)
        assert np.array_equal(quantize_pcm16(out.samples), expected)
        assert out.source_id == source_id_for(path)

    def test_stereo_source_downmixes_and_resamples(self, tmp_path):
        # 60 s stereo 44.1 kHz -> mono 24 kHz, duration preserved
        rate, n = 44100, 44100 * 60
        inter = np.zeros(2 * n)
        inter[0::2] = 0.25
        inter[1::2] = -0.25
        pcm = quantize_pcm16(inter).astype("<i2").tobytes()
        payload = (
            b"RIFF"
            + struct.pack("<I", 36 + len(pcm))
            + b"WAVE"
            + b"fmt "
            + struct.pack("<IHHIIHH", 16, 1, 2, rate, rate * 4, 4, 16)
            + b"data"
            + struct.pack("<I", len(pcm))
            + pcm
        )
        path = tmp_path / "stereo.wav"
        path.write_bytes(payload)
        out = decode_to_audio(
            RawMediaHandle(path=path, duration_s=60.0), 24000, WavFileDecoder()
        )
        assert out.sample_rate_hz == 24000
        assert out.duration_s == pytest.approx(60.0, abs=0.05)

    def test_channel_major_decoder_output_downmixes(self, tmp_path):
        class TwoChannelDecoder:
            def decode(self, path: str):
                return np.stack([np.full(100, 0.5), np.full(100, -0.5)]), 16000

        path = tmp_path / "x.raw"
        path.write_bytes(b"ignored")
        out = decode_to_audio(RawMediaHandle(path=path), 16000, TwoChannelDecoder())
        assert out.n_samples == 100
        assert np.allclose(out.samples, 0.0)

    def test_container_duration_mismatch(self, tmp_path):
        path, _ = self._write_wav(tmp_path, 8000, 8000)  # really 1 s
        handle = RawMediaHandle(path=path, duration_s=2.0)
        with pytest.raises(DecodeError, match="disagrees"):
            decode_to_audio(handle, 8000, WavFileDecoder())

    def test_no_audio_stream(self, tmp_path):
        header = (
            b"RIFF"
            + struct.pack("<I", 36)
            + b"WAVE"
            + b"fmt "
            + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
            + b"data"
            + struct.pack("<I", 0)
        )
        path = tmp_path / "empty.wav"
        path.write_bytes(header)
        with pytest.raises(EmptyAudioError):
            decode_to_audio(RawMediaHandle(path=path), 8000, WavFileDecoder())

    def test_undecodable_media(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"garbage")
        with pytest.raises(DecodeError):
            decode_to_audio(RawMediaHandle(path=path), 8000, MockDecoder())


def test_media_handle_requires_existing_file(tmp_path):
    with pytest.raises(IntegrityError):
        RawMediaHandle(path=tmp_path / "ghost.wav")
    empty = tmp_path / "zero.wav"
    empty.touch()
    with pytest.raises(IntegrityError, match="empty"):
        RawMediaHandle(path=empty)
