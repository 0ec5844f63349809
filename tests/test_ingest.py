from __future__ import annotations

import contextlib
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from voiceforge import audio
from voiceforge.adapters.base import DownloadResult
from voiceforge.adapters.builtin import WavFileDecoder
from voiceforge.adapters.mocks import MockAsrAdapter, MockDecoder, MockDownloader
from voiceforge.audio import encode_wav_pcm16, quantize_pcm16, AudioClip, downmix_mean, resample
from voiceforge.errors import (
    AcquisitionError,
    ConfigurationError,
    DecodeError,
    EmptyAudioError,
    IntegrityError,
    ValidationError,
)
from voiceforge.ingest import (
    AHEAD_BLOCKS,
    RawMediaHandle,
    SourceSpec,
    acquire_source,
    decode_to_audio,
    open_source,
    source_id_for,
)
from voiceforge.transcribe import AsrConfig

from test_audio import STREAM_RATES, STREAM_SETTINGS, split_blocks


class TestSourceSpec:
    def test_remote_exactly_when_the_uri_has_a_scheme(self):
        assert SourceSpec(uri="https://example.com/talk.wav").remote
        assert SourceSpec(uri="mock://talk?duration=1").remote
        assert not SourceSpec(uri="recordings/talk.wav").remote
        assert not SourceSpec(uri="no-scheme-here").remote

    def test_empty_uri_rejected(self):
        with pytest.raises(ValidationError):
            SourceSpec(uri="")


class TestAcquire:
    def test_local_passthrough_keeps_container(self, tmp_path):
        media = tmp_path / "talk.mp4"
        media.write_bytes(b"fake video payload")
        handle = acquire_source(SourceSpec(uri=str(media)))
        assert handle.path == media
        assert handle.duration_s is None

    def test_local_missing_file(self, tmp_path):
        spec = SourceSpec(uri=str(tmp_path / "absent.wav"))
        with pytest.raises(AcquisitionError, match="absent.wav"):
            acquire_source(spec)

    def test_remote_needs_downloader(self):
        with pytest.raises(ConfigurationError):
            acquire_source(SourceSpec(uri="mock://x"))

    def test_remote_download_lands_in_cache(self, tmp_path):
        spec = SourceSpec(uri="mock://talk?duration=1&rate=8000&seed=1")
        handle = acquire_source(spec, MockDownloader(), cache_dir=tmp_path)
        assert handle.path.is_file()
        assert handle.path.suffix == ".mockav"
        assert handle.path.parent.parent == tmp_path
        assert len(handle.path.parent.name) == 2  # two-hex bucket
        assert handle.duration_s == pytest.approx(1.0)

    def test_remote_needs_a_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # the variable is the pipeline's to read, not ingest's
        monkeypatch.setenv("VOICEFORGE_CACHE_DIR", str(tmp_path / "cache"))
        spec = SourceSpec(uri="mock://talk?duration=1&rate=8000&seed=1")
        with pytest.raises(ConfigurationError, match="cache directory"):
            acquire_source(spec, MockDownloader())
        assert list(tmp_path.iterdir()) == []

    def test_second_acquire_hits_cache(self, tmp_path):
        calls = []

        class CountingDownloader:
            def download(self, uri: str, dest_path: str) -> DownloadResult:
                calls.append(uri)
                return MockDownloader().download(uri, dest_path)

        spec = SourceSpec(uri="mock://talk?duration=1&rate=8000&seed=1")
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

        spec = SourceSpec(uri="mock://truncated")
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

        spec = SourceSpec(uri="mock://empty")
        with pytest.raises(IntegrityError, match="zero bytes"):
            acquire_source(spec, EmptyDownloader(), cache_dir=tmp_path)
        # the failed attempt must not leave a cache entry behind
        assert not any(p.is_file() for p in tmp_path.rglob("*"))

    def test_downloader_failure_carries_uri(self, tmp_path):
        class FailingDownloader:
            def download(self, uri: str, dest_path: str) -> DownloadResult:
                raise OSError("connection refused")

        spec = SourceSpec(uri="mock://down")
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
            """A whole-file backend: the file is one [channels, n] block."""

            def decode_blocks(self, path: str):
                return 16000, 100, iter([np.stack([np.full(100, 0.5), np.full(100, -0.5)])])

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


class _BlockDecoder:
    """Hands decode_to_audio fixed blocks, of any shape, through decode_blocks."""

    def __init__(self, rate: int, n_samples: int, blocks: list[np.ndarray]):
        self.rate, self.n_samples, self.blocks = rate, n_samples, blocks

    def decode_blocks(self, path: str):
        return self.rate, self.n_samples, iter(self.blocks)


class _RecordingDecoder(_BlockDecoder):
    """A _BlockDecoder that records the thread that pulls each of its blocks."""

    def __init__(self, rate: int, n_samples: int, blocks: list[np.ndarray]):
        super().__init__(rate, n_samples, blocks)
        self.pulled_by: list[threading.Thread] = []

    def decode_blocks(self, path: str):
        rate, n_samples, blocks = super().decode_blocks(path)

        def recorded():
            for block in blocks:
                self.pulled_by.append(threading.current_thread())
                yield block

        return rate, n_samples, recorded()


AHEAD_WORKER = "voiceforge-decode-ahead"


def _workers() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == AHEAD_WORKER]


def _wait_for(condition) -> None:
    deadline = time.monotonic() + 10.0
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def _zeros(n_blocks: int) -> list[np.ndarray]:
    return [np.zeros(400, np.float32) for _ in range(n_blocks)]


class TestDecodeAhead:
    """open_source's blocks are pulled on one worker thread that never outlives them."""

    def test_blocks_are_pulled_off_the_calling_thread(self, tmp_path):
        decoder = _RecordingDecoder(16000, 4000, _zeros(10))
        decode_to_audio(_stub(tmp_path), 8000, decoder)
        assert len(decoder.pulled_by) == 10
        assert len(set(decoder.pulled_by)) == 1
        assert decoder.pulled_by[0].name == AHEAD_WORKER
        assert decoder.pulled_by[0] is not threading.current_thread()

    def test_the_decoder_runs_at_most_ahead_blocks_ahead(self, tmp_path):
        decoder = _RecordingDecoder(8000, 400 * 12, _zeros(12))
        consumed = 0
        for _ in open_source(_stub(tmp_path), 8000, decoder).blocks:
            consumed += 1
            # one block blocked on the full queue, AHEAD_BLOCKS in it
            bound = min(12, consumed + AHEAD_BLOCKS + 1)
            _wait_for(lambda: len(decoder.pulled_by) >= bound)
            time.sleep(0.005)  # room for the worker to overrun, if it could
            assert len(decoder.pulled_by) == bound
        assert consumed == 12

    def test_an_unread_source_starts_no_thread(self, tmp_path):
        decoder = _RecordingDecoder(16000, 4000, _zeros(10))
        before = threading.enumerate()
        source = open_source(_stub(tmp_path), 8000, decoder)
        assert threading.enumerate() == before
        del source
        assert threading.enumerate() == before
        assert decoder.pulled_by == []

    @pytest.mark.parametrize("end", ["exhausted", "closed", "dropped", "consumer raised"])
    def test_no_worker_outlives_the_stream(self, tmp_path, monkeypatch, end):
        decoder = _RecordingDecoder(16000, 400 * 20, _zeros(20))
        source = open_source(_stub(tmp_path), 8000, decoder)
        if end == "exhausted":
            assert len(list(source.blocks)) == 20
        elif end in ("closed", "dropped"):
            blocks = source.blocks
            next(blocks)
            # the worker is blocked putting a block into the full queue
            _wait_for(lambda: len(decoder.pulled_by) == AHEAD_BLOCKS + 2)
            assert len(_workers()) == 1
            if end == "closed":
                blocks.close()
            else:
                del source, blocks
        else:
            real = audio._upfirdn
            calls = []

            def second_window_fails(*args, **kwargs):
                calls.append(1)
                if len(calls) == 2:
                    raise RuntimeError("consumer failed")
                return real(*args, **kwargs)

            monkeypatch.setattr(audio, "RESAMPLE_BLOCK", 400)
            monkeypatch.setattr(audio, "_upfirdn", second_window_fails)
            # `info` keeps the traceback, and with it the stream, alive below
            with pytest.raises(RuntimeError, match="consumer failed") as info:
                resample(source, 8000)
        assert decoder.pulled_by
        assert not _workers()

    @pytest.mark.parametrize("bad", [None, 2.0])
    def test_a_detached_worker_checks_the_rest_without_handing_it_over(self, tmp_path, bad):
        blocks = _zeros(12)
        if bad is not None:
            blocks[11][0] = bad
        decoder = _RecordingDecoder(8000, 400 * 12, blocks)
        stream = open_source(_stub(tmp_path), 8000, decoder).blocks
        next(stream)
        stream.detach()
        with pytest.raises(ValidationError) if bad else contextlib.nullcontext():
            stream.check(wait=True)
        assert len(decoder.pulled_by) == 12
        assert not _workers()
        assert next(stream, None) is None

    def test_a_detached_worker_stops_when_closed(self, tmp_path):
        release = threading.Event()

        def slow():
            for _ in range(50):
                release.wait(10.0)
                yield np.zeros(400, np.float32)

        stream = open_source(_stub(tmp_path), 8000, _BlockDecoder(8000, 400 * 50, slow())).blocks
        stream.detach()
        stream.check()  # the worker is still pulling: nothing to raise yet
        assert len(_workers()) == 1
        release.set()
        stream.close()
        assert not _workers()

    def test_detach_check_and_close_hold_under_frequent_thread_switches(self, tmp_path):
        """Four streams at once (more workers than cores), detached after 0 to 4 blocks."""
        outcomes = []

        def scenario():
            for round_ in range(10):
                decoders, streams = [], []
                for i in range(4):
                    blocks = _zeros(12)
                    if (round_ + i) % 3 == 0:
                        blocks[11][0] = 2.0
                    decoders.append(_RecordingDecoder(8000, 400 * 12, blocks))
                    streams.append(open_source(_stub(tmp_path), 8000, decoders[-1]).blocks)
                raised = set()  # the streams whose verdict `detach` already gave
                for i, stream in enumerate(streams):
                    for _ in range((round_ + i) % 5):
                        next(stream)
                    try:
                        stream.detach()  # raises a fault the worker has already met
                    except ValidationError:
                        raised.add(i)
                for i, (decoder, stream) in enumerate(zip(decoders, streams)):
                    if (round_ + i) % 4 == 3:
                        stream.close()
                        continue
                    faulted = i in raised
                    try:
                        stream.check(wait=True)
                    except ValidationError:
                        faulted = True
                    outcomes.append((faulted == ((round_ + i) % 3 == 0), len(decoder.pulled_by)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=scenario)
            runner.start()
            runner.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(outcomes) == 30
        # every fault is raised, and only where there is one, after all 12 blocks were checked
        assert outcomes == [(True, 12)] * 30
        assert not _workers()

    @pytest.mark.parametrize("k", [0, 3, 9])
    def test_a_decoder_fault_is_the_same_decode_error_after_every_block_before_it(self, tmp_path, k):
        def faulty():
            for i in range(10):
                if i == k:
                    raise RuntimeError("disk gone")
                yield np.zeros(400, np.float32)

        where = tmp_path / "media.bin"
        expected = f"[decode] cannot decode {where}: disk gone (source {where})"
        with pytest.raises(DecodeError) as info:
            decode_to_audio(_stub(tmp_path), 8000, _BlockDecoder(16000, 4000, faulty()))
        assert str(info.value) == expected
        assert isinstance(info.value.__cause__, RuntimeError)
        got = []
        with pytest.raises(DecodeError) as info:
            for block in open_source(_stub(tmp_path), 8000, _BlockDecoder(16000, 4000, faulty())).blocks:
                got.append(block)
        assert str(info.value) == expected
        assert len(got) == k


def _stub(tmp_path) -> RawMediaHandle:
    path = tmp_path / "media.bin"
    path.write_bytes(b"any media")
    return RawMediaHandle(path=path)


@STREAM_SETTINGS
@given(
    rates=st.sampled_from(STREAM_RATES),
    n=st.integers(1, 3000),
    stereo=st.booleans(),
    data=st.data(),
)
def test_block_route_equals_resampling_the_whole_source(tmp_path, monkeypatch, rates, n, stereo, data):
    monkeypatch.setattr(audio, "RESAMPLE_BLOCK", 700)
    rate_hz, target_rate_hz = rates
    rng = np.random.default_rng(n)
    whole = rng.uniform(-1.0, 1.0, (2, n) if stereo else n).astype(np.float32)
    expected = resample(AudioClip(samples=downmix_mean(whole), sample_rate_hz=rate_hz), target_rate_hz)
    decoder = _BlockDecoder(rate_hz, n, split_blocks(whole, data))  # 2-D blocks when stereo
    out = decode_to_audio(_stub(tmp_path), target_rate_hz, decoder)
    assert out.samples.tobytes() == expected.samples.tobytes()
    assert out.source_id == source_id_for(tmp_path / "media.bin")


class TestBlockRoute:
    def test_duration_mismatch_deletes_the_cached_file(self, tmp_path):
        class LongClaimDownloader:
            """Writes a 1 s MOCKAV stub but reports 10 s."""

            def download(self, uri: str, dest_path: str) -> DownloadResult:
                MockDownloader().download("mock://x?duration=1&rate=8000&seed=1", dest_path)
                return DownloadResult(container_format="mockav", duration_s=10.0)

        spec = SourceSpec(uri="mock://long-claim")
        handle = acquire_source(spec, LongClaimDownloader(), cache_dir=tmp_path)
        with pytest.raises(DecodeError, match="disagrees"):
            decode_to_audio(handle, 8000, MockDecoder())
        assert not handle.path.exists()

    @pytest.mark.parametrize("bad", [1.5, -1.01, np.nan])
    def test_out_of_range_sample_in_a_late_block(self, tmp_path, bad):
        blocks = [np.zeros(400, np.float32) for _ in range(5)]
        blocks[4][399] = bad
        with pytest.raises(ValidationError, match=r"\[-1, 1\]"):
            decode_to_audio(_stub(tmp_path), 8000, _BlockDecoder(16000, 2000, blocks))

    @pytest.mark.parametrize("n_blocks", [4, 6])
    @pytest.mark.parametrize("rate_hz", [16000, 8000])
    def test_blocks_that_do_not_add_up_are_a_decode_error(self, tmp_path, n_blocks, rate_hz):
        blocks = [np.zeros(400, np.float32) for _ in range(n_blocks)]
        with pytest.raises(DecodeError, match="reported 2000 samples but its blocks hold"):
            decode_to_audio(_stub(tmp_path), 8000, _BlockDecoder(rate_hz, 2000, blocks))

    def test_reading_stops_at_the_first_block_past_the_reported_count(self, tmp_path):
        pulled = []

        def runaway():
            for _ in range(50):
                pulled.append(1)
                yield np.zeros(400, np.float32)

        decoder = _BlockDecoder(16000, 2000, runaway())
        with pytest.raises(DecodeError, match="reported 2000 samples but its blocks hold more"):
            decode_to_audio(_stub(tmp_path), 8000, decoder)
        assert len(pulled) == 6

    def test_no_blocks_is_empty_audio(self, tmp_path):
        with pytest.raises(EmptyAudioError):
            decode_to_audio(_stub(tmp_path), 8000, _BlockDecoder(8000, 0, []))

    def test_a_decoder_without_decode_blocks_is_a_decode_error(self, tmp_path):
        class WholeFileDecoder:
            def decode(self, path: str):
                return np.zeros(800, np.float32), 8000

        where = tmp_path / "media.bin"
        with pytest.raises(DecodeError, match=f"cannot decode {where}: .*'decode_blocks'") as info:
            decode_to_audio(_stub(tmp_path), 8000, WholeFileDecoder())
        assert info.value.stage == "decode" and info.value.source_id == str(where)
        assert isinstance(info.value.__cause__, AttributeError)
        assert not _workers()



def _raised(call) -> tuple[type, str]:
    with pytest.raises((DecodeError, ValidationError)) as info:
        call()
    return type(info.value), str(info.value)


def _kept(source, target_rate_hz: int, stop: int):
    """`source` resampled to `stop`, once its detached `Ahead` has checked every later block."""
    with contextlib.closing(source.blocks) as rest:
        kept = resample(source, target_rate_hz, stop=stop)
        rest.detach()
        rest.check(wait=True)
    return kept


class TestKeptPrefix:
    """A source resampled with `stop` still has every block after it pulled and checked."""

    @pytest.mark.parametrize("rate_hz", [16000, 8000])
    @pytest.mark.parametrize("bad", [1.5, -1.01, np.nan])
    def test_out_of_range_sample_after_the_stop(self, tmp_path, rate_hz, bad):
        blocks = [np.zeros(400, np.float32) for _ in range(5)]
        blocks[4][399] = bad
        decoder = _BlockDecoder(rate_hz, 2000, blocks)
        whole = _raised(lambda: decode_to_audio(_stub(tmp_path), 8000, decoder))
        kept = _raised(lambda: _kept(open_source(_stub(tmp_path), 8000, decoder), 8000, 10))
        assert kept == whole and kept[0] is ValidationError

    @pytest.mark.parametrize("n_blocks", [4, 6, 50])
    @pytest.mark.parametrize("rate_hz", [16000, 8000])
    def test_blocks_that_do_not_add_up_after_the_stop(self, tmp_path, n_blocks, rate_hz):
        decoder = _BlockDecoder(rate_hz, 2000, [np.zeros(400, np.float32)] * n_blocks)
        whole = _raised(lambda: decode_to_audio(_stub(tmp_path), 8000, decoder))
        kept = _raised(lambda: _kept(open_source(_stub(tmp_path), 8000, decoder), 8000, 10))
        assert kept == whole and kept[0] is DecodeError
        assert "reported 2000 samples but its blocks hold" in kept[1]

    @pytest.mark.parametrize("rate_hz", [44100, 24000])
    def test_the_prefix_is_the_decoded_source_cut(self, tmp_path, rate_hz):
        spec = SourceSpec(uri=f"mock://x?duration=7&rate={rate_hz}&seed=2")
        handle = acquire_source(spec, MockDownloader(), cache_dir=tmp_path)
        whole = decode_to_audio(handle, 24000, MockDecoder())
        source = open_source(handle, 24000, MockDecoder())
        assert source.n_samples == 7 * rate_hz
        kept = _kept(source, 24000, 50_000)
        assert kept.samples.tobytes() == whole.samples[:50_000].tobytes()
        assert kept.source_id == whole.source_id

    def test_open_checks_the_target_rate_first(self, tmp_path):
        with pytest.raises(ConfigurationError, match="target_rate_hz"):
            open_source(_stub(tmp_path), 96000, _BlockDecoder(8000, 0, []))


def test_native_rate_source_is_never_whole(tmp_path):
    """Decoding 120 s of 44.1 kHz audio to 32 kHz and transcribing it stays near the output."""
    spec = SourceSpec(uri="mock://x?duration=120&rate=44100&seed=3")
    handle = acquire_source(spec, MockDownloader(), cache_dir=tmp_path)
    tracemalloc.start()
    try:
        clip = decode_to_audio(handle, 32000, MockDecoder())
        segments = MockAsrAdapter().transcribe(clip.samples, 32000, AsrConfig(language="hi"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert clip.n_samples == 120 * 32000 and segments
    # the whole native source alone would be 120 * 44100 * 4 bytes (20 MiB)
    assert peak < clip.samples.nbytes + 16 * 2**20
