"""LJ prep in windows: the same (text, clip) pairs as the whole source, in bounded memory."""

from __future__ import annotations

import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from voiceforge import pipeline
from voiceforge.adapters import default_registry
from voiceforge.adapters.base import AdapterDescriptor, AdapterRole
from voiceforge.adapters.mocks import MockAsrAdapter, MockDiarizationAdapter, MockTranscodeAdapter
from voiceforge.audio import AudioClip, resample, save_wav
from voiceforge.config import parse_config
from voiceforge.corpus import work_dir_for
from voiceforge.quality import SILENCE_EPS
from voiceforge.transcribe import diarize, slice_by_segments, transcribe

from test_pipeline import FaultyDecoder

# the gaps (s) between the speech runs of a generated WAV source: both sides of
# SPEECH_GAP_S (0.3 s), and only below it
WIDE_GAPS, SHORT_GAPS = (0.05, 0.8), (0.2, 0.3)
# the standard deviation of a noise floor at -60 dBFS: no run of 0.3 s stays below SILENCE_EPS
FLOOR = 1e-3


@pytest.fixture(autouse=True)
def _isolated_env(monkeypatch):
    monkeypatch.delenv("VOICEFORGE_CACHE_DIR", raising=False)


def _config(root: Path, uri: str, decoder: str = "mock", **adapters):
    return parse_config(
        {
            "methodology": "rvc_convert",
            "source": {"uri": uri},
            "output": {"root": str(root), "split": {"valid_fraction": 0.1, "seed": 9}},
            "adapters": {"downloader": "mock", "decoder": decoder, **adapters},
        }
    )


def _gappy_wav(
    path: Path, rate: int, seed: int, duration_s: float, gaps: tuple, floor: float = 0.0
) -> Path:
    """Harmonic speech runs of 0.5-3 s, `gaps` seconds apart, over noise of deviation `floor`."""
    rng = np.random.default_rng(seed)
    samples = np.zeros(int(duration_s * rate), dtype=np.float32)
    pos = 0
    while pos < samples.size:
        t = np.arange(min(int(rng.uniform(0.5, 3.0) * rate), samples.size - pos)) / rate
        w = 2 * np.pi * rng.uniform(90.0, 220.0) * t
        samples[pos : pos + t.size] = 0.4 * np.sin(w + 0.5) + 0.1 * np.sin(3 * w)
        pos += t.size + int(rng.uniform(*gaps) * rate)
    samples += rng.normal(0.0, floor, samples.size).astype(np.float32) if floor else 0.0
    save_wav(AudioClip(samples=samples, sample_rate_hz=rate), path)
    return path


def _source_config(tmp: Path, kind: str, rate: int, seed: int, duration_s: float):
    if kind == "mock":
        return _config(tmp / "out", f"mock://talk?duration={duration_s}&rate={rate}&seed={seed}")
    gaps = SHORT_GAPS if kind == "short-gaps" else WIDE_GAPS
    floor = FLOOR if kind == "noise-floor" else 0.0
    wav = _gappy_wav(tmp / "a.wav", rate, seed, duration_s, gaps, floor)
    return _config(tmp / "out", str(wav), "wav")


def _windowed(config, registry=None):
    """LJ prep's (text, clip bytes) pairs, and its summary."""
    adapters = pipeline.resolve_adapters(config, registry or default_registry())
    summary = pipeline.RunSummary(methodology="rvc_convert", output_root=config.output.root)
    candidates = pipeline._lj_prep(config, adapters, summary, False)
    return [(entry.sentence, clip.samples.tobytes()) for entry, clip in candidates], summary


def _decoded(config, adapters) -> AudioClip:
    """The job's source resampled whole, as `decode_to_audio` gives it."""
    return resample(*pipeline._source(config, adapters, work_dir_for(config.output.root)))


def _whole(config):
    """The pairs of the whole source: decoded whole, then one transcribe and one slice."""
    adapters = pipeline.resolve_adapters(config, default_registry())
    source = _decoded(config, adapters)
    segments = transcribe(source, config.asr, adapters[AdapterRole.ASR])
    pairs = slice_by_segments(source, segments)
    return [(text, clip.samples.tobytes()) for clip, text in pairs], source


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["mock", "wav", "short-gaps", "noise-floor"]),
    rate=st.sampled_from([44100, 32000]),
    seed=st.integers(0, 2**16),
    duration_s=st.floats(31.0, 80.0),
)
# every silence is shorter than the merge gap: a cut-silence constant below it cuts one
@example(kind="short-gaps", rate=32000, seed=1, duration_s=45.0)
def test_windowed_pairs_equal_the_whole_source(kind, rate, seed, duration_s):
    with tempfile.TemporaryDirectory() as tmp:
        config = _source_config(Path(tmp), kind, rate, seed, duration_s)
        windowed, summary = _windowed(config)
        whole, _ = _whole(config)
    assert windowed == whole
    assert summary.clips_in == len(whole)


@pytest.mark.parametrize("rate", [44100, 32000])
def test_a_source_that_ends_mid_utterance(tmp_path, rate):
    config = _config(tmp_path / "out", f"mock://talk?duration=95.5&rate={rate}&seed=4")
    windowed, _ = _windowed(config)
    whole, source = _whole(config)
    voiced = np.flatnonzero(np.abs(source.samples) >= SILENCE_EPS)
    assert source.n_samples - voiced[-1] < 0.05 * source.sample_rate_hz  # cut off, then faded
    assert source.duration_s > 3 * pipeline.WINDOW_S and windowed == whole


def test_a_cut_in_a_silence_shorter_than_the_merge_gap_would_split_a_span(tmp_path, monkeypatch):
    """Why windows are cut only in a silence of SPEECH_GAP_S, the mock ASR's merge gap."""
    config = _source_config(tmp_path, "short-gaps", 32000, 1, 45.0)
    whole, _ = _whole(config)
    assert _windowed(config)[0] == whole
    monkeypatch.setattr(pipeline, "SPEECH_GAP_S", 0.2)  # the cutter's name only, not the mock's
    assert _windowed(config)[0] != whole


def _peak(work) -> int:
    """The most memory that `work()` held at once, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        work()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _lj_peak(root: Path, duration_s: int) -> int:
    config = _config(root, f"mock://talk?duration={duration_s}&rate=44100&seed=5")
    return _peak(lambda: pipeline.run(config))


def test_lj_prep_memory_does_not_grow_with_the_source(tmp_path):
    """A source 4x longer peaks within 10 MB of the shorter one (the whole 180 s more is 23 MB)."""
    short = _lj_peak(tmp_path / "short", 60)
    long = _lj_peak(tmp_path / "long", 240)
    assert long - short < 10 * 2**20, (short, long)


def test_a_source_without_digital_silence_costs_no_more_than_holding_it_whole(tmp_path):
    """A noise floor leaves no silence to cut at: LJ prep is then one window of the whole source.

    Its peak stays within 1 MiB of the whole-source path (decode, then one
    diarize, transcribe and slice), though the window outgrows its
    first buffer: it is moved once into one for the rest of the source, not
    doubled as it grows. 140 s is just past a doubling (about 130 s), where a
    doubled buffer would peak at about 390 s of samples, against 280 s.
    """
    config = _source_config(tmp_path, "noise-floor", 32000, 3, 140.0)
    adapters = pipeline.resolve_adapters(config, default_registry())
    summary = pipeline.RunSummary(methodology="rvc_convert", output_root=config.output.root)

    def windowed():
        for _ in pipeline._lj_prep(config, adapters, summary, False):
            pass

    def whole():
        clip = _decoded(config, adapters)
        diarize(clip, adapters[AdapterRole.DIARIZATION])
        for _ in slice_by_segments(clip, transcribe(clip, config.asr, adapters[AdapterRole.ASR])):
            pass

    whole_peak = _peak(whole)
    windowed_peak = _peak(windowed)
    assert summary.clips_in == 1  # one span, so one window
    assert windowed_peak <= whole_peak + 2**20, (windowed_peak, whole_peak)


class CountingAsr(MockAsrAdapter):
    def __init__(self):
        self.calls = 0

    def transcribe(self, samples, rate, config):
        self.calls += 1
        return super().transcribe(samples, rate, config)


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("fault", ["nan", "short", "long"])
def test_a_late_decode_fault_keeps_the_old_dataset(tmp_path, fault):
    root = tmp_path / "out"
    uri = "mock://talk?duration=120&rate=44100&seed=3"
    pipeline.run(_config(root, uri))
    before = _tree(root)

    registry = default_registry()
    asr, transcoder = CountingAsr(), MockTranscodeAdapter()
    encoded = []
    encode = transcoder.encode
    transcoder.encode = lambda *args: encoded.append(1) or encode(*args)
    for role, id, impl in (
        (AdapterRole.DECODER, "faulty", FaultyDecoder(fault)),
        (AdapterRole.ASR, "counting", asr),
        (AdapterRole.TRANSCODE, "counting", transcoder),
    ):
        registry.register(AdapterDescriptor(role=role, id=id), impl)
    config = _config(root, uri, "faulty", asr="counting", transcode="counting")
    with pytest.raises(Exception) as raised:
        pipeline.run(config, registry)

    with pytest.raises(Exception) as whole:
        _decoded(config, pipeline.resolve_adapters(config, registry))
    assert type(raised.value) is type(whole.value) and str(raised.value) == str(whole.value)
    assert asr.calls >= 3 and encoded  # the windows before the fault were packaged
    assert _tree(root) == before
    assert not (work_dir_for(root) / "staging").exists()
    assert not [t for t in threading.enumerate() if t.name == "voiceforge-decode-ahead"]


@pytest.mark.parametrize("n_speakers,warned", [(1, False), (2, True)])
def test_lj_prep_warns_of_a_second_speaker(tmp_path, n_speakers, warned):
    registry = default_registry()
    diarizer = MockDiarizationAdapter(n_speakers=n_speakers)
    registry.register(AdapterDescriptor(role=AdapterRole.DIARIZATION, id="n"), diarizer)
    config = _config(tmp_path / "out", "mock://talk?duration=70&rate=32000&seed=2", diarization="n")
    summary = pipeline.run(config, registry)
    warnings = [m for m in summary.messages if "non-dominant speakers" in m]
    assert bool(warnings) is warned
