"""The resampling kernel against an exact integer oracle.

voiceforge designs its anti-alias filter (`audio._kaiser_taps`) and runs the
polyphase filter (`audio._upfirdn`) itself, in fixed point: the taps are
multiples of 2^-26 and the inputs multiples of 2^-24, so each product is an
integer times 2^-50 and each sum is exact in any order. The oracle here sums
those integers in int64, so every output must be its bytes, however BLAS
adds. scipy.signal stays an oracle twice: the taps the kernel reads, rounded
to 2^-26, must be the bytes of `firwin` rounded alike (as float64 they may
differ in the last bits, since voiceforge uses `np.i0` and firwin
`scipy.special.i0`), and every output within 1e-6 of `resample_poly` with
those taps.

Run as a script (`python tests/test_upfirdn.py`), the module checks the
kernel against the oracle and prints the SHA-256 of all its outputs; the
subprocess cases use that to repeat it with numpy's SIMD dispatch forced down
to its baseline and with OpenBLAS on one thread.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import firwin, resample_poly

from voiceforge import audio
from voiceforge.audio import AudioClip, SampleBlocks, resample, resampled_pieces

# every rate the tests, the mocks, the demos and perfbench resample between
RATES = (8000, 16000, 22050, 24000, 32000, 44100, 48000)
RATIOS = sorted(
    {(b // math.gcd(a, b), a // math.gcd(a, b)) for a in RATES for b in RATES if a != b}
    | {(1, 2), (1, 3)}
)
# every ratio between the common audio rates, 8 to 96 kHz
COMMON_RATES = (8000, 11025, 12000, 16000, 22050, 24000, 32000, 44100, 48000, 88200, 96000)
COMMON_RATIOS = sorted(
    {(b // math.gcd(a, b), a // math.gcd(a, b)) for a in COMMON_RATES for b in COMMON_RATES if a != b}
)
WINDOW = 3000  # output samples per window in the windowed runs


def integer_resample(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """The resampler's outputs from integer arithmetic alone, clipped as voiceforge clips.

    Output j is the sum of the taps times the inputs that resample_poly
    pairs with it, each tap rounded to an int64 count of 2^-26 and each input
    to an int64 count of 2^-24; that sum, times 2^-50, is exact in float64.
    """
    taps = np.rint(audio._kaiser_taps(up, down) * (up * 2.0**26)).astype(np.int64)
    xi = np.rint(x * 2.0**24).astype(np.int64)
    n_out = -(-x.size * up // down)
    per = -(-taps.size // up)
    v = np.arange(n_out) * down + taps.size // 2  # output j on the upsampled grid
    i = v[:, None] // up - np.arange(per)  # the inputs that output j may meet
    k = v[:, None] - i * up  # and the tap that each one meets
    meets = (i >= 0) & (i < x.size) & (k < taps.size)
    terms = np.where(meets, taps[np.minimum(k, taps.size - 1)] * xi[np.clip(i, 0, x.size - 1)], 0)
    return np.clip(terms.sum(axis=1).astype(np.float64) * 2.0**-50, -1.0, 1.0)


def _signal(n: int, seed: int) -> np.ndarray:
    """Full-scale +-1 runs, moderate noise and runs of +0.0 and -0.0, as float32 values."""
    rng = np.random.default_rng(seed)
    x = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    x[n // 4 : n // 2] *= rng.uniform(0.0, 0.5, n // 2 - n // 4)
    x[n // 2 : 5 * n // 8] = 0.0
    x[5 * n // 8 : 3 * n // 4] = -0.0
    return x.astype(np.float32).astype(np.float64)


def _lengths(up: int, down: int) -> list[int]:
    """1, down +-1, one window's input +-1 and three windows plus a tail."""
    one = WINDOW // up * down
    return sorted({n for n in (1, 2, down - 1, down, down + 1, one - 1, one, one + 1, 3 * one + down + 7) if n > 0})


def _kernel(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """One `_upfirdn` call over the whole input, in counts of 2^-24 as `resampled_pieces` rounds it.

    The input is padded with zeros: the -first that the first outputs read
    before it, and `span` after it, at least as many as the last ones read.
    """
    n_out = -(-x.size * up // down)
    acc = np.empty(-(-n_out // up) * up)
    bank = audio._filter_bank(up, down)
    padded = np.concatenate([np.zeros(-bank.first), np.rint(x * 2.0**24), np.zeros(bank.span)])
    return audio._upfirdn(padded, bank.first, 0, n_out, bank, acc)


def check_kernel(up: int, down: int) -> bytes:
    """The kernel equals the integer oracle byte for byte at every length; returns its outputs' bytes."""
    outputs = []
    for n in _lengths(up, down):
        x = _signal(n, seed=up * 1000 + down + n)
        got = _kernel(x, up, down).tobytes()
        assert got == integer_resample(x, up, down).tobytes(), f"{up}/{down}, {n} samples"
        outputs.append(got)
    return b"".join(outputs)


def kernel_digest() -> str:
    """SHA-256 of the kernel's outputs over every ratio and length, each checked against the oracle."""
    digest = hashlib.sha256()
    for ratio in RATIOS:
        digest.update(check_kernel(*ratio))
    return digest.hexdigest()


@pytest.mark.parametrize("up,down", COMMON_RATIOS)
def test_taps_are_the_bytes_of_firwin(up, down):
    """The taps as the kernel reads them, counts of 2^-26 after scaling by `up`, are firwin's."""
    rate = max(up, down)
    expected = firwin(20 * rate + 1, 1 / rate, window=("kaiser", 5.0))
    scale = up * 2.0**26
    assert np.rint(audio._kaiser_taps(up, down) * scale).tobytes() == np.rint(expected * scale).tobytes()


@pytest.mark.parametrize("up,down", RATIOS)
def test_kernel_is_the_bytes_of_resample_poly(up, down):
    """The kernel is resample_poly's sum in fixed point: the integer sum's bytes, within 1e-6 of scipy's.

    Rounding moves an output by at most (taps met) * 2^-27 + sum|taps| * 2^-25:
    each tap moves by at most 2^-27 and meets an input of at most 1, and each
    input moves by at most 2^-25 and meets taps that sum to at most 2.25 in
    absolute value. At 1/6 an output meets 121 taps, so 9.0e-7 + 6.7e-8.
    """
    check_kernel(up, down)
    for n in _lengths(up, down):
        x = _signal(n, seed=up * 1000 + down + n)
        expected = np.clip(resample_poly(x, up, down, window=audio._kaiser_taps(up, down)), -1.0, 1.0)
        assert np.max(np.abs(_kernel(x, up, down) - expected)) < 1e-6, f"{n} samples"


@pytest.mark.parametrize("up,down", RATIOS)
def test_windowed_resample_is_the_bytes_of_resample_poly(monkeypatch, up, down):
    """Through `resampled_pieces`, each window is one kernel call over a window of the input,
    and the output is the integer sum's bytes."""
    monkeypatch.setattr(audio, "RESAMPLE_BLOCK", WINDOW)
    for n in _lengths(up, down):
        x = _signal(n, seed=up + down + n)
        stream = SampleBlocks(down * 1000, n, [x.astype(np.float32)])
        # each piece is copied before the next one reuses its buffer
        got = np.concatenate([piece.copy() for piece in resampled_pieces(stream, up * 1000)])
        assert got.tobytes() == integer_resample(x, up, down).tobytes(), f"{n} samples"


@pytest.mark.parametrize("up,down", [(4, 3), (320, 441), (2, 3), (1, 2)])
def test_kernel_refuses_an_input_short_of_what_its_outputs_read(up, down):
    """`_upfirdn` strides over `x` unchecked by numpy, so it checks the bounds itself."""
    bank = audio._filter_bank(up, down)
    n_out = 3 * up
    need = (n_out // up - 1) * down + bank.span  # the inputs that outputs [0, n_out) read
    acc = np.empty(n_out)
    audio._upfirdn(np.zeros(need), bank.first, 0, n_out, bank, acc)
    with pytest.raises(ValueError, match="read inputs"):
        audio._upfirdn(np.zeros(need - 1), bank.first, 0, n_out, bank, acc)
    with pytest.raises(ValueError, match="read inputs"):
        audio._upfirdn(np.zeros(need), bank.first + 1, 0, n_out, bank, acc)


@pytest.mark.parametrize("up,down", RATIOS)
def test_filter_bank_sums_are_exact(up, down):
    """Every tap is a multiple of 2^-26, held times the 2^-24 of an input count, and an output's
    integer terms sum to below 2^53 in any order. Each block's merged rows are the fewest that
    do not overlap."""
    bank = audio._filter_bank(up, down)
    for _, _, h, _, m, _ in bank.blocks:
        counts = h * 2.0**26 * 2.0**24
        assert np.array_equal(counts, np.rint(counts))
        assert np.abs(counts).sum(axis=0).max() * 2.0**24 < 2.0**53
        assert (m - 1) * bank.groups * down < h.shape[0] <= m * bank.groups * down


def test_filter_bank_refuses_taps_too_fine_for_exact_sums(monkeypatch):
    monkeypatch.setattr(audio, "TAP_SCALE", 2.0**28)  # 2.25 * 2^28 * 2^24 > 2^53 at 640/441
    audio._filter_bank.cache_clear()
    try:
        with pytest.raises(AssertionError):
            audio._filter_bank(640, 441)
    finally:
        audio._filter_bank.cache_clear()


@pytest.mark.parametrize(
    "rate_hz,target_rate_hz,seconds",
    [(44100, 32000, 60), (24000, 32000, 12), (48000, 32000, 12), (48000, 24000, 12), (8000, 48000, 12)],
)
def test_every_matmul_stays_under_the_single_thread_cap(monkeypatch, rate_hz, target_rate_hz, seconds):
    """No product's m*n*k passes BLAS_MNK_CAP, so OpenBLAS runs each one on the calling thread.
    A call with a stack of products hands BLAS each product on its own."""
    sizes = []
    real = np.matmul

    def counting_matmul(a, b, **kwargs):
        sizes.append(a.shape[-2] * b.shape[-1] * a.shape[-1])
        return real(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", counting_matmul)
    t = np.arange(seconds * rate_hz) / rate_hz
    clip = AudioClip(samples=(0.5 * np.sin(2 * np.pi * 440 * t)).astype(np.float32), sample_rate_hz=rate_hz)
    resample(clip, target_rate_hz)
    assert sizes and max(sizes) <= audio.BLAS_MNK_CAP == 1 << 18


@pytest.mark.parametrize("block", [1 << 14, 1 << 16])
@pytest.mark.parametrize("up,down", [(4, 3), (2, 3), (1, 2)])
def test_a_kernel_call_copies_no_input(monkeypatch, up, down, block):
    """Each `_upfirdn` call of a windowed resample allocates under 64 KiB: BLAS reads the rows
    of every product where they lie, with no copy of the window's input."""
    monkeypatch.setattr(audio, "RESAMPLE_BLOCK", block)
    peaks = []
    real = audio._upfirdn

    def measured(*args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = real(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(audio, "_upfirdn", measured)
    n = 2 * block * down // up + 999  # two whole windows and a part
    stream = SampleBlocks(down * 1000, n, [_signal(n, seed=up + down).astype(np.float32)])
    tracemalloc.start()
    try:
        for _ in resampled_pieces(stream, up * 1000):
            pass
    finally:
        tracemalloc.stop()
    assert len(peaks) == 3 and max(peaks) < 64 * 1024


def _run_script(**env_vars: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, **env_vars)
    src = str(Path(audio.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def digest() -> str:
    return kernel_digest()


def test_baseline_simd_dispatch_gives_the_same_bytes(digest):
    from test_golden import _cpu_dispatch

    done = _run_script(NPY_DISABLE_CPU_FEATURES=" ".join(_cpu_dispatch()))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [digest]


def test_one_blas_thread_gives_the_same_bytes(digest):
    done = _run_script(OPENBLAS_NUM_THREADS="1")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [digest]


def test_import_and_resample_leave_scipy_signal_unloaded(tmp_path):
    """A run's set-up and its resampler load neither scipy.special, scipy.signal nor ssl."""
    config = tmp_path / "config.yaml"
    config.write_text(
        "methodology: bark_prompt\n"
        "source: {uri: 'mock://talk?duration=30'}\n"
        "generation: {sentences: [one sentence.]}\n"
        "output: {root: out}\n",
        encoding="utf-8",
    )
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import voiceforge\n"
        "from voiceforge.adapters import default_registry\n"
        "from voiceforge.audio import AudioClip, resample\n"
        "from voiceforge.config import load_config\n"
        "default_registry()\n"
        f"load_config({str(config)!r})\n"
        "resample(AudioClip(np.zeros(44100, np.float32), 44100), 32000)\n"
        "loaded = {'scipy.special', 'scipy.signal', 'ssl'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )
    env = dict(os.environ)
    src = str(Path(audio.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


if __name__ == "__main__":
    print(kernel_digest())
