"""The resampling kernel against its oracle, scipy.signal.

voiceforge designs its anti-alias filter (`audio._kaiser_taps`) and runs the
polyphase filter (`audio._upfirdn`) itself, and imports nothing from
scipy.signal. These tests import it as the oracle: the taps must be the bytes
of `firwin`, and every output the bytes of `resample_poly` with those taps.

Run as a script (`python tests/test_upfirdn.py`), the module runs the kernel
oracle and prints "ok"; the subprocess case uses that to repeat it with
numpy's SIMD dispatch forced down to its baseline.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import firwin, resample_poly

from voiceforge import audio
from voiceforge.audio import SampleBlocks, resampled_pieces

# every rate the tests, the mocks, the demos and perfbench resample between
RATES = (8000, 16000, 22050, 24000, 32000, 44100, 48000)
RATIOS = sorted(
    {(b // math.gcd(a, b), a // math.gcd(a, b)) for a in RATES for b in RATES if a != b}
    | {(1, 2), (1, 3)}
)
WINDOW = 3000  # output samples per window in the windowed runs


def _oracle(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """resample_poly with the same taps, clipped as voiceforge clips."""
    return np.clip(resample_poly(x, up, down, window=audio._kaiser_taps(up, down)), -1.0, 1.0)


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


def check_kernel(up: int, down: int) -> None:
    """One `_upfirdn` call over the whole input equals the oracle byte for byte, at every length."""
    bank = audio._filter_bank(up, down)
    for n in _lengths(up, down):
        x = _signal(n, seed=up * 1000 + down + n)
        expected = _oracle(x, up, down)
        acc = np.empty(-(-expected.size // up) * up)
        got = audio._upfirdn(x, 0, 0, expected.size, bank, acc)
        assert got.tobytes() == expected.tobytes(), f"{up}/{down}, {n} samples"


@pytest.mark.parametrize("up,down", RATIOS)
def test_taps_are_the_bytes_of_firwin(up, down):
    rate = max(up, down)
    expected = firwin(20 * rate + 1, 1 / rate, window=("kaiser", 5.0))
    assert audio._kaiser_taps(up, down).tobytes() == expected.tobytes()


@pytest.mark.parametrize("up,down", RATIOS)
def test_kernel_is_the_bytes_of_resample_poly(up, down):
    check_kernel(up, down)


@pytest.mark.parametrize("up,down", RATIOS)
def test_windowed_resample_is_the_bytes_of_resample_poly(monkeypatch, up, down):
    """Through `resampled_pieces`, each window is one kernel call over a window of the input."""
    monkeypatch.setattr(audio, "RESAMPLE_BLOCK", WINDOW)
    for n in _lengths(up, down):
        x = _signal(n, seed=up + down + n)
        stream = SampleBlocks(down * 1000, n, [x.astype(np.float32)])
        # each piece is copied before the next one reuses its buffer
        got = np.concatenate([piece.copy() for piece in resampled_pieces(stream, up * 1000)])
        assert got.tobytes() == _oracle(x, up, down).tobytes(), f"{n} samples"


def test_baseline_simd_dispatch_gives_the_same_bytes():
    from test_golden import _cpu_dispatch

    env = dict(os.environ)
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(_cpu_dispatch())
    src = str(Path(audio.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]


def test_import_and_resample_leave_scipy_signal_unloaded():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import voiceforge\n"
        "from voiceforge.audio import AudioClip, resample\n"
        "resample(AudioClip(np.zeros(44100, np.float32), 44100), 32000)\n"
        "assert 'scipy.signal' not in sys.modules, sorted(sys.modules)\n"
    )
    env = dict(os.environ)
    src = str(Path(audio.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


if __name__ == "__main__":
    for ratio in RATIOS:
        check_kernel(*ratio)
    print("ok")
