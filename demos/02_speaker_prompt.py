"""Turn a short reference recording into a reusable speaker prompt.

A prompt bundles three arrays: semantic tokens, coarse codec codes, and fine
codec codes, where the coarse codes are the first rows of the fine ones. The
TTS backend conditions on them to speak in the reference voice. The npz file
written here is what the synthesis stage loads.
"""

import shutil
from pathlib import Path

from voiceforge import (
    AudioClip,
    SpeakerPrompt,
    extract_codebooks,
    extract_semantic_tokens,
    load_prompt,
    save_prompt,
)
from voiceforge.adapters.mocks import (
    MockCodecAdapter,
    MockSemanticEncoderAdapter,
    MockTokenQuantizerAdapter,
    speechlike_waveform,
)

out_dir = Path(__file__).parent / "_output" / "02_speaker_prompt"
shutil.rmtree(out_dir, ignore_errors=True)
out_dir.mkdir(parents=True)

codec = MockCodecAdapter()  # 24 kHz native, 75 codebook frames per second
reference = AudioClip(
    samples=speechlike_waveform(10 * codec.native_rate_hz, codec.native_rate_hz, seed=21),
    sample_rate_hz=codec.native_rate_hz,
    source_id="reference_take_3",
)

fine = extract_codebooks(reference, codec)
print(f"fine codes:   {fine.codes.shape} (codebooks x frames)")

semantic = extract_semantic_tokens(
    reference, MockSemanticEncoderAdapter(), MockTokenQuantizerAdapter()
)
print(f"semantic tokens: {semantic.shape[0]} at 50 per second")

prompt = SpeakerPrompt(semantic, fine, n_coarse=2, source_id=reference.source_id)
print(f"coarse codes: {prompt.coarse.codes.shape} (first rows of fine)")

path = out_dir / "reference_take_3.npz"
save_prompt(prompt, path)
reloaded = load_prompt(path)
assert reloaded == prompt
print(f"saved and reloaded identically: {path}")
