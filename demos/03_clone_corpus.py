"""End-to-end prompted generation: one source recording in, a dataset out.

The run below downloads a (mock) recording, segments it, extracts a speaker
prompt, synthesizes every sentence in that voice, and packages the clips as
a Common Voice style dataset with a train/valid split and a quality report.
"""

import json
import shutil
from pathlib import Path

from voiceforge import parse_config, read_common_voice, run

out_dir = Path(__file__).parent / "_output" / "03_clone_corpus"
shutil.rmtree(out_dir, ignore_errors=True)
shutil.rmtree(str(out_dir) + ".work", ignore_errors=True)

sentences = [
    "नमस्ते, आप कैसे हैं?",
    "आज मौसम बहुत अच्छा है।",
    "मुझे संगीत सुनना पसंद है।",
    "कल हम बाजार जाएंगे।",
    "यह किताब बहुत रोचक है।",
]

config = parse_config(
    {
        "methodology": "bark_prompt",
        "source": {"uri": "mock://lecture?duration=120&rate=24000&seed=9"},
        "generation": {"seed": 42, "sentences": sentences},
        "output": {
            "root": str(out_dir),
            "split": {"valid_fraction": 0.2, "seed": 7},
        },
        # swap these ids for real backends once registered
        "adapters": {"downloader": "mock", "decoder": "mock"},
    }
)

summary = run(config)
print(f"{summary.methodology}: {summary.entries_written} entries at {summary.output_root}")
for note in summary.messages:
    print(f"  {note}")

entries = read_common_voice(out_dir)
print(f"\ntrain+valid entries: {len(entries)}")
for entry in entries[:3]:
    print(f"  {entry.clip_id}: {entry.sentence}")

report = json.loads((out_dir / "quality_report.json").read_text(encoding="utf-8"))
print(f"\nquality metrics: {report['metrics']}")

# The same config re-run with resume=True reuses the clip files already in the
# work dir, so a killed run picks up where it stopped instead of regenerating
# everything.
again = run(config, resume=True)
print(f"\nresumed run rewrote {again.entries_written} entries without new synthesis")
