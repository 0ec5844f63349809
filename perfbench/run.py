"""voiceforge benchmark: time one workload end to end, check its output.

    python3 perfbench/run.py --workload clone_cv --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; it builds nothing and
imports voiceforge from `src/`. Each iteration is a fresh child process
(perfbench/child.py) with a fresh output root and cache directory, so
`peak_rss_mb` is that iteration's own high-water mark. Iterations repeat
until `--seconds` have passed; every metric is the median over them.

With `--trace 0` the last line holds the end-to-end metrics. With
`--trace 1` untraced and traced iterations alternate, and the last line
holds the per-layer metrics taken from the traced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import END_TO_END, PER_LAYER, UNITS
from workloads import CONVERT_RATE_HZ, INDEX_REF, MODEL_REF, NAMES, Size, config_for, convert_clips, write_config

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # least number of set-up timings per run; each iteration gives one
TIME_LIMIT_S = 170.0  # the whole benchmark run must end well inside 180 s
SETUP_KEYS = ("setup_s", "voiceforge.import_s", "adapters.registry_s", "config.load_s")


class Bench:
    """The child processes of one benchmark run and their results."""

    def __init__(self, workload: str, seed: int, size: Size, work: Path):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work
        self.started = time.monotonic()
        self.corpus = work / "input_corpus" if workload == "convert_cv" else None
        self.env = dict(os.environ)
        self.env.pop("VOICEFORGE_MOCK_TTS_ABORT_AFTER", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.env["TMPDIR"] = str(work)
        self.env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts in every iteration
        self.count = 0

    def child(self, mode: str, spec: dict) -> dict:
        self.count += 1
        spec_path = self.work / f"spec_{self.count}.json"
        spec["result"] = str(self.work / f"result_{self.count}.json")
        spec_path.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
        remaining = TIME_LIMIT_S - (time.monotonic() - self.started)
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, str(spec_path)],
            cwd=self.work,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(remaining, 1.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))

    def prepare(self) -> None:
        """Generate the convert_cv input corpus; untimed and outside every metric."""
        if self.corpus is None:
            return
        self.child(
            "prepare",
            {
                "rate_hz": CONVERT_RATE_HZ,
                "clips": convert_clips(self.seed, self.size.items),
                "corpus": str(self.corpus),
                "split": {"valid_fraction": 0.1, "seed": self.seed},
                "model_files": [MODEL_REF, INDEX_REF],
            },
        )

    def _in_run_dir(self, mode: str, trace: bool) -> dict:
        """One child with a fresh config, output root and cache directory."""
        run_dir = self.work / f"run_{self.count + 1}"
        run_dir.mkdir()
        config = run_dir / "config.yaml"
        write_config(
            config,
            config_for(self.workload, self.seed, self.size, run_dir / "dataset", self.corpus),
        )
        self.env["VOICEFORGE_CACHE_DIR"] = str(run_dir / "cache")
        spec = {
            "workload": self.workload,
            "config": str(config),
            "trace": trace,
            "spans": str(self.work.parent / f"spans-{self.workload}-{self.seed}.json"),
        }
        try:
            return self.child(mode, spec)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def iteration(self, trace: bool) -> dict:
        return self._in_run_dir("run", trace)

    def setup_only(self) -> dict:
        return self._in_run_dir("setup", False)


def median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[list[dict], list[dict], list[dict]]:
    """Untraced and traced iterations until `seconds` pass, then set-up top-ups."""
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while not plain or (trace and not traced) or time.monotonic() - start < seconds:
        if trace and len(traced) < len(plain):
            traced.append(bench.iteration(trace=True))
        else:
            plain.append(bench.iteration(trace=False))
    setups = [{k: r[k] for k in SETUP_KEYS} for r in plain + traced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.setup_only())
    return plain, traced, setups


def report(workload: str, seed: int, trace: bool, plain, traced, setups) -> dict:
    runs = plain + traced
    digests = sorted({r["digest"] for r in runs})
    problems = [p for r in runs for p in r["problems"]]
    if len(digests) > 1:
        problems.append(f"output digest differs between iterations: {digests}")
    items = sum(r["attempted"] for r in runs)
    lost = sum(r["failed"] for r in runs)
    failed_runs = sum(1 for r in runs if r["problems"])

    print(f"voiceforge benchmark: workload {workload}, seed {seed}, "
          f"{len(plain)} untraced + {len(traced)} traced iterations, {len(setups)} set-ups")
    print(f"environment: python {platform.python_version()}, numpy {runs[0]['numpy']}, "
          f"scipy {runs[0]['scipy']}, nproc {os.cpu_count()}")
    print(f"check: {'ok' if not problems else 'FAILED'}; {len(runs)} runs, {failed_runs} failed; "
          f"items attempted {items}, failed {lost}, items_failed_frac {lost / max(items, 1):.4f}")
    for problem in problems[:10]:
        print(f"  problem: {problem}")
    print(f"output digest: {' '.join(digests)}")
    if any(r["validate_error"] for r in runs):
        # Known defect on convert_cv: conversion writes Common Voice, but an
        # rvc_convert config defaults to output.format lj (perfbench/README.md).
        print(f"validate_dataset raised: {runs[0]['validate_error'][:100]}...")

    if trace:
        print(f"spans of the last traced iteration, all written to {traced[-1]['spans_file']}:")
        print(f"  {'span':36s} {'calls':>6s} {'total s':>10s} {'self s':>10s}")
        for name, calls, total, own in traced[-1]["span_table"]:
            print(f"  {name:36s} {calls:6d} {total:10.4f} {own:10.4f}")
        metrics = {}
        for name, _, _ in PER_LAYER:
            if name in SETUP_KEYS:
                metrics[name] = statistics.median(s[name] for s in setups)
            elif name == "trace.overhead_frac":
                metrics[name] = median(traced, "wall_s") / median(plain, "wall_s") - 1.0
            else:
                metrics[name] = statistics.median(r["layers"][name] for r in traced)
    else:
        metrics = {name: median(plain, name) for name, _, _ in END_TO_END if name != "setup_s"}
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        if len(plain) > 1:
            walls = sorted(r["wall_s"] for r in plain)
            print(f"wall_s over {len(walls)} iterations: min {walls[0]:.4f}, max {walls[-1]:.4f}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {UNITS[name]}")
    return {
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed_runs,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "voiceforge" / "__init__.py").is_file():
        print(f"no voiceforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".bench_work"))
    try:
        bench = Bench(args.workload, args.seed, Size.full(args.workload), work)
        bench.prepare()
        plain, traced, setups = measure(bench, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(args.workload, args.seed, bool(args.trace), plain, traced, setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
