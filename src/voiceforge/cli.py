"""Command-line entry point: one subcommand per pipeline stage plus `run`.

Exit codes: 0 success, 1 configuration error, 2 stage error, 3 partial batch
(some sentences failed but a dataset was still written).
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .config import PipelineConfig, load_config
from .errors import AdapterLookupError, ConfigurationError, RegistryError, VoiceforgeError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STAGE = 2
EXIT_PARTIAL = 3

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voiceforge",
        description="Build voice-cloning speech corpora from a single source recording.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "acquire": "fetch and cache the configured source media (not for a conversion)",
        "prompt": "build the speaker prompt archive (bark_prompt only)",
        "synth": "generate batch audio into the work directory (bark_prompt only)",
        "train-config": "emit the external trainer's config file (rvc_convert without a model_ref)",
        "convert": "convert an existing corpus with a trained model (rvc_convert only)",
        "package": "package previously generated audio into the dataset "
        "(bark_prompt: reuses its clips; rvc_convert: same as run)",
        "validate": "re-validate an already-written dataset",
        "run": "execute the configured methodology end to end",
    }
    for name, text in helps.items():
        stage = sub.add_parser(name, help=text)
        stage.add_argument("--config", required=True, help="path to the YAML pipeline config")
        if name in ("synth", "run"):
            stage.add_argument(
                "--resume", action="store_true", help="reuse the clips a prior run generated"
            )
        stage.add_argument(
            "--dry-run", action="store_true", help="validate the config and print the plan only"
        )
    return parser


def _print_summary(summary: pipeline.RunSummary) -> None:
    print(
        f"{summary.methodology}: {summary.entries_written} entries written to "
        f"{summary.output_root} "
        f"(segments in: {summary.clips_in}, generated: {summary.sentences_generated})"
    )
    for message in summary.messages:
        print(f"note: {message}")


def _dispatch(args: argparse.Namespace, config: PipelineConfig) -> int:
    command = args.command
    pipeline.check_stage(command, config)
    # before the dry-run branch, so a command and its --dry-run refuse the same configs
    pipeline.resolve_adapters(config, pipeline.default_registry())
    if args.dry_run:
        print(f"plan for {command} ({config.methodology.value}):")
        for step in pipeline.plan(config):
            print(f"  - {step}")
        return EXIT_OK

    if command == "acquire":
        print(pipeline.acquire_stage(config))
        return EXIT_OK
    if command == "prompt":
        print(pipeline.prompt_stage(config))
        return EXIT_OK
    if command == "synth":
        summary = pipeline.synth_stage(config, resume=args.resume)
        _print_summary(summary)
        return EXIT_PARTIAL if summary.partial else EXIT_OK
    if command == "train-config":
        print(pipeline.train_config_stage(config))
        return EXIT_OK
    if command == "validate":
        report = pipeline.validate_dataset(config)
        failing = report.failing_clip_ids()
        print(
            f"validated {int(report.metrics.get('entries', 0))} entries, "
            f"{len(failing)} failing"
        )
        for clip_id in failing:
            print(f"fail: {clip_id}")
        return EXIT_STAGE if failing else EXIT_OK
    if command in ("convert", "package", "run"):
        summary = pipeline.run(config, resume=command == "package" or getattr(args, "resume", False))
        _print_summary(summary)
        return EXIT_PARTIAL if summary.partial else EXIT_OK
    raise ConfigurationError(f"unknown command {command!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        return _dispatch(args, config)
    except (ConfigurationError, AdapterLookupError, RegistryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VoiceforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
