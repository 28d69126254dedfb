"""`kforge` command line front end.

Every command runs from a JSON pipeline config (`--config`): `run-all` runs
every stage in order, and each stage has a command that runs it alone. A
flag sets one key of the config document before it is parsed, so a flag
value is checked exactly as the same value in the file is.
Exit codes: 0 success, 1 strict/stage failure, 2 config or spec error.
"""
from __future__ import annotations

import functools
import json
import logging
import sys

import click

from kforge import pipeline
from kforge.errors import ConfigInvalid, KforgeError, SpecInvalid

logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")


def _exit_codes(command):
    """Exit 2 on a config or spec error and 1 on any other kforge error."""
    @functools.wraps(command)
    def guarded(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (ConfigInvalid, SpecInvalid) as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except KforgeError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
    return guarded


def _config_options() -> list[click.Option]:
    """The options every command takes."""
    return [click.Option(["--config", "config_path"], type=click.Path(), required=True,
                         help="Pipeline config JSON."),
            click.Option(["--strict"], is_flag=True, help="Exit 1 if anything is quarantined."),
            click.Option(["--seed"], type=int, help="Set the config's seed.")]


def _emit(stats: dict) -> None:
    click.echo(json.dumps(stats, sort_keys=True))


@click.group()
def main() -> None:
    """Knowledge-centric multimodal corpus construction."""


@main.command(name="run-all", params=_config_options())
@_exit_codes
def run_all(config_path, strict, seed):
    """Run every stage in pipeline order."""
    config = pipeline.load_config(config_path, {"seed": seed})
    code, all_stats = pipeline.run_all(config, strict=strict)
    for stats in all_stats:
        _emit(stats)
    sys.exit(code)


# each stage's own flags, by the config key each one sets
_OVERRIDES = {
    "pair": {
        "pairing.max_per_image": click.Option(["--max-per-image"], type=int),
        "pairing.min_contrast": click.Option(["--min-contrast"], type=float),
    },
    "vqa-synth": {
        "vqa_policy.min_items": click.Option(["--min-items"], type=int),
        "vqa_policy.max_items": click.Option(["--max-items"], type=int),
        "vqa_policy.detail_to_global_min_ratio": click.Option(["--ratio"], type=float),
        "vqa_policy.grounding_min_overlap": click.Option(["--grounding"], type=float),
    },
    "kd-score": {
        "kd.comparisons": click.Option(
            ["--compare"], multiple=True, help="sourceA:sourceB (repeatable).",
            callback=lambda ctx, param, value: [c.split(":", 1) for c in value] or None),
    },
    "mix": {
        "mixture.spec": click.Option(["--spec"], help="Spec JSON path or builtin:<name>."),
        "mixture.budget": click.Option(["--budget"], type=int,
                                       help="Budget for builtin specs."),
        "mixture.unit": click.Option(["--unit"], type=click.Choice(["samples", "tokens"])),
        "mixture.rebalance": click.Option(["--rebalance"], is_flag=True, default=None),
    },
}


def _stage_command(stage: pipeline.Stage) -> None:
    overrides = _OVERRIDES.get(stage.name, {})
    flags = {option.name: key for key, option in overrides.items()}

    @_exit_codes
    def command(config_path, strict, seed, **values):
        patch = {"seed": seed, **{flags[name]: value for name, value in values.items()}}
        stats = pipeline.run_stage(stage.name, pipeline.load_config(config_path, patch),
                                   strict=strict)
        _emit(stats)
        if stats["strict_failure"]:
            sys.exit(1)

    main.command(name=stage.name, help=stage.run.__doc__,
                 params=[*_config_options(), *overrides.values()])(command)


for _stage in pipeline.STAGES:
    _stage_command(_stage)


if __name__ == "__main__":
    main()
