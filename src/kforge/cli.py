"""`kforge` command line front end.

Every command runs from a JSON pipeline config (`--config`): `run-all` runs
every stage in order, and each stage has a command that runs it alone. The
other flags come from the rows of ``pipeline.SETTINGS``: each sets its
row's key in the config before it is parsed, so a flag value is checked
exactly as the same value in the file is.
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


@click.group()
def main() -> None:
    """Knowledge-centric multimodal corpus construction."""


def _option(option: str, attrs: dict) -> click.Option:
    """The ``click.Option`` of a ``pipeline.SETTINGS`` flag; a tuple ``type`` is a choice."""
    if isinstance(attrs.get("type"), tuple):
        attrs = {**attrs, "type": click.Choice(attrs["type"])}
    return click.Option([option], **attrs)


# each command's flags, by the config key each one sets; a flag that names
# no command (--seed) belongs to every command
_OVERRIDES = {command: {s.key: _option(*s.flag[1:]) for s in pipeline.SETTINGS
                        if s.flag and s.flag[0] in (None, command)}
              for command in ("run-all", *(stage.name for stage in pipeline.STAGES))}


def _command(name: str, help: str) -> None:
    """Register ``run-all``, or the command that runs the stage ``name``."""
    flags = {option.name: key for key, option in _OVERRIDES[name].items()}

    @_exit_codes
    def command(config_path, strict, **values):
        config = pipeline.load_config(config_path, {flags[n]: v for n, v in values.items()})
        if name == "run-all":
            code, all_stats = pipeline.run_all(config, strict=strict)
        else:
            all_stats = [pipeline.run_stage(name, config, strict=strict)]
            code = int(all_stats[0]["strict_failure"])
        for stats in all_stats:
            click.echo(json.dumps(stats, sort_keys=True))
        sys.exit(code)

    main.command(name=name, help=help, params=[
        click.Option(["--config", "config_path"], type=click.Path(), required=True,
                     help="Pipeline config JSON."),
        click.Option(["--strict"], is_flag=True, help="Exit 1 if anything is quarantined."),
        *_OVERRIDES[name].values()])(command)


_command("run-all", "Run every stage in pipeline order.")
for _stage in pipeline.STAGES:
    _command(_stage.name, _stage.run.__doc__)


if __name__ == "__main__":
    main()
