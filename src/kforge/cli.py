"""`kforge` command line front end.

Stage subcommands take a JSON pipeline config (`--config`) with flag
overrides; `kd-score` and `mix` also work standalone on explicit paths.
Exit codes: 0 success, 1 strict/stage failure, 2 config error.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import logging
import sys
from pathlib import Path

import click

from kforge import knowledge, mixture, pipeline
from kforge.corpus import KIND_OTHER
from kforge.errors import ConfigInvalid, KforgeError, SpecInvalid
from kforge.gateway import mock_gateway

logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")


def _exit_codes(*config_errors: type[KforgeError]):
    """Exit 2 on one of ``config_errors`` and 1 on any other kforge error."""
    def decorate(command):
        @functools.wraps(command)
        def guarded(*args, **kwargs):
            try:
                return command(*args, **kwargs)
            except config_errors as exc:
                click.echo(f"config error: {exc}", err=True)
                sys.exit(2)
            except KforgeError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(1)
        return guarded
    return decorate


def _load_config(path: str | None, seed: int | None = None) -> pipeline.PipelineConfig:
    if not path:
        raise ConfigInvalid("this command needs --config")
    config = pipeline.load_config(path)
    if seed is not None:
        config.seed = seed
    return config


def _emit(stats: dict) -> None:
    click.echo(json.dumps(stats, sort_keys=True))


@click.group()
def main() -> None:
    """Knowledge-centric multimodal corpus construction."""


@main.command(name="kd-score")
@click.option("--in", "in_paths", multiple=True, required=True,
              help="Shard files or directories (repeatable).")
@click.option("--report", "report_path", type=click.Path(), required=True)
@click.option("--compare", "compares", multiple=True,
              help="sourceA:sourceB (repeatable).")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Optional pipeline config supplying the backend.")
@_exit_codes(ConfigInvalid)
def kd_score_cmd(in_paths, report_path, compares, config_path):
    """Score knowledge density over shards and write a report."""
    with (pipeline.build_gateway(_load_config(config_path))
          if config_path else mock_gateway()) as gateway:
        shards: list[Path] = []
        for p in in_paths:
            path = Path(p)
            shards.extend(sorted(path.glob("*.jsonl")) if path.is_dir() else [path])
        records = [r for r in pipeline.Ingest().records(shards) if r.kind != KIND_OTHER]
        profiles = [knowledge.kd_score(r, gateway) for r in records]
        knowledge.publish_report(report_path, profiles, {r.id: r.source for r in records},
                                 [tuple(c.split(":", 1)) for c in compares],
                                 gateway.backend_id)
    _emit({"stage": "kd-score", "in": len(records), "out": len(profiles),
           "report": str(report_path)})


@main.command(name="mix")
@click.option("--spec", "spec_ref", required=True,
              help="Spec JSON path or builtin:<name>.")
@click.option("--pools", "pools_dir", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--rebalance", is_flag=True)
@click.option("--budget", type=int, default=1000, show_default=True,
              help="Budget for builtin specs.")
@click.option("--unit", type=click.Choice(["samples", "tokens"]), default="samples")
@click.option("--seed", type=int, default=0, show_default=True)
@_exit_codes(ConfigInvalid, SpecInvalid)
def mix_cmd(spec_ref, pools_dir, out_dir, rebalance, budget, unit, seed):
    """Plan, sample, and verify a training mixture from source pools."""
    spec = mixture.spec_from_ref(spec_ref, budget, seed, unit)
    records = pipeline.Ingest().records(sorted(Path(pools_dir).glob("*.jsonl")))
    sampled, verify = mixture.build_mixture(records, spec, out_dir, rebalance)
    _emit({"stage": "mix", "in": len(records), "out": len(sampled),
           "verify_pass": verify["pass"], "max_abs_error": verify["max_abs_error"]})


@main.command(name="run-all")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--strict", is_flag=True)
@click.option("--seed", type=int, default=None)
@_exit_codes(ConfigInvalid, SpecInvalid)
def run_all(config_path, strict, seed):
    """Run every stage in pipeline order."""
    code, all_stats = pipeline.run_all(_load_config(config_path, seed), strict=strict)
    for stats in all_stats:
        _emit(stats)
    sys.exit(code)


# the flags that override a stage's config; a ``vqa_`` flag sets the VQA policy
_OVERRIDES = {
    "pair": (
        click.option("--max-per-image", "max_per_image", type=int, default=None),
        click.option("--min-contrast", "min_contrast", type=float, default=None),
    ),
    "vqa-synth": (
        click.option("--min-items", "vqa_min_items", type=int, default=None),
        click.option("--max-items", "vqa_max_items", type=int, default=None),
        click.option("--ratio", "vqa_detail_to_global_min_ratio", type=float, default=None),
        click.option("--grounding", "vqa_grounding_min_overlap", type=float, default=None),
    ),
}


def _stage_command(stage: pipeline.Stage) -> None:
    @click.option("--config", "config_path", type=click.Path(), default=None,
                  help="Pipeline config JSON.")
    @click.option("--strict", is_flag=True, help="Exit 1 if anything is quarantined.")
    @click.option("--seed", type=int, default=None, help="Override the config seed.")
    @_exit_codes(ConfigInvalid)
    def command(config_path, strict, seed, **overrides):
        config = _load_config(config_path, seed)
        policy = {}
        for attr, value in overrides.items():
            if value is None:
                continue
            if attr.startswith("vqa_"):
                policy[attr[4:]] = value
            else:
                setattr(config, attr, value)
        if policy:
            config.vqa_policy = dataclasses.replace(config.vqa_policy, **policy)
        stats = pipeline.run_stage(stage.name, config, strict=strict)
        _emit(stats)
        if stats["strict_failure"]:
            sys.exit(1)

    for option in _OVERRIDES.get(stage.name, ()):
        command = option(command)
    main.command(name=stage.name, help=stage.run.__doc__)(command)


for _stage in pipeline.STAGES:
    if _stage.name not in main.commands:  # kd-score and mix stand alone
        _stage_command(_stage)


if __name__ == "__main__":
    main()
