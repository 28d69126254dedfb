"""`kforge` command line front end.

Stage subcommands take a JSON pipeline config (`--config`) with flag
overrides; `kd-score` and `mix` also work standalone on explicit paths.
Exit codes: 0 success, 1 strict/stage failure, 2 config error.
"""
from __future__ import annotations

import dataclasses
import json
import logging
import sys
from pathlib import Path

import click

from kforge import knowledge, mixture, pipeline
from kforge.corpus import publish, read_shard
from kforge.errors import ConfigInvalid, KforgeError, SpecInvalid
from kforge.gateway import mock_gateway

logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")


def _load_config(path: str | None) -> pipeline.PipelineConfig:
    if not path:
        raise ConfigInvalid("this command needs --config")
    return pipeline.load_config(path)


def _emit(stats: dict) -> None:
    click.echo(json.dumps(stats, sort_keys=True))


def _run(stage: str, config: pipeline.PipelineConfig, strict: bool) -> None:
    stats = pipeline.run_stage(stage, config, strict=strict)
    _emit(stats)
    if stats["strict_failure"]:
        sys.exit(1)


def _apply_common(config: pipeline.PipelineConfig, seed: int | None) -> pipeline.PipelineConfig:
    if seed is not None:
        config.seed = seed
    return config


@click.group()
def main() -> None:
    """Knowledge-centric multimodal corpus construction."""


_STAGE_HELP = {
    "annotate": "Extract semantic descriptors for source images.",
    "pair": "Propose aligned, contrasting image pairs from descriptors.",
    "filter": "Run the semantic filter over candidate pairs.",
    "caption": "Generate captions for images left unpaired.",
    "pair-caption": "Generate joint captions for selected pairs.",
    "interleave": "Generate multi-image interleaved descriptions.",
    "vqa-synth": "Reconstruct VQA supervision from generated captions.",
    "stats": "Summarize corpus counts by source and kind.",
}


def _stage_command(stage: str, extra_params=()):
    @click.option("--config", "config_path", type=click.Path(), default=None,
                  help="Pipeline config JSON.")
    @click.option("--strict", is_flag=True, help="Exit 1 if anything is quarantined.")
    @click.option("--seed", type=int, default=None, help="Override the config seed.")
    def command(config_path, strict, seed, **kwargs):
        try:
            config = _apply_common(_load_config(config_path), seed)
            policy_overrides = {}
            for attr, value in kwargs.items():
                if value is None:
                    continue
                if attr.startswith("vqa_"):
                    policy_overrides[attr[4:]] = value
                else:
                    setattr(config, attr, value)
            if policy_overrides:
                config.vqa_policy = dataclasses.replace(config.vqa_policy,
                                                        **policy_overrides)
            _run(stage, config, strict)
        except ConfigInvalid as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except KforgeError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    command.__name__ = stage.replace("-", "_")
    for param in extra_params:
        command = param(command)
    return main.command(name=stage, help=_STAGE_HELP[stage])(command)


_stage_command("annotate")
_stage_command("pair", (
    click.option("--max-per-image", "max_per_image", type=int, default=None),
    click.option("--min-contrast", "min_contrast", type=float, default=None),
))
_stage_command("filter")
_stage_command("caption")
_stage_command("pair-caption")
_stage_command("interleave")
_stage_command("vqa-synth", (
    click.option("--min-items", "vqa_min_items", type=int, default=None),
    click.option("--max-items", "vqa_max_items", type=int, default=None),
    click.option("--ratio", "vqa_detail_to_global_min_ratio", type=float, default=None),
    click.option("--grounding", "vqa_grounding_min_overlap", type=float, default=None),
))
_stage_command("stats")


@main.command(name="run-all")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--strict", is_flag=True)
@click.option("--seed", type=int, default=None)
def run_all(config_path, strict, seed):
    """Run every stage in pipeline order."""
    try:
        config = _apply_common(_load_config(config_path), seed)
        code, all_stats = pipeline.run_all(config, strict=strict)
        for stats in all_stats:
            _emit(stats)
        sys.exit(code)
    except ConfigInvalid as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except KforgeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


@main.command(name="kd-score")
@click.option("--in", "in_paths", multiple=True, required=True,
              help="Shard files or directories (repeatable).")
@click.option("--report", "report_path", type=click.Path(), required=True)
@click.option("--compare", "compares", multiple=True,
              help="sourceA:sourceB (repeatable).")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Optional pipeline config supplying the backend.")
def kd_score_cmd(in_paths, report_path, compares, config_path):
    """Score knowledge density over shards and write a report."""
    try:
        with (pipeline.build_gateway(_load_config(config_path))
              if config_path else mock_gateway()) as gateway:
            shards: list[Path] = []
            for p in in_paths:
                path = Path(p)
                shards.extend(sorted(path.glob("*.jsonl")) if path.is_dir() else [path])
            records = []
            seen = set()
            for shard in shards:
                for record in read_shard(shard):
                    if record.id not in seen:
                        seen.add(record.id)
                        records.append(record)
            records = [r for r in records if r.kind != "other"]
            profiles = [knowledge.kd_score(r, gateway) for r in records]
            comparisons = [tuple(c.split(":", 1)) for c in compares]
            report = knowledge.build_report(
                profiles, {r.id: r.source for r in records}, comparisons,
                backend_id=gateway.backend_id)
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        publish(report_path,
                [json.dumps(report, ensure_ascii=False, indent=2, sort_keys=True)])
        _emit({"stage": "kd-score", "in": len(records), "out": len(profiles),
               "report": str(report_path)})
    except ConfigInvalid as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except KforgeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


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
def mix_cmd(spec_ref, pools_dir, out_dir, rebalance, budget, unit, seed):
    """Plan, sample, and verify a training mixture from source pools."""
    try:
        if spec_ref.startswith("builtin:"):
            spec = mixture.builtin_spec(spec_ref.split(":", 1)[1], budget=budget,
                                        seed=seed, unit=unit)
        else:
            spec = mixture.load_spec(spec_ref)
        records = []
        seen = set()
        for shard in sorted(Path(pools_dir).glob("*.jsonl")):
            for record in read_shard(shard):
                if record.id not in seen:
                    seen.add(record.id)
                    records.append(record)
        pools = mixture.resolve_pools(records, spec)
        plan = mixture.plan_mixture(spec, mixture.pool_sizes(pools, spec.unit),
                                    rebalance=rebalance)
        sampled = mixture.sample_mixture(plan, pools)
        verify = mixture.publish_mixture(out_dir, plan, sampled)
        _emit({"stage": "mix", "in": len(records), "out": len(sampled),
               "verify_pass": verify["pass"],
               "max_abs_error": verify["max_abs_error"]})
    except (ConfigInvalid, SpecInvalid) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except KforgeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
