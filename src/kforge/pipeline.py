"""Pipeline orchestration: config, reply store, quarantine, stages.

Every run recomputes each stage it runs from the current inputs and
settings, and publishes every output through ``corpus.publish`` (temp file,
fsync, rename, directory fsync). Only model calls are not repeated: the
gateway answers a request sent before from the reply store
``out_dir/.work/replies.log`` (see ``gateway.ReplyStore``). A killed run
therefore resumes by running again, with any settings: the replies it had
received are read back, and an OS crash loses at most about
``gateway.SYNC_INTERVAL_S`` of them and never a published file.

Each stage's quarantined items, with their error codes, are published as
one file when the stage ends, so a rerun replaces the rows of the last one.
Within ``run_all`` the stages share one ``Ingest``, so each shard is read
and validated once, and an invalid line is quarantined once, under the
stage that first reads its shard.
"""
from __future__ import annotations

import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from itertools import chain
from pathlib import Path
from typing import Callable

from kforge import annotation, corpus, generation, knowledge, mixture, pairing
from kforge.corpus import (KIND_CAPTION, KIND_OTHER, KIND_VQA, Record,
                           dedupe_by_id, json_line, publish, record_to_json)
from kforge.errors import ConfigInvalid, KforgeError
from kforge.gateway import Gateway, HttpBackend, MockBackend, ReplyStore, RetryPolicy
from kforge.generation import GroupMember, VqaValidationPolicy

logger = logging.getLogger(__name__)

ENV_ENDPOINT = "KF_LLM_ENDPOINT"
ENV_API_KEY = "KF_LLM_API_KEY"
ENV_MODEL = "KF_LLM_MODEL"


@dataclass
class PipelineConfig:
    in_dir: str
    out_dir: str
    quarantine_dir: str
    backend_kind: str = "mock"
    endpoint: str | None = None
    model: str | None = None
    api_key: str | None = None
    rps: float | None = None
    in_flight: int = 8
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    max_per_image: int = pairing.DEFAULT_MAX_PER_IMAGE
    min_contrast: float = pairing.DEFAULT_MIN_CONTRAST
    vqa_policy: VqaValidationPolicy = field(default_factory=VqaValidationPolicy)
    interleave_min: int = 3
    interleave_max: int = 5
    mixture_spec: str = "builtin:baseline"
    mixture_budget: int = 1000
    mixture_unit: str = "samples"
    rebalance: bool = False
    kd_comparisons: tuple[tuple[str, str], ...] = (("pair_caption", "caption0"),)
    seed: int | None = None
    workers: int = 1


# each config section's keys -> PipelineConfig fields
_CONFIG_KEYS = {
    "backend": {"kind": "backend_kind", "endpoint": "endpoint", "model": "model",
                "api_key": "api_key", "rps": "rps", "in_flight": "in_flight"},
    "pairing": {"max_per_image": "max_per_image", "min_contrast": "min_contrast"},
    "interleave": {"min_group": "interleave_min", "max_group": "interleave_max"},
    "mixture": {"spec": "mixture_spec", "budget": "mixture_budget",
                "unit": "mixture_unit", "rebalance": "rebalance"},
    "kd": {"comparisons": "kd_comparisons"},
}
_TOP_LEVEL_KEYS = ("seed", "workers")


def _from_values(cls, values: dict, **fixed):
    """``cls`` with the fields ``values`` names and the ``fixed`` ones; the
    rest keep their defaults. A value is converted to the type of a numeric
    or boolean default and taken as it is otherwise."""
    for f in fields(cls):
        if f.name in values and f.name not in fixed:
            number = isinstance(f.default, (bool, int, float))
            fixed[f.name] = type(f.default)(values[f.name]) if number else values[f.name]
    return cls(**fixed)


def _section(doc, label: str, keys) -> dict:
    """One config section's object, empty when absent; unknown keys are rejected."""
    doc = doc or {}
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"config section {label} must be an object")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigInvalid(f"unknown keys in config section {label}: {sorted(unknown)}")
    return doc


def config_from_obj(obj: dict) -> PipelineConfig:
    """Parse the JSON config document; unknown sections and keys are rejected."""
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"config must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - {"io", "vqa_policy", *_CONFIG_KEYS, *_TOP_LEVEL_KEYS}
    if unknown:
        raise ConfigInvalid(f"unknown config sections: {sorted(unknown)}")
    values = {key: obj[key] for key in _TOP_LEVEL_KEYS if key in obj}
    for section, keys in _CONFIG_KEYS.items():
        doc = _section(obj.get(section), section,
                       [*keys, "retry"] if section == "backend" else keys)
        values.update((name, doc[key]) for key, name in keys.items() if key in doc)
    for name, env in (("endpoint", ENV_ENDPOINT), ("model", ENV_MODEL),
                      ("api_key", ENV_API_KEY)):
        values[name] = values.get(name) or os.environ.get(env)
    io = _section(obj.get("io"), "io", ("in_dir", "out_dir", "quarantine_dir"))
    retry = _section((obj.get("backend") or {}).get("retry"), "backend.retry",
                     [f.name for f in fields(RetryPolicy)])
    vqa_policy = _section(obj.get("vqa_policy"), "vqa_policy",
                          [f.name for f in fields(VqaValidationPolicy)])
    try:
        if "kd_comparisons" in values:
            values["kd_comparisons"] = tuple(tuple(c) for c in values["kd_comparisons"])
        config = _from_values(
            PipelineConfig, values,
            in_dir=io["in_dir"], out_dir=io["out_dir"], quarantine_dir=io["quarantine_dir"],
            retry=_from_values(RetryPolicy, retry),
            vqa_policy=_from_values(VqaValidationPolicy, vqa_policy))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad config: {exc}") from exc
    config = validate_config(config)
    sizing = [key for key in ("budget", "unit") if f"mixture_{key}" in values]
    if sizing and not config.mixture_spec.startswith(mixture.BUILTIN_PREFIX):
        raise ConfigInvalid(f"mixture.{sizing[0]} applies to builtin: specs only; "
                            f"the spec file {config.mixture_spec} sets its own")
    return config


def load_config(path: str | Path, patch: dict | None = None) -> PipelineConfig:
    """Parse the config file at ``path`` after setting each non-``None`` value
    of ``patch`` into the document under its key (``seed``,
    ``pairing.min_contrast``), so a patched value is checked as a value in
    the file is."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    for key, value in (patch or {}).items():
        if value is None or not isinstance(obj, dict):
            continue  # config_from_obj rejects a document that is not an object
        section, _, name = key.rpartition(".")
        doc = obj
        if section:  # an absent or empty section reads as {}, as in _section
            doc = obj[section] = obj.get(section) or {}
        if isinstance(doc, dict):  # config_from_obj names any other section
            doc[name] = value
    return config_from_obj(obj)


def validate_config(config: PipelineConfig) -> PipelineConfig:
    """``config``, or a ``ConfigInvalid`` naming the first setting that a
    stage would reject later, after model calls and publishes."""
    paths = {"io.in_dir": config.in_dir, "io.out_dir": config.out_dir,
             "io.quarantine_dir": config.quarantine_dir}
    for key, value in paths.items():
        if not isinstance(value, (str, os.PathLike)):
            raise ConfigInvalid(f"{key} must be a string")
    for key, value in (("backend.endpoint", config.endpoint), ("backend.model", config.model),
                       ("backend.api_key", config.api_key)):
        if not isinstance(value, (str, type(None))):
            raise ConfigInvalid(f"{key} must be a string or null")
    if not isinstance(config.mixture_spec, str):
        raise ConfigInvalid("mixture.spec must be a string")
    if len({str(Path(p)) for p in paths.values()}) != 3:
        raise ConfigInvalid("in_dir, out_dir, and quarantine_dir must be distinct")
    if config.backend_kind not in ("mock", "http"):
        raise ConfigInvalid(f"unknown backend kind {config.backend_kind!r}")
    if config.backend_kind == "http" and not (config.endpoint and config.model):
        raise ConfigInvalid("http backend needs an endpoint and model "
                            f"(config or {ENV_ENDPOINT}/{ENV_MODEL})")
    if config.workers < 1:
        raise ConfigInvalid("workers must be >= 1")
    if config.in_flight < 1:
        raise ConfigInvalid("backend.in_flight must be >= 1")
    rps = config.rps
    # a bool is an int to Python but not a rate; inf and nan are no rate either
    if rps is not None and (isinstance(rps, bool) or not isinstance(rps, (int, float))
                            or not 0 < rps < math.inf):
        raise ConfigInvalid(f"backend.rps must be null or a number > 0, got {rps!r}")
    if config.max_per_image < 1:
        raise ConfigInvalid("pairing.max_per_image must be >= 1")
    if not 0 <= config.min_contrast <= 1:
        raise ConfigInvalid("pairing.min_contrast must be within [0, 1]")
    policy = config.vqa_policy
    if not 1 <= policy.min_items <= policy.max_items:
        raise ConfigInvalid("vqa_policy.min_items must be >= 1 and <= max_items")
    for key in ("detail_to_global_min_ratio", "grounding_min_overlap"):
        if not getattr(policy, key) > 0:
            raise ConfigInvalid(f"vqa_policy.{key} must be > 0")
    if not 2 <= config.interleave_min <= config.interleave_max:
        raise ConfigInvalid("interleave.min_group must be >= 2 and <= max_group")
    for pair in config.kd_comparisons:
        if len(pair) != 2 or not all(isinstance(source, str) for source in pair):
            raise ConfigInvalid("kd.comparisons entries must be two source names, "
                                f"got {list(pair)!r}")
    return config


def build_gateway(config: PipelineConfig) -> Gateway:
    if config.backend_kind == "http":
        backend = HttpBackend(config.endpoint, config.model, config.api_key)
    else:
        backend = MockBackend()
    return Gateway(backend, retry=config.retry, rps=config.rps,
                   in_flight=config.in_flight)


class Quarantine:
    """One stage's quarantined items, kept until ``publish`` replaces the
    stage's file with them, or removes it when there are none."""

    def __init__(self, directory: Path, stage: str):
        self.path = Path(directory) / f"{stage}.jsonl"
        self.rows: list[str] = []

    def put(self, work_id: str, error: Exception) -> None:
        row = {"work_id": work_id, "error_code": getattr(error, "code", "error"),
               "error": str(error)}
        self.rows.append(json.dumps(row, ensure_ascii=False) + "\n")
        logger.warning("quarantined %s at stage %s: %s", work_id, self.path.stem, error)

    def publish(self) -> None:
        if self.rows:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            publish(self.path, self.rows)
        else:
            self.path.unlink(missing_ok=True)


# --- shared stage plumbing ----------------------------------------------------

def _out(config: PipelineConfig, name: str) -> Path:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


class Ingest:
    """Run-scoped reader: every input file is decoded at most once per run.

    A decoded file is cached under its path with its identity (inode, size,
    mtime in ns), which ``os.stat`` checks on every access. ``corpus.publish``
    renames, so a republished file has a new identity and is read again;
    nothing stale is served. A cached shard holds ``read_shard``'s records:
    each keeps its validated line, id, kind, source, image URIs and token
    estimate, and decodes its payload only for the stage that reads it, so
    the cache grows with the shards' text, not with payload objects. Each
    invalid line goes to the quarantine of the first stage that reads its
    shard, only there. Cached records, descriptors and pairs are shared by
    every stage that reads them and must not be mutated.
    """

    def __init__(self):
        self._files: dict[tuple[str, Path], tuple[tuple[int, int, int], object]] = {}

    def _cached(self, kind: str, path: Path, decode):
        # stat before decoding: a file replaced in between is stored under
        # its old identity, so the next access reads it again
        try:
            st = os.stat(path)
        except OSError:
            return decode(path)  # let the decoder report the missing file
        identity = (st.st_ino, st.st_size, st.st_mtime_ns)
        hit = self._files.get((kind, path))
        if hit is not None and hit[0] == identity:
            return hit[1]
        value = decode(path)
        self._files[(kind, path)] = (identity, value)
        return value

    def shard(self, path: Path, quarantine: Quarantine | None = None) -> tuple[Record, ...]:
        """The valid records of one shard, in file order.

        The shard's invalid lines are put in ``quarantine`` the first time
        one is given; before that, without one, the first of them is raised.
        """
        def decode(p):
            errors = []
            records = tuple(corpus.read_shard(
                p, on_error=lambda exc, lineno, raw: errors.append((lineno, exc))))
            return _Shard(records, errors)

        entry = self._cached("shard", path, decode)
        if entry.errors and not entry.reported:
            if quarantine is None:
                raise entry.errors[0][1]
            for lineno, exc in entry.errors:
                quarantine.put(f"{path.name}:{lineno}", exc)
            entry.reported = True
        return entry.records

    def records(self, paths, quarantine: Quarantine | None = None) -> list[Record]:
        """The records of several shards in file order; the first of each id wins."""
        return dedupe_by_id(chain.from_iterable(
            self.shard(p, quarantine) for p in paths))[0]

    def uris(self, config: PipelineConfig, quarantine: Quarantine) -> dict[str, str]:
        """Image URI of each single-image source record, by record id."""
        return {r.id: r.image_uris[0] for r in _source_records(config, self, quarantine)
                if len(r.image_uris) == 1}

    def descriptors(self, config: PipelineConfig) -> tuple[annotation.SemanticDescriptor, ...]:
        return self._cached("descriptors", _out(config, "descriptors.jsonl"),
                            lambda p: tuple(annotation.read_descriptors(p)))

    def descriptor_map(self, config: PipelineConfig) -> dict[str, annotation.SemanticDescriptor]:
        return {d.image_id: d for d in self.descriptors(config)}

    def selected_pairs(self, config: PipelineConfig) -> tuple[pairing.PairCandidate, ...]:
        path = _out(config, "pairs_selected.jsonl")
        if not path.exists():
            return ()
        return self._cached("pairs", path, lambda p: tuple(pairing.read_candidates(p)))


@dataclass
class _Shard:
    records: tuple[Record, ...]
    errors: list[tuple[int, Exception]]
    reported: bool = False


def _source_records(config: PipelineConfig, ingest: Ingest,
                    quarantine: Quarantine | None = None,
                    include_generated: bool = False) -> list[Record]:
    """All records from the input shards (optionally plus generated shards)."""
    shard_paths = sorted(Path(config.in_dir).glob("*.jsonl"))
    if include_generated:
        generated = ("caption1.jsonl", "pair_caption.jsonl", "interleaved.jsonl",
                     "vqa1.jsonl")
        shard_paths += [p for p in (Path(config.out_dir) / n for n in generated)
                        if p.exists()]
    return ingest.records(shard_paths, quarantine)


def _run_llm_items(config: PipelineConfig, items, process, final_path: Path,
                   quarantine: Quarantine) -> tuple[int, int]:
    """Run work items through an LLM-backed processor and publish the output.

    ``items`` is a list of (work_id, payload); ``process`` maps a payload to
    one output line or raises a KforgeError (quarantined). The lines stream
    to ``final_path`` in input order, whatever the number of workers;
    returns the item and line counts.
    """
    def run_one(entry):
        work_id, payload = entry
        try:
            return work_id, process(payload), None
        except KforgeError as exc:
            return work_id, None, exc

    published = 0

    def lines():
        nonlocal published
        with (ThreadPoolExecutor(max_workers=config.workers) if config.workers > 1
              else nullcontext()) as pool:
            for work_id, line, exc in (pool.map if pool else map)(run_one, items):
                if exc is not None:
                    quarantine.put(work_id, exc)
                else:
                    published += 1
                    yield line + "\n"

    publish(final_path, lines())
    return len(items), published


# --- stages --------------------------------------------------------------------

def stage_annotate(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                   ingest: Ingest):
    """Extract semantic descriptors for source images."""
    items = sorted(((r.id, (r.id, r.image_uris[0]))
                    for r in _source_records(config, ingest, quarantine)
                    if r.kind in (KIND_CAPTION, KIND_VQA)), key=lambda kv: kv[0])
    return _run_llm_items(config, items, lambda p: annotation.descriptor_to_json(
        annotation.annotate_image(*p, gateway)), _out(config, "descriptors.jsonl"), quarantine)


def stage_pair(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
               ingest: Ingest):
    """Propose aligned, contrasting image pairs from descriptors."""
    descriptors = ingest.descriptors(config)
    index = pairing.build_index(descriptors)
    candidates = pairing.propose_pairs(index, config.max_per_image, config.min_contrast)
    pairing.write_candidates(candidates, _out(config, "pair_candidates.jsonl"))
    return len(descriptors), len(candidates)


def stage_filter(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                 ingest: Ingest):
    """Run the semantic filter over candidate pairs."""
    descriptors = ingest.descriptor_map(config)
    candidates = list(pairing.read_candidates(_out(config, "pair_candidates.jsonl")))
    uris = ingest.uris(config, quarantine)
    items = [(f"{c.left_id}~{c.right_id}", c) for c in candidates]

    def process(candidate):
        verdict = pairing.filter_pair(
            candidate, descriptors[candidate.left_id], descriptors[candidate.right_id],
            gateway,
            uris=(uris.get(candidate.left_id, candidate.left_id),
                  uris.get(candidate.right_id, candidate.right_id)))
        return json_line(pairing.verdict_to_obj(verdict))

    verdicts_path = _out(config, "pair_verdicts.jsonl")
    counts = _run_llm_items(config, items, process, verdicts_path, quarantine)
    verdicts = sorted(corpus.read_jsonl(verdicts_path, pairing.verdict_from_obj),
                      key=lambda v: v.candidate.pair_id)
    pairing.write_candidates(pairing.select_pairs(verdicts),
                             _out(config, "pairs_selected.jsonl"))
    return counts


def stage_caption(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                  ingest: Ingest):
    """Generate captions for images left unpaired."""
    descriptors = ingest.descriptor_map(config)
    paired = {image_id for pair in ingest.selected_pairs(config)
              for image_id in pair.pair_id}
    uris = ingest.uris(config, quarantine)
    items = [(image_id, (image_id, uris[image_id]))
             for image_id in sorted(descriptors)
             if image_id not in paired and image_id in uris]
    return _run_llm_items(config, items, lambda p: record_to_json(
        generation.generate_caption(*p, gateway)), _out(config, "caption1.jsonl"), quarantine)


def stage_pair_caption(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                       ingest: Ingest):
    """Generate joint captions for selected pairs."""
    descriptors = ingest.descriptor_map(config)
    verdicts = {v.candidate.pair_id: v for v in corpus.read_jsonl(
        _out(config, "pair_verdicts.jsonl"), pairing.verdict_from_obj)}
    uris = ingest.uris(config, quarantine)
    selected = ingest.selected_pairs(config)
    items = [(f"{c.left_id}~{c.right_id}", c) for c in selected]

    def process(candidate):
        record = generation.generate_pair_caption(
            candidate,
            (uris.get(candidate.left_id, candidate.left_id), descriptors[candidate.left_id]),
            (uris.get(candidate.right_id, candidate.right_id), descriptors[candidate.right_id]),
            gateway,
            verdict=verdicts.get(candidate.pair_id))
        return record_to_json(record)

    return _run_llm_items(config, items, process,
                          _out(config, "pair_caption.jsonl"), quarantine)


def _seed(config: PipelineConfig, what: str) -> int:
    if config.seed is None:
        raise ConfigInvalid(f"{what} samples; config needs a seed")
    return config.seed


def _mixture_spec(config: PipelineConfig) -> mixture.MixtureSpec:
    """The configured spec; a spec file carries its own seed, budget and unit."""
    if not config.mixture_spec.startswith(mixture.BUILTIN_PREFIX):
        return mixture.load_spec(config.mixture_spec)
    return mixture.builtin_spec(config.mixture_spec.removeprefix(mixture.BUILTIN_PREFIX),
                                config.mixture_budget, _seed(config, "mix"),
                                config.mixture_unit)


def stage_interleave(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                     ingest: Ingest):
    """Generate multi-image interleaved descriptions."""
    seed = _seed(config, "interleave grouping")
    descriptors = ingest.descriptor_map(config)
    uris = ingest.uris(config, quarantine)
    groups = generation.group_for_interleave(
        ingest.selected_pairs(config), descriptors,
        min_size=config.interleave_min, max_size=config.interleave_max, seed=seed)
    items = [("g~" + "~".join(group),
              [GroupMember(i, uris.get(i, i), descriptors[i]) for i in group])
             for group in groups]
    return _run_llm_items(config, items, lambda group: record_to_json(
        generation.generate_interleaved(group, gateway)), _out(config, "interleaved.jsonl"),
        quarantine)


def stage_vqa_synth(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                    ingest: Ingest):
    """Reconstruct VQA supervision from generated captions."""
    path = _out(config, "caption1.jsonl")
    captions = ingest.shard(path) if path.exists() else ()
    items = [(r.id, r) for r in captions]
    return _run_llm_items(config, items, lambda r: record_to_json(
        generation.synthesize_vqa(r, config.vqa_policy, gateway)), _out(config, "vqa1.jsonl"),
        quarantine)


def stage_kd_score(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                   ingest: Ingest):
    """Score knowledge density over the corpus and write a report."""
    records = [r for r in _source_records(config, ingest, quarantine,
                                          include_generated=True)
               if r.kind != KIND_OTHER]
    items = [(r.id, r) for r in records]
    source_of = {r.id: r.source for r in records}
    profiles_path = _out(config, "kd_profiles.jsonl")
    counts = _run_llm_items(config, items, lambda r: json_line(knowledge.profile_to_obj(
        knowledge.kd_score(r, gateway))), profiles_path, quarantine)
    with open(profiles_path, "r", encoding="utf-8") as fh:
        profiles = [knowledge.ProfileCounts.from_line(line) for line in fh]
    scored_sources = {source_of.get(p.sample_id) for p in profiles}
    comparisons = [pair for pair in config.kd_comparisons
                   if all(s in scored_sources for s in pair)]
    knowledge.publish_report(_out(config, "kd_report.json"), profiles, source_of,
                             comparisons, gateway.backend_id)
    return counts


def stage_mix(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
              ingest: Ingest):
    """Plan, sample, and verify the configured training mixture."""
    spec = _mixture_spec(config)
    records = _source_records(config, ingest, quarantine, include_generated=True)
    mix_dir = Path(config.out_dir) / "mixture"
    if not records:
        # empty corpus: publish empty outputs and report the failure via verify
        mixture.publish_mixture(mix_dir, mixture.MixturePlan(spec, {}, {}, {}), [])
        return 0, 0
    sampled, _ = mixture.build_mixture(records, spec, mix_dir, config.rebalance)
    return len(records), len(sampled)


def stage_stats(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                ingest: Ingest):
    """Summarize corpus counts by source and kind."""
    records = _source_records(config, ingest, quarantine, include_generated=True)
    by_source: dict[str, int] = {}
    by_kind: dict[str, int] = {}
    for r in records:
        by_source[r.source] = by_source.get(r.source, 0) + 1
        by_kind[r.kind] = by_kind.get(r.kind, 0) + 1
    doc = {"records": len(records), "by_source": by_source, "by_kind": by_kind}
    publish(_out(config, "corpus_stats.json"), [json.dumps(doc, sort_keys=True, indent=2)])
    return len(records), len(records)


@dataclass(frozen=True)
class Stage:
    name: str
    run: Callable[[PipelineConfig, Gateway, Quarantine, Ingest], tuple[int, int]]


# every stage, in run_all order; a command's help is its run function's docstring
STAGES = (
    Stage("annotate", stage_annotate),
    Stage("pair", stage_pair),
    Stage("filter", stage_filter),
    Stage("pair-caption", stage_pair_caption),
    Stage("caption", stage_caption),
    Stage("interleave", stage_interleave),
    Stage("vqa-synth", stage_vqa_synth),
    Stage("kd-score", stage_kd_score),
    Stage("mix", stage_mix),
    Stage("stats", stage_stats),
)


@contextmanager
def _stage_gateway(config: PipelineConfig, gateway: Gateway | None):
    """``gateway``, or one built from ``config`` and closed on exit, answering
    from the reply store under ``out_dir/.work``; a gateway that has a store
    already, as within ``run_all``, keeps it."""
    with nullcontext(gateway) if gateway is not None else build_gateway(config) as gateway:
        if gateway.store is not None:
            yield gateway
            return
        with ReplyStore(Path(config.out_dir) / ".work" / "replies.log") as gateway.store:
            try:
                yield gateway
            finally:
                gateway.store = None


def run_stage(stage: str, config: PipelineConfig, gateway: Gateway | None = None,
              strict: bool = False, ingest: Ingest | None = None) -> dict:
    """Run one stage from its current inputs; returns the stats document.

    A model call answered before is read back from the reply store, which
    ``run_all`` opens once per run and a lone call opens for itself.
    ``ingest`` is the run's shared reader; without one the stage reads its
    inputs through a fresh ``Ingest``. The stage's quarantine file is
    published once its function has returned.
    """
    run = next((s.run for s in STAGES if s.name == stage), None)
    if run is None:
        raise ConfigInvalid(f"unknown stage {stage!r}")
    validate_config(config)
    with _stage_gateway(config, gateway) as gateway:
        quarantine = Quarantine(Path(config.quarantine_dir), stage)
        before = gateway.stats.snapshot()
        n_in, n_out = run(config, gateway, quarantine,
                          ingest if ingest is not None else Ingest())
        after = gateway.stats.snapshot()
    quarantine.publish()
    stats = {"stage": stage, "in": n_in, "out": n_out, "quarantined": len(quarantine.rows),
             "retried": after["retries"] - before["retries"],
             "llm_calls": after["llm_calls"] - before["llm_calls"],
             "strict_failure": bool(strict and quarantine.rows)}
    logger.info("stage %s done: %s", stage, stats)
    return stats


def run_all(config: PipelineConfig, strict: bool = False,
            gateway: Gateway | None = None) -> tuple[int, list[dict]]:
    """Run every stage in order from the current inputs and settings.

    A killed run resumes by running again: every stage is recomputed, and
    the model calls answered before are read back from the reply store. All
    stages share one ``Ingest``, so each input file is read once. The
    settings a later stage would reject are checked before the first stage
    runs, so a bad seed or mixture spec costs no model call.
    """
    validate_config(config)
    _seed(config, "interleave grouping")
    _mixture_spec(config)
    all_stats = []
    ingest = Ingest()
    with _stage_gateway(config, gateway) as gateway:
        for stage in STAGES:
            stats = run_stage(stage.name, config, gateway=gateway, strict=strict,
                              ingest=ingest)
            all_stats.append(stats)
            if stats["strict_failure"]:
                return 1, all_stats
    return 0, all_stats
