"""Pipeline orchestration: config, reply store, quarantine, stages.

Every config key is one row of ``SETTINGS``: its dotted key, the
``PipelineConfig`` attribute it sets, its conversion, its range check and
message, an environment fallback and the command-line flag that sets it.
``config_from_obj``, ``load_config``, ``validate_config``, the ``kforge``
commands and README's config table all follow that table.

Every run recomputes each stage it runs from the current inputs and
settings, and publishes every output through ``corpus.publish`` (temp file,
fsync, rename, directory fsync). Only model calls are not repeated: the
gateway answers a request sent before from the reply store
``out_dir/.work/replies.log`` (see ``gateway.ReplyStore``). A killed run
therefore resumes by running again, with any settings: the replies it had
received are read back, and an OS crash loses at most about
``gateway.SYNC_INTERVAL_S`` of them and never a published file.

Each stage is a ``STAGES`` row that names the files under ``out_dir`` it
reads and writes; ``run_stage`` hands the stage function their paths. A
missing input is an error, and no stage reads back what it publishes. Each
stage's quarantined items, with their error codes, are published as one
file when the stage ends, so a rerun replaces the rows of the last one.

``run_all`` and a lone ``run_stage`` each open one run (``_run``). It
checks the settings its stages would reject, takes ``out_dir/.work/lock``,
attaches the reply store to the gateway and creates the one ``Ingest``
that all its stages share, seeded with the shards of the last run that
ended in this process. So a run decodes and validates a shard at most
once, a run after it over the same unchanged shard not at all, and an
invalid line is quarantined once per run, under the stage that first
reads its shard.
"""
from __future__ import annotations

import fcntl
import json
import logging
import math
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import reduce
from itertools import chain
from pathlib import Path
from typing import Callable

from kforge import annotation, corpus, generation, knowledge, mixture, pairing
from kforge.corpus import (KIND_CAPTION, KIND_OTHER, KIND_VQA, Record,
                           dedupe_by_id, json_line, publish, record_to_json)
from kforge.errors import (ConfigInvalid, KforgeError, ShardIoError, ValidationError,
                           WorkspaceBusy)
from kforge.gateway import Gateway, HttpBackend, MockBackend, ReplyStore, RetryPolicy
from kforge.generation import GroupMember, VqaValidationPolicy

logger = logging.getLogger(__name__)

ENV_ENDPOINT = "KF_LLM_ENDPOINT"
ENV_API_KEY = "KF_LLM_API_KEY"
ENV_MODEL = "KF_LLM_MODEL"
# the generated shards that kd-score, mix and stats read if present, in this order
GENERATED_SHARDS = ("caption1.jsonl", "pair_caption.jsonl", "interleaved.jsonl", "vqa1.jsonl")


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


# --- settings: one row per config key ----------------------------------------
# A conversion takes (key, value) and returns the value as its field holds
# it, or raises the ConfigInvalid that names the key. A check is a (predicate
# of the converted value and the config, message) pair; the message is
# formatted with the key and the value.

def _as_given(key: str, value):
    return value


def _bool(key: str, value) -> bool:
    if value not in (0, 1):  # true and false are 1 and 0
        raise ConfigInvalid(f"{key} must be true or false, got {value!r}")
    return bool(value)


def _number(kind: type, null: bool = False):
    """Conversion by ``kind``; a bool is no number, an integer refuses a
    fractional part, and with ``null`` a ``None`` stays ``None``."""
    def convert(key: str, value):
        try:
            if isinstance(value, bool) or (
                    kind is int and isinstance(value, float) and not value.is_integer()):
                raise ValueError
            return None if null and value is None else kind(value)
        except (TypeError, ValueError):
            what = "a whole number" if kind is int else "a number"
            raise ConfigInvalid(f"{key} must be {what}, got {value!r}") from None
    return convert


def _instance(types, what: str):
    """Conversion that takes a value of ``types`` as given."""
    def convert(key: str, value):
        if not isinstance(value, types):
            raise ConfigInvalid(f"{key} must be {what}")
        return value
    return convert


def _pairs(key: str, value) -> tuple[tuple[str, str], ...]:
    try:  # a string is one name, not a pair of letters
        pairs = [pair if isinstance(pair, str) else list(pair) for pair in value]
    except TypeError:
        raise ConfigInvalid(f"{key} must be a list of source-name pairs, got {value!r}") from None
    for pair in pairs:
        if isinstance(pair, str) or len(pair) != 2 or not all(isinstance(s, str) for s in pair):
            raise ConfigInvalid(f"{key} entries must be two source names, got {pair!r}")
    return tuple(map(tuple, pairs))


_int, _float, _path = _number(int), _number(float), _instance((str, os.PathLike), "a string")
_str_or_null = _instance((str, type(None)), "a string or null")
_AT_LEAST_1 = (lambda value, config: value >= 1, "{key} must be >= 1")
_POSITIVE = (lambda value, config: value > 0, "{key} must be > 0")
_FINITE = (lambda value, config: 0 <= value < math.inf,
           "{key} must be a finite number >= 0, got {value!r}")
_UNITS = (mixture.UNIT_SAMPLES, mixture.UNIT_TOKENS)


@dataclass(frozen=True)
class Setting:
    """One config key: ``key`` in the document sets ``attr``, a path on
    ``PipelineConfig`` such as ``retry.backoff_base`` (the key itself when
    empty), to ``convert(key, value)``, which ``check`` must accept. A key
    the document leaves empty reads the environment variable ``env``, and
    ``flag`` (command or ``None`` for all, option, ``click.Option`` keywords) sets it."""
    key: str
    convert: Callable = _as_given
    check: tuple[Callable, str] | None = None
    attr: str = ""
    env: str | None = None
    flag: tuple[str | None, str, dict] | None = None

    def get(self, config: PipelineConfig):
        return reduce(getattr, (self.attr or self.key).split("."), config)


# every config key, in the order validate_config checks them: a row whose
# check reads another key comes after that key's row. README's config table
# lists the same rows in the same order.
SETTINGS = (
    Setting("io.in_dir", _path, attr="in_dir"),
    Setting("io.out_dir", _path, attr="out_dir"),
    Setting("io.quarantine_dir", _path, attr="quarantine_dir"),
    Setting("backend.kind", check=(lambda value, config: value in ("mock", "http"),
                                   "unknown backend kind {value!r}"), attr="backend_kind"),
    Setting("backend.endpoint", _str_or_null, attr="endpoint", env=ENV_ENDPOINT),
    Setting("backend.model", _str_or_null, attr="model", env=ENV_MODEL),
    Setting("backend.api_key", _str_or_null, attr="api_key", env=ENV_API_KEY),
    # a bool is an int to Python but not a rate; inf and nan are no rate either
    Setting("backend.rps", check=(lambda value, config: value is None or (
        not isinstance(value, bool) and isinstance(value, (int, float)) and 0 < value < math.inf),
        "{key} must be null or a number > 0, got {value!r}"), attr="rps"),
    Setting("backend.in_flight", _int, _AT_LEAST_1, attr="in_flight"),
    Setting("backend.retry.max_attempts", _int, _AT_LEAST_1, attr="retry.max_attempts"),
    Setting("backend.retry.backoff_base", _float, _FINITE, attr="retry.backoff_base"),
    Setting("backend.retry.backoff_factor", _float, _FINITE, attr="retry.backoff_factor"),
    Setting("pairing.max_per_image", _int, _AT_LEAST_1, attr="max_per_image",
            flag=("pair", "--max-per-image", dict(type=int))),
    Setting("pairing.min_contrast", _float, (lambda value, config: 0 <= value <= 1,
                                             "{key} must be within [0, 1]"),
            attr="min_contrast", flag=("pair", "--min-contrast", dict(type=float))),
    Setting("vqa_policy.max_items", _int, flag=("vqa-synth", "--max-items", dict(type=int))),
    Setting("vqa_policy.min_items", _int, (
        lambda value, config: 1 <= value <= config.vqa_policy.max_items,
        "{key} must be >= 1 and <= max_items"), flag=("vqa-synth", "--min-items", dict(type=int))),
    Setting("vqa_policy.min_global", _int, (
        lambda value, config: 0 <= value <= config.vqa_policy.max_items,
        "{key} must be >= 0 and <= max_items")),
    Setting("vqa_policy.detail_to_global_min_ratio", _float, _POSITIVE,
            flag=("vqa-synth", "--ratio", dict(type=float))),
    Setting("vqa_policy.grounding_min_overlap", _float, _POSITIVE,
            flag=("vqa-synth", "--grounding", dict(type=float))),
    Setting("interleave.max_group", _int, attr="interleave_max"),
    Setting("interleave.min_group", _int, (
        lambda value, config: 3 <= value <= config.interleave_max,
        "{key} must be >= 3 and <= max_group"), attr="interleave_min"),
    Setting("mixture.spec", _instance(str, "a string"), attr="mixture_spec",
            flag=("mix", "--spec", dict(help="Spec JSON path or builtin:<name>."))),
    Setting("mixture.budget", _int, _AT_LEAST_1, attr="mixture_budget",
            flag=("mix", "--budget", dict(type=int, help="Budget for builtin specs."))),
    Setting("mixture.unit", check=(lambda value, config: value in _UNITS,
                                   "{key} must be samples or tokens, got {value!r}"),
            attr="mixture_unit", flag=("mix", "--unit", dict(type=_UNITS))),
    Setting("mixture.rebalance", _bool, attr="rebalance",
            flag=("mix", "--rebalance", dict(is_flag=True, default=None))),
    Setting("kd.comparisons", _pairs, attr="kd_comparisons", flag=("kd-score", "--compare", dict(
        multiple=True, help="sourceA:sourceB (repeatable).",
        callback=lambda ctx, param, value: [c.split(":", 1) for c in value] or None))),
    Setting("seed", _number(int, null=True),
            flag=(None, "--seed", dict(type=int, help="Set the config's seed."))),
    Setting("workers", _int, _AT_LEAST_1),
)

# the fields without a default, which every document sets
_REQUIRED = [f.name for f in fields(PipelineConfig)
             if f.default is MISSING and f.default_factory is MISSING]


def _given(doc: dict, section: str = "") -> dict:
    """The value of each key that ``doc``, the document or one of its
    sections, sets; an unknown key, or a section that is not an object, is
    refused. An absent or ``null`` section reads as ``{}``."""
    prefix = f"{section}." if section else ""
    names = {s.key[len(prefix):].split(".")[0] for s in SETTINGS if s.key.startswith(prefix)}
    unknown = set(doc) - names
    if unknown:
        raise ConfigInvalid(f"unknown keys in config section {section}: {sorted(unknown)}"
                            if section else f"unknown config sections: {sorted(unknown)}")
    given = {}
    for name, value in doc.items():
        key = prefix + name
        if not any(s.key.startswith(f"{key}.") for s in SETTINGS):
            given[key] = value
        elif value is None or isinstance(value, dict):
            given.update(_given(value or {}, key))
        else:
            raise ConfigInvalid(f"config section {key} must be an object")
    return given


def config_from_obj(obj: dict, patch: dict | None = None) -> PipelineConfig:
    """Parse the JSON config document, each value of ``patch`` replacing the
    document's under its key. Each key is converted and checked by its
    ``SETTINGS`` row; unknown sections and keys are rejected."""
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"config must be a JSON object, got {type(obj).__name__}")
    given = {**_given(obj), **(patch or {})}
    for s in SETTINGS:
        if s.env:
            given[s.key] = given.get(s.key) or os.environ.get(s.env)
    missing = [s.key for s in SETTINGS if s.attr in _REQUIRED and s.key not in given]
    if missing:
        raise ConfigInvalid(f"{missing[0]} is required")
    return validate_config(PipelineConfig(**dict.fromkeys(_REQUIRED)), given)


def load_config(path: str | Path, patch: dict | None = None) -> PipelineConfig:
    """Parse the config file at ``path``; each non-``None`` value of
    ``patch`` replaces the file's under its dotted key, and is checked as a
    value in the file is."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    return config_from_obj(obj, {k: v for k, v in (patch or {}).items() if v is not None})


def validate_config(config: PipelineConfig, given: dict | None = None) -> PipelineConfig:
    """``config``, or a ``ConfigInvalid`` naming the first setting that a
    stage would reject later, after model calls and publishes. Each
    ``SETTINGS`` row in turn converts and checks its value, which a
    document's ``given`` values, by key, first set on ``config``; the rules
    that tie settings together come last."""
    given = given or {}
    for s in SETTINGS:
        value = s.convert(s.key, given[s.key] if s.key in given else s.get(config))
        if s.check is not None and not s.check[0](value, config):
            raise ConfigInvalid(s.check[1].format(key=s.key, value=value))
        if s.key in given:
            head, _, name = (s.attr or s.key).rpartition(".")
            if head:  # a field of a frozen policy: replace the policy
                value, name = replace(getattr(config, head), **{name: value}), head
            setattr(config, name, value)
    # resolved: a relative and an absolute spelling, or a symlink and its target, are one
    dirs = {Path(p).resolve() for p in (config.in_dir, config.out_dir, config.quarantine_dir)}
    if len(dirs) != 3:
        raise ConfigInvalid("in_dir, out_dir, and quarantine_dir must be distinct")
    if config.backend_kind == "http" and not (config.endpoint and config.model):
        raise ConfigInvalid("http backend needs an endpoint and model "
                            f"(config or {ENV_ENDPOINT}/{ENV_MODEL})")
    sizing = [s.key for s in SETTINGS
              if s.key in given and s.attr in ("mixture_budget", "mixture_unit")]
    if sizing and not config.mixture_spec.startswith(mixture.BUILTIN_PREFIX):
        raise ConfigInvalid(f"{sizing[0]} applies to builtin: specs only; "
                            f"the spec file {config.mixture_spec} sets its own")
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
        try:
            if self.rows:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                publish(self.path, self.rows)
            else:
                self.path.unlink(missing_ok=True)
        except OSError as exc:
            raise ShardIoError(
                f"io.quarantine_dir {self.path.parent} is not usable: {exc}") from exc


# --- shared stage plumbing ----------------------------------------------------

class Ingest:
    """Run-scoped reader: every input file is decoded at most once per run.

    A decoded file is cached under its path with its identity (inode, size,
    mtime and ctime in ns), which ``os.stat`` checks on every access.
    ``corpus.publish`` renames, so a republished file has a new identity and
    is read again, and a rewrite in place changes the ctime, which
    ``os.utime`` cannot restore; nothing stale is served. A cached shard
    holds ``read_shard``'s records and the invalid lines it found: each
    record keeps its validated line, id, kind, source, image URIs, token
    estimate and plain bit, and decodes its payload only for the stage that
    reads it, so the cache grows with the shards' text, not with payload
    objects. Each invalid line goes to the quarantine of the first stage of
    this run that reads its shard, only there. What is cached is shared by
    every stage that reads it and must not be mutated.

    ``last`` holds the shard entries of an earlier reader (``shards()``),
    each served under the same identity check as this reader's own, so a
    run over shards that the last run read decodes none of them again. A
    run creates one reader, which all its stages share.
    """

    def __init__(self, last: dict | None = None):
        self._files: dict[tuple[object, Path], tuple[tuple[int, ...], object]] = {}
        self._last = last or {}
        self._reported: dict[Path, object] = {}  # path -> the shard entry reported

    def _cached(self, kind, path: Path, decode):
        # stat before decoding: a file replaced in between is stored under
        # its old identity, so the next access reads it again
        try:
            st = os.stat(path)
        except OSError:
            return decode(path)  # let the decoder report the missing file
        identity = (st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
        hit = self._files.get((kind, path)) or self._last.get((kind, path))
        if hit is None or hit[0] != identity:
            hit = (identity, decode(path))
        self._files[(kind, path)] = hit
        return hit[1]

    def shard(self, path: Path, quarantine: Quarantine | None = None) -> tuple[Record, ...]:
        """The valid records of one shard, in file order.

        The shard's invalid lines are put in ``quarantine`` the first time
        one is given; before that, without one, the first of them is raised.
        """
        def decode(p):
            errors = []
            records = tuple(corpus.read_shard(
                p, lambda exc, lineno: errors.append((lineno, exc))))
            return records, errors

        entry = self._cached("shard", path, decode)
        records, errors = entry
        if errors and self._reported.get(path) is not entry:
            if quarantine is None:
                raise errors[0][1]
            # a name that is not UTF-8 decodes to surrogates, which a UTF-8 file cannot hold
            name = os.fsencode(path.name).decode("utf-8", "backslashreplace")
            for lineno, exc in errors:
                quarantine.put(f"{name}:{lineno}", exc)
            self._reported[path] = entry
        return records

    def records(self, paths, quarantine: Quarantine | None = None) -> list[Record]:
        """The records of several shards in file order; the first of each id wins."""
        return dedupe_by_id(chain.from_iterable(
            self.shard(p, quarantine) for p in paths))[0]

    def uris(self, config: PipelineConfig, quarantine: Quarantine) -> dict[str, str]:
        """Image URI of each single-image source record, by record id."""
        return {r.id: r.image_uris[0] for r in _source_records(config, self, quarantine)
                if len(r.image_uris) == 1}

    def published(self, path: Path, decode: Callable, *args) -> tuple:
        """The values that ``decode(path, *args)`` yields, in file order."""
        return self._cached((decode, *args), path, lambda p: tuple(decode(p, *args)))

    def keep(self, paths) -> None:
        """Drop every published file but those at ``paths``; shards stay cached."""
        self._files = {k: v for k, v in self._files.items() if k[0] == "shard" or k[1] in paths}

    def shards(self) -> dict:
        """The entries of the shards this reader has read, for a later ``Ingest``."""
        return {k: v for k, v in self._files.items() if k[0] == "shard"}


def _source_records(config: PipelineConfig, ingest: Ingest,
                    quarantine: Quarantine | None = None,
                    include_generated: bool = False) -> list[Record]:
    """All records from the input shards (optionally plus the
    ``GENERATED_SHARDS`` that exist, with one warning for each one that does
    not). An ``in_dir`` that is not a directory is an error, not an empty corpus."""
    if not Path(config.in_dir).is_dir():
        raise ShardIoError(f"io.in_dir {config.in_dir} is not a directory")
    shard_paths = sorted(Path(config.in_dir).glob("*.jsonl"))
    for path in (Path(config.out_dir) / name for name in GENERATED_SHARDS if include_generated):
        if path.exists():
            shard_paths.append(path)
        else:
            logger.warning("generated shard %s not found; reading the shards that exist", path)
    return ingest.records(shard_paths, quarantine)


def _run_llm_items(config: PipelineConfig, items, process, final_path: Path,
                   quarantine: Quarantine) -> list:
    """Run work items through an LLM-backed processor and publish the output.

    ``items`` is a list of (work_id, payload); ``process`` maps a payload to
    (output line, value) or raises a KforgeError (quarantined). The lines
    stream to ``final_path`` in input order, whatever the number of workers;
    returns the values of the published lines, in the same order.
    """
    def run_one(entry):
        work_id, payload = entry
        try:
            return work_id, process(payload), None
        except KforgeError as exc:
            return work_id, None, exc

    values = []

    def lines():
        with (ThreadPoolExecutor(max_workers=config.workers) if config.workers > 1
              else nullcontext()) as pool:
            for work_id, out, exc in (pool.map if pool else map)(run_one, items):
                if exc is not None:
                    quarantine.put(work_id, exc)
                else:
                    values.append(out[1])
                    yield out[0] + "\n"

    publish(final_path, lines())
    return values


def _run_llm_lines(config: PipelineConfig, items, process, final_path: Path,
                   quarantine: Quarantine) -> tuple[int, int]:
    """``_run_llm_items`` for a ``process`` that returns a line alone: the item and line counts."""
    return len(items), len(_run_llm_items(config, items, lambda payload: (process(payload), None),
                                          final_path, quarantine))


def _uri(uris: dict[str, str], image_id: str) -> str:
    """The image URI of ``image_id``; an image with no source record fails its item."""
    if image_id not in uris:
        raise ValidationError("image", f"{image_id} has no source record")
    return uris[image_id]


# --- stages --------------------------------------------------------------------

def _descriptors_by_image(ingest: Ingest, path: Path) -> dict[str, annotation.SemanticDescriptor]:
    return {d.image_id: d for d in ingest.published(path, annotation.read_descriptors)}


def stage_annotate(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                   ingest: Ingest, descriptors_out: Path):
    """Extract semantic descriptors for source images."""
    items = sorted(((r.id, (r.id, r.image_uris[0]))
                    for r in _source_records(config, ingest, quarantine)
                    if r.kind in (KIND_CAPTION, KIND_VQA)), key=lambda kv: kv[0])
    return _run_llm_lines(config, items, lambda p: annotation.descriptor_to_json(
        annotation.annotate_image(*p, gateway)), descriptors_out, quarantine)


def stage_pair(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
               ingest: Ingest, descriptors_in: Path, candidates_out: Path):
    """Propose aligned, contrasting image pairs from descriptors."""
    descriptors = ingest.published(descriptors_in, annotation.read_descriptors)
    index = pairing.build_index(descriptors)
    candidates = pairing.propose_pairs(index, config.max_per_image, config.min_contrast)
    pairing.write_candidates(candidates, candidates_out)
    return len(descriptors), len(candidates)


def stage_filter(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                 ingest: Ingest, descriptors_in: Path, candidates_in: Path,
                 verdicts_out: Path, selected_out: Path):
    """Run the semantic filter over candidate pairs."""
    descriptors = _descriptors_by_image(ingest, descriptors_in)
    items = [(f"{c.left_id}~{c.right_id}", c)
             for c in ingest.published(candidates_in, pairing.read_candidates)]
    uris = ingest.uris(config, quarantine)

    def process(candidate):
        verdict = pairing.filter_pair(
            candidate, descriptors[candidate.left_id], descriptors[candidate.right_id],
            gateway, uris=(_uri(uris, candidate.left_id), _uri(uris, candidate.right_id)))
        return json_line(pairing.verdict_to_obj(verdict)), verdict

    verdicts = _run_llm_items(config, items, process, verdicts_out, quarantine)
    pairing.write_candidates(
        pairing.select_pairs(sorted(verdicts, key=lambda v: v.candidate.pair_id)), selected_out)
    return len(items), len(verdicts)


def stage_caption(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                  ingest: Ingest, descriptors_in: Path, selected_in: Path, captions_out: Path):
    """Generate captions for images left unpaired."""
    descriptors = _descriptors_by_image(ingest, descriptors_in)
    paired = {image_id for pair in ingest.published(selected_in, pairing.read_candidates)
              for image_id in pair.pair_id}
    uris = ingest.uris(config, quarantine)
    items = [(image_id, image_id) for image_id in sorted(descriptors) if image_id not in paired]
    return _run_llm_lines(config, items, lambda image_id: record_to_json(
        generation.generate_caption(image_id, _uri(uris, image_id), gateway)),
        captions_out, quarantine)


def stage_pair_caption(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                       ingest: Ingest, descriptors_in: Path, verdicts_in: Path,
                       selected_in: Path, captions_out: Path):
    """Generate joint captions for selected pairs."""
    descriptors = _descriptors_by_image(ingest, descriptors_in)
    verdicts = {v.candidate.pair_id: v for v in ingest.published(
        verdicts_in, corpus.read_jsonl, pairing.verdict_from_obj)}
    uris = ingest.uris(config, quarantine)
    selected = ingest.published(selected_in, pairing.read_candidates)
    items = [(f"{c.left_id}~{c.right_id}", c) for c in selected]

    def process(candidate):
        return record_to_json(generation.generate_pair_caption(
            candidate, (_uri(uris, candidate.left_id), descriptors[candidate.left_id]),
            (_uri(uris, candidate.right_id), descriptors[candidate.right_id]),
            gateway, verdict=verdicts.get(candidate.pair_id)))

    return _run_llm_lines(config, items, process, captions_out, quarantine)


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
                     ingest: Ingest, descriptors_in: Path, selected_in: Path,
                     interleaved_out: Path):
    """Generate multi-image interleaved descriptions."""
    seed = _seed(config, "interleave grouping")
    descriptors = _descriptors_by_image(ingest, descriptors_in)
    uris = ingest.uris(config, quarantine)
    groups = generation.group_for_interleave(
        ingest.published(selected_in, pairing.read_candidates), descriptors,
        min_size=config.interleave_min, max_size=config.interleave_max, seed=seed)
    items = [("g~" + "~".join(group), group) for group in groups]
    return _run_llm_lines(config, items, lambda group: record_to_json(
        generation.generate_interleaved(
            [GroupMember(i, _uri(uris, i), descriptors[i]) for i in group], gateway)),
        interleaved_out, quarantine)


def stage_vqa_synth(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                    ingest: Ingest, captions_in: Path, vqa_out: Path):
    """Reconstruct VQA supervision from generated captions."""
    items = [(r.id, r) for r in ingest.shard(captions_in)]
    return _run_llm_lines(config, items, lambda r: record_to_json(
        generation.synthesize_vqa(r, config.vqa_policy, gateway)), vqa_out, quarantine)


def stage_kd_score(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                   ingest: Ingest, profiles_out: Path, report_out: Path):
    """Score knowledge density over the corpus and write a report."""
    records = [r for r in _source_records(config, ingest, quarantine, include_generated=True)
               if r.kind != KIND_OTHER]
    items = [(r.id, r) for r in records]

    def process(record):
        profile = knowledge.kd_score(record, gateway)
        return json_line(profile), knowledge.ProfileCounts.of(profile)

    profiles = _run_llm_items(config, items, process, profiles_out, quarantine)
    report = knowledge.build_report(profiles, {r.id: r.source for r in records},
                                    config.kd_comparisons, gateway.backend_id)
    publish(report_out, [json.dumps(report, ensure_ascii=False, indent=2, sort_keys=True)])
    return len(items), len(profiles)


def stage_mix(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
              ingest: Ingest, mix_dir: Path):
    """Plan, sample, and verify the configured training mixture."""
    spec = _mixture_spec(config)
    records = _source_records(config, ingest, quarantine, include_generated=True)
    if not records:
        # empty corpus: publish empty outputs and report the failure via verify
        mixture.publish_mixture(mix_dir, mixture.MixturePlan(spec, {}, {}, {}), [])
        return 0, 0
    sampled, _ = mixture.build_mixture(records, spec, mix_dir, config.rebalance)
    return len(records), len(sampled)


def stage_stats(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                ingest: Ingest, stats_out: Path):
    """Summarize corpus counts by source and kind."""
    records = _source_records(config, ingest, quarantine, include_generated=True)
    doc = {"records": len(records), "by_source": Counter(r.source for r in records),
           "by_kind": Counter(r.kind for r in records)}
    publish(stats_out, [json.dumps(doc, sort_keys=True, indent=2)])
    return len(records), len(records)


@dataclass(frozen=True)
class Stage:
    """One stage: ``reads`` names the files under ``out_dir`` it needs and
    ``writes`` those it publishes (``mixture`` is a directory). ``run_stage``
    calls ``run(config, gateway, quarantine, ingest, *reads, *writes)`` with
    their paths; ``check`` raises for a setting the stage would reject."""
    name: str
    run: Callable[..., tuple[int, int]]
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    check: Callable[[PipelineConfig], object] | None = None


# every stage, in run_all order; a command's help is its run function's docstring
STAGES = (
    Stage("annotate", stage_annotate, (), ("descriptors.jsonl",)),
    Stage("pair", stage_pair, ("descriptors.jsonl",), ("pair_candidates.jsonl",)),
    Stage("filter", stage_filter, ("descriptors.jsonl", "pair_candidates.jsonl"),
          ("pair_verdicts.jsonl", "pairs_selected.jsonl")),
    Stage("pair-caption", stage_pair_caption, ("descriptors.jsonl", "pair_verdicts.jsonl",
                                                "pairs_selected.jsonl"), ("pair_caption.jsonl",)),
    Stage("caption", stage_caption, ("descriptors.jsonl", "pairs_selected.jsonl"),
          ("caption1.jsonl",)),
    Stage("interleave", stage_interleave, ("descriptors.jsonl", "pairs_selected.jsonl"),
          ("interleaved.jsonl",), lambda config: _seed(config, "interleave grouping")),
    Stage("vqa-synth", stage_vqa_synth, ("caption1.jsonl",), ("vqa1.jsonl",)),
    Stage("kd-score", stage_kd_score, (), ("kd_profiles.jsonl", "kd_report.json")),
    Stage("mix", stage_mix, (), ("mixture",), _mixture_spec),
    Stage("stats", stage_stats, (), ("corpus_stats.json",)),
)


_runs = threading.local()  # the run this thread is in: (.work path, gateway, reader)
_last_shards: dict = {}  # the shard entries of the last run that ended in this process


@contextmanager
def _run(config: PipelineConfig, gateway: Gateway | None, stages: tuple[Stage, ...]):
    """The run over ``out_dir/.work``; yields its gateway and its ``Ingest``.

    The outermost entry checks the settings, with ``validate_config`` and
    each of ``stages``' ``check``. It then takes ``.work/lock`` (a
    ``ShardIoError`` if it cannot be created), an exclusive ``flock`` taken
    without waiting, so a second process raises ``WorkspaceBusy``; the
    kernel drops a dead process's lock. It attaches ``.work/replies.log``,
    which resume reads, as the store of ``gateway`` (or of one built from
    ``config``), and creates the reader, seeded with the shards that the
    last run to end in this process read. On exit the gateway gets its
    previous store back, and this run's shards replace the last run's. An
    entry within this thread's run over the same ``.work``, as each stage
    of ``run_all``, reuses that run."""
    global _last_shards
    work = (Path(config.out_dir) / ".work").absolute()
    outer = getattr(_runs, "current", None)
    if outer is not None and outer[0] == work:
        yield outer[1:]
        return
    validate_config(config)
    for stage in stages:
        if stage.check is not None:
            stage.check(config)
    try:
        work.mkdir(parents=True, exist_ok=True)
        lock = open(work / "lock", "ab")
    except OSError as exc:
        raise ShardIoError(f"io.out_dir {config.out_dir} is not usable: {exc}") from exc
    with lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise WorkspaceBusy(f"{work / 'lock'} is locked: another kforge process is "
                                f"running over {config.out_dir}") from None
        with nullcontext(gateway) if gateway is not None else build_gateway(config) as gateway:
            store = gateway.store
            with ReplyStore(work / "replies.log") as gateway.store:
                ingest = Ingest(_last_shards)
                _runs.current = (work, gateway, ingest)
                try:
                    yield _runs.current[1:]
                finally:
                    gateway.store, _runs.current = store, outer
                    _last_shards = ingest.shards()


def run_stage(stage: str, config: PipelineConfig, gateway: Gateway | None = None,
              strict: bool = False) -> dict:
    """Run one stage from its current inputs; returns the stats document.

    A lone call is a run of its own (see ``_run``): the stage's settings
    check, the ``out_dir`` lock, the reply store ``out_dir/.work/replies.log``
    on ``gateway`` and a reader seeded with the last run's shards. Within
    ``run_all`` the stage runs in ``run_all``'s run, with its gateway and
    reader. The stage's quarantine file is published once its function has
    returned.
    """
    row = next((s for s in STAGES if s.name == stage), None)
    if row is None:
        raise ConfigInvalid(f"unknown stage {stage!r}")
    with _run(config, gateway, (row,)) as (gateway, ingest):
        quarantine = Quarantine(Path(config.quarantine_dir), stage)
        before = gateway.stats.snapshot()
        n_in, n_out = row.run(config, gateway, quarantine, ingest,
                              *(Path(config.out_dir) / name for name in row.reads + row.writes))
        after = gateway.stats.snapshot()
        quarantine.publish()
    stats = {"stage": stage, "in": n_in, "out": n_out, "quarantined": len(quarantine.rows),
             "retried": after["retries"] - before["retries"],
             "reasked": after["reasks"] - before["reasks"],
             "llm_calls": after["llm_calls"] - before["llm_calls"],
             "strict_failure": bool(strict and quarantine.rows)}
    logger.info("stage %s done: %s", stage, stats)
    return stats


def run_all(config: PipelineConfig, strict: bool = False,
            gateway: Gateway | None = None) -> tuple[int, list[dict]]:
    """Run every stage in order from the current inputs and settings.

    The stages run in one run (see ``_run``): the settings every stage would
    reject are checked before the first stage runs, so a bad seed or
    mixture spec costs no model call; then the run holds the ``out_dir``
    lock, the reply store and one ``Ingest``, so each input file is read
    once, and a shard that the last run in this process read unchanged is
    not read again. After each stage the reader drops the published files
    that no later stage reads. Each stage goes through ``run_stage``. A killed run
    resumes by running again: every stage is recomputed, and the model
    calls answered before are read back from the reply store.
    """
    all_stats = []
    with _run(config, gateway, STAGES) as (_, ingest):
        for i, stage in enumerate(STAGES):
            stats = run_stage(stage.name, config, strict=strict)
            all_stats.append(stats)
            if stats["strict_failure"]:
                return 1, all_stats
            ingest.keep({Path(config.out_dir) / n for s in STAGES[i + 1:] for n in s.reads})
    return 0, all_stats
