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

Each stage's quarantined items, with their error codes, are published as
one file when the stage ends, so a rerun replaces the rows of the last one.
Within ``run_all`` the stages share one ``Ingest``, so each shard is read
and validated once, and an invalid line is quarantined once, under the
stage that first reads its shard. A stage's missing input is an error, and
no stage reads back what it publishes: it keeps what its items returned.
"""
from __future__ import annotations

import json
import logging
import math
import os
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
from kforge.errors import ConfigInvalid, KforgeError, ValidationError
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
    """Conversion by ``kind``; an integer refuses a fractional part, and
    with ``null`` a ``None`` stays ``None``."""
    def convert(key: str, value):
        try:
            if kind is int and isinstance(value, float) and not value.is_integer():
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
        lambda value, config: 2 <= value <= config.interleave_max,
        "{key} must be >= 2 and <= max_group"), attr="interleave_min"),
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
    refused. An absent or empty section reads as ``{}``."""
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
        elif isinstance(value or {}, dict):
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
    if len({str(Path(p)) for p in (config.in_dir, config.out_dir, config.quarantine_dir)}) != 3:
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
                p, on_error=lambda exc, lineno: errors.append((lineno, exc))))
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
        return self._cached("pairs", _out(config, "pairs_selected.jsonl"),
                            lambda p: tuple(pairing.read_candidates(p)))


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

def stage_annotate(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                   ingest: Ingest):
    """Extract semantic descriptors for source images."""
    items = sorted(((r.id, (r.id, r.image_uris[0]))
                    for r in _source_records(config, ingest, quarantine)
                    if r.kind in (KIND_CAPTION, KIND_VQA)), key=lambda kv: kv[0])
    return _run_llm_lines(config, items, lambda p: annotation.descriptor_to_json(
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
    items = [(f"{c.left_id}~{c.right_id}", c)
             for c in pairing.read_candidates(_out(config, "pair_candidates.jsonl"))]
    uris = ingest.uris(config, quarantine)

    def process(candidate):
        verdict = pairing.filter_pair(
            candidate, descriptors[candidate.left_id], descriptors[candidate.right_id],
            gateway, uris=(_uri(uris, candidate.left_id), _uri(uris, candidate.right_id)))
        return json_line(pairing.verdict_to_obj(verdict)), verdict

    verdicts = _run_llm_items(config, items, process, _out(config, "pair_verdicts.jsonl"),
                              quarantine)
    pairing.write_candidates(
        pairing.select_pairs(sorted(verdicts, key=lambda v: v.candidate.pair_id)),
        _out(config, "pairs_selected.jsonl"))
    return len(items), len(verdicts)


def stage_caption(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                  ingest: Ingest):
    """Generate captions for images left unpaired."""
    descriptors = ingest.descriptor_map(config)
    paired = {image_id for pair in ingest.selected_pairs(config)
              for image_id in pair.pair_id}
    uris = ingest.uris(config, quarantine)
    items = [(image_id, image_id) for image_id in sorted(descriptors) if image_id not in paired]
    return _run_llm_lines(config, items, lambda image_id: record_to_json(
        generation.generate_caption(image_id, _uri(uris, image_id), gateway)),
        _out(config, "caption1.jsonl"), quarantine)


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
            (_uri(uris, candidate.left_id), descriptors[candidate.left_id]),
            (_uri(uris, candidate.right_id), descriptors[candidate.right_id]),
            gateway,
            verdict=verdicts.get(candidate.pair_id))
        return record_to_json(record)

    return _run_llm_lines(config, items, process,
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
    items = [("g~" + "~".join(group), group) for group in groups]
    return _run_llm_lines(config, items, lambda group: record_to_json(
        generation.generate_interleaved(
            [GroupMember(i, _uri(uris, i), descriptors[i]) for i in group], gateway)),
        _out(config, "interleaved.jsonl"), quarantine)


def stage_vqa_synth(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                    ingest: Ingest):
    """Reconstruct VQA supervision from generated captions."""
    items = [(r.id, r) for r in ingest.shard(_out(config, "caption1.jsonl"))]
    return _run_llm_lines(config, items, lambda r: record_to_json(
        generation.synthesize_vqa(r, config.vqa_policy, gateway)), _out(config, "vqa1.jsonl"),
        quarantine)


def stage_kd_score(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine,
                   ingest: Ingest):
    """Score knowledge density over the corpus and write a report."""
    records = [r for r in _source_records(config, ingest, quarantine,
                                          include_generated=True)
               if r.kind != KIND_OTHER]
    items = [(r.id, r) for r in records]

    def process(record):
        profile = knowledge.kd_score(record, gateway)
        return json_line(profile), knowledge.ProfileCounts.of(profile)

    profiles = _run_llm_items(config, items, process, _out(config, "kd_profiles.jsonl"),
                              quarantine)
    report = knowledge.build_report(profiles, {r.id: r.source for r in records},
                                    config.kd_comparisons, gateway.backend_id)
    publish(_out(config, "kd_report.json"),
            [json.dumps(report, ensure_ascii=False, indent=2, sort_keys=True)])
    return len(items), len(profiles)


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
