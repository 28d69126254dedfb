"""Pipeline orchestration: config, checkpoint/resume, quarantine, stages.

Every stage publishes its outputs through ``corpus.publish`` (temp file,
fsync, rename, directory fsync) and sends failing records to the quarantine
directory with their error code. LLM-backed stages keep one append-only
journal per stage (see ``StageIO``), which gives two guarantees: a killed
process loses nothing that was flushed, and an OS crash loses at most about
``SYNC_INTERVAL_S`` of journal writes and never a published file. A killed
stage resumes where it left off as long as the config digest matches.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from kforge import annotation, generation, knowledge, mixture, pairing
from kforge.corpus import (KIND_CAPTION, KIND_OTHER, KIND_VQA, Record,
                           publish, read_shard, record_to_json)
from kforge.errors import ConfigInvalid, KforgeError
from kforge.gateway import Gateway, HttpBackend, MockBackend, RetryPolicy
from kforge.generation import GroupMember, VqaValidationPolicy

logger = logging.getLogger(__name__)

ENV_ENDPOINT = "KF_LLM_ENDPOINT"
ENV_API_KEY = "KF_LLM_API_KEY"
ENV_MODEL = "KF_LLM_MODEL"

# a stage journal is fsynced at most this often; flushes in between only
# reach the kernel
SYNC_INTERVAL_S = 1.0
JOURNAL_FORMAT = "journal/1"


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
    max_per_image: int = 2
    min_contrast: float = 0.25
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
    flush_every: int = 16

    def digest(self) -> str:
        doc = {
            "in_dir": self.in_dir, "out_dir": self.out_dir,
            "quarantine_dir": self.quarantine_dir,
            "backend": [self.backend_kind, self.endpoint, self.model],
            "rps": self.rps, "in_flight": self.in_flight,
            "retry": [self.retry.max_attempts, self.retry.backoff_base,
                      self.retry.backoff_factor, self.retry.reask_on_malformed],
            "pairing": [self.max_per_image, self.min_contrast],
            "vqa": [self.vqa_policy.min_items, self.vqa_policy.max_items,
                    self.vqa_policy.min_global,
                    self.vqa_policy.detail_to_global_min_ratio,
                    self.vqa_policy.grounding_min_overlap],
            "interleave": [self.interleave_min, self.interleave_max],
            "mixture": [self.mixture_spec, self.mixture_budget, self.mixture_unit,
                        self.rebalance],
            "kd": sorted(map(list, self.kd_comparisons)),
            "seed": self.seed,
        }
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def config_from_obj(obj: dict) -> PipelineConfig:
    """Parse the JSON config document; unknown sections are rejected."""
    known = {"backend", "pairing", "vqa_policy", "interleave", "mixture", "kd",
             "io", "seed", "workers", "flush_every"}
    unknown = set(obj) - known
    if unknown:
        raise ConfigInvalid(f"unknown config sections: {sorted(unknown)}")
    io = obj.get("io") or {}
    backend = obj.get("backend") or {}
    pairing_cfg = obj.get("pairing") or {}
    vqa = obj.get("vqa_policy") or {}
    interleave = obj.get("interleave") or {}
    mix = obj.get("mixture") or {}
    kd = obj.get("kd") or {}
    retry_cfg = backend.get("retry") or {}
    try:
        config = PipelineConfig(
            in_dir=io["in_dir"],
            out_dir=io["out_dir"],
            quarantine_dir=io["quarantine_dir"],
            backend_kind=backend.get("kind", "mock"),
            endpoint=backend.get("endpoint") or os.environ.get(ENV_ENDPOINT),
            model=backend.get("model") or os.environ.get(ENV_MODEL),
            api_key=backend.get("api_key") or os.environ.get(ENV_API_KEY),
            rps=backend.get("rps"),
            in_flight=int(backend.get("in_flight", 8)),
            retry=RetryPolicy(
                max_attempts=int(retry_cfg.get("max_attempts", 3)),
                backoff_base=float(retry_cfg.get("backoff_base", 0.5)),
                backoff_factor=float(retry_cfg.get("backoff_factor", 2.0)),
                reask_on_malformed=bool(retry_cfg.get("reask_on_malformed", True)),
            ),
            max_per_image=int(pairing_cfg.get("max_per_image", 2)),
            min_contrast=float(pairing_cfg.get("min_contrast", 0.25)),
            vqa_policy=VqaValidationPolicy(
                min_items=int(vqa.get("min_items", 5)),
                max_items=int(vqa.get("max_items", 15)),
                min_global=int(vqa.get("min_global", 1)),
                detail_to_global_min_ratio=float(vqa.get("detail_to_global_min_ratio", 2.0)),
                grounding_min_overlap=float(vqa.get("grounding_min_overlap", 0.5)),
            ),
            interleave_min=int(interleave.get("min_group", 3)),
            interleave_max=int(interleave.get("max_group", 5)),
            mixture_spec=mix.get("spec", "builtin:baseline"),
            mixture_budget=int(mix.get("budget", 1000)),
            mixture_unit=mix.get("unit", "samples"),
            rebalance=bool(mix.get("rebalance", False)),
            kd_comparisons=tuple(tuple(c) for c in kd.get("comparisons",
                                                          [["pair_caption", "caption0"]])),
            seed=obj.get("seed"),
            workers=int(obj.get("workers", 1)),
            flush_every=int(obj.get("flush_every", 16)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad config: {exc}") from exc
    return validate_config(config)


def load_config(path: str | Path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    return config_from_obj(obj)


def validate_config(config: PipelineConfig) -> PipelineConfig:
    paths = [config.in_dir, config.out_dir, config.quarantine_dir]
    if len({str(Path(p)) for p in paths}) != 3:
        raise ConfigInvalid("in_dir, out_dir, and quarantine_dir must be distinct")
    if config.backend_kind not in ("mock", "http"):
        raise ConfigInvalid(f"unknown backend kind {config.backend_kind!r}")
    if config.backend_kind == "http" and not (config.endpoint and config.model):
        raise ConfigInvalid("http backend needs an endpoint and model "
                            f"(config or {ENV_ENDPOINT}/{ENV_MODEL})")
    if config.workers < 1:
        raise ConfigInvalid("workers must be >= 1")
    return config


def build_gateway(config: PipelineConfig) -> Gateway:
    if config.backend_kind == "http":
        backend = HttpBackend(config.endpoint, config.model, config.api_key)
    else:
        backend = MockBackend()
    return Gateway(backend, retry=config.retry, rps=config.rps,
                   in_flight=config.in_flight)


# --- checkpointed stage I/O --------------------------------------------------

class StageIO:
    """Append-only journal for one resumable stage, then a durable publish.

    The journal ``<work_dir>/<stage>.ckpt`` starts with a JSON header (stage,
    config digest, ``format``). Each processed item adds its output lines,
    tagged ``+``, then a commit line ``=<work_id>``; output lines are
    single-line JSON and work ids never contain a newline. ``flush`` hands
    the journal to the kernel every ``flush_every`` items, so a killed
    process loses nothing flushed; the journal is fsynced at most once per
    ``SYNC_INTERVAL_S``, so an OS crash loses at most about that much of it.

    On resume only committed items count: whatever follows the last commit,
    a torn final line included, is cut off and its item processed again, so
    every item's lines appear exactly once. ``finalize`` publishes them with
    ``corpus.publish``, runs the stage's later publishes, and only then
    removes the journal, so no published file is ever lost and a kill
    before the stage's last file never repeats its model calls.
    """

    def __init__(self, final_path: Path, work_dir: Path, stage: str,
                 config_digest: str, flush_every: int = 16):
        self.final_path = Path(final_path)
        self.ckpt_path = work_dir / f"{stage}.ckpt"
        self.stage = stage
        self.config_digest = config_digest
        self.flush_every = max(1, flush_every)
        self.processed: set[str] = set()
        self._lines: list[str] = []
        self._unflushed = 0
        work_dir.mkdir(parents=True, exist_ok=True)
        resumed = self.ckpt_path.exists() and self._load()
        self._fh = open(self.ckpt_path, "a" if resumed else "w", encoding="utf-8",
                        newline="\n")
        if not resumed:
            self._fh.write(json.dumps({"stage": self.stage,
                                       "config_digest": self.config_digest,
                                       "format": JOURNAL_FORMAT}) + "\n")
        self._synced_at = time.monotonic()

    def _load(self) -> bool:
        """Read the committed items and cut the journal after the last commit.

        Returns False when not even the header line is complete, that is,
        nothing was committed.
        """
        with open(self.ckpt_path, "r+b") as fh:
            header_line = fh.readline()
            if not header_line.endswith(b"\n"):
                return False
            try:
                header = json.loads(header_line)
            except ValueError as exc:
                raise ConfigInvalid(f"corrupt checkpoint {self.ckpt_path}") from exc
            if not isinstance(header, dict) or header.get("format") != JOURNAL_FORMAT:
                raise ConfigInvalid(
                    f"checkpoint {self.ckpt_path} has an unknown format; "
                    "remove it to rerun stage " + self.stage)
            if header.get("config_digest") != self.config_digest:
                raise ConfigInvalid(
                    f"checkpoint for stage {self.stage} was written with a "
                    "different config; refusing to resume")
            committed_end = pos = len(header_line)
            uncommitted: list[str] = []
            for raw in fh:
                if not raw.endswith(b"\n"):
                    break
                pos += len(raw)
                tag = raw[:1]
                if tag not in (b"+", b"="):
                    break
                try:
                    body = raw[1:-1].decode("utf-8")
                except UnicodeDecodeError:
                    break
                if tag == b"+":
                    uncommitted.append(body)
                else:
                    self.processed.add(body)
                    self._lines.extend(uncommitted)
                    uncommitted = []
                    committed_end = pos
            fh.truncate(committed_end)
        return True

    def __enter__(self) -> StageIO:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def append(self, work_id: str, lines: list[str]) -> None:
        write = self._fh.write
        for line in lines:
            write(f"+{line}\n")
        write(f"={work_id}\n")
        self._lines.extend(lines)
        self.processed.add(work_id)
        self._unflushed += 1
        if self._unflushed >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        self._fh.flush()
        now = time.monotonic()
        if now - self._synced_at >= SYNC_INTERVAL_S:
            os.fsync(self._fh.fileno())
            self._synced_at = now
        self._unflushed = 0

    def close(self) -> None:
        self._fh.close()

    def finalize(self, then=None) -> list[str]:
        """Durably publish the committed output, call ``then(lines)``, then
        remove the journal."""
        self.flush()
        publish(self.final_path, (line + "\n" for line in self._lines))
        self.close()
        if then is not None:
            then(self._lines)
        self.ckpt_path.unlink()
        return self._lines


class Quarantine:
    def __init__(self, directory: Path, stage: str):
        self.path = Path(directory) / f"{stage}.jsonl"
        self.count = 0
        Path(directory).mkdir(parents=True, exist_ok=True)

    def put(self, work_id: str, error: Exception, payload: dict | None = None) -> None:
        code = getattr(error, "code", "error")
        row = {"work_id": work_id, "error_code": code, "error": str(error)}
        if payload is not None:
            row["record"] = payload
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")
        self.count += 1
        logger.warning("quarantined %s at stage %s: %s", work_id, self.path.stem, error)


# --- shared stage plumbing ----------------------------------------------------

def _out(config: PipelineConfig, name: str) -> Path:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _work_dir(config: PipelineConfig) -> Path:
    return Path(config.out_dir) / ".work"


def _source_records(config: PipelineConfig, quarantine: Quarantine | None = None,
                    include_generated: bool = False) -> list[Record]:
    """All records from the input shards (optionally plus generated shards)."""
    shard_paths = sorted(Path(config.in_dir).glob("*.jsonl"))
    if include_generated:
        generated = ("caption1.jsonl", "pair_caption.jsonl", "interleaved.jsonl",
                     "vqa1.jsonl")
        shard_paths += [p for p in (Path(config.out_dir) / n for n in generated)
                        if p.exists()]
    records: list[Record] = []
    seen: set[str] = set()
    for path in shard_paths:
        def on_error(exc, lineno, raw, _path=path):
            if quarantine is None:
                raise exc
            quarantine.put(f"{_path.name}:{lineno}", exc)

        for record in read_shard(path, on_error=on_error):
            if record.id not in seen:
                seen.add(record.id)
                records.append(record)
    return records


def _run_llm_items(config: PipelineConfig, stage: str, items, process,
                   final_path: Path, quarantine: Quarantine, then=None):
    """Run work items through an LLM-backed processor with resume support.

    ``items`` is a list of (work_id, payload); ``process`` maps a payload to
    a list of output lines or raises a KforgeError (quarantined). ``then``
    receives the published lines and publishes the stage's remaining files
    while the journal still exists.
    """
    def run_one(entry):
        work_id, payload = entry
        try:
            return work_id, process(payload), None
        except KforgeError as exc:
            return work_id, None, exc

    with StageIO(final_path, _work_dir(config), stage, config.digest(),
                 config.flush_every) as io:
        pending = [(work_id, payload) for work_id, payload in items
                   if work_id not in io.processed]
        if config.workers > 1:
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                results = pool.map(run_one, pending)
                for work_id, lines, exc in results:
                    if exc is not None:
                        quarantine.put(work_id, exc)
                        io.append(work_id, [])
                    else:
                        io.append(work_id, lines)
        else:
            for entry in pending:
                work_id, lines, exc = run_one(entry)
                if exc is not None:
                    quarantine.put(work_id, exc)
                    io.append(work_id, [])
                else:
                    io.append(work_id, lines)
        lines = io.finalize(then)
    return len(items), len(lines)


# --- stages --------------------------------------------------------------------

def _annotatable(records: list[Record]) -> list[tuple[str, tuple[str, str]]]:
    items = []
    for r in records:
        if r.kind in (KIND_CAPTION, KIND_VQA):
            items.append((r.id, (r.id, r.image_uris[0])))
    items.sort(key=lambda kv: kv[0])
    return items


def stage_annotate(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine):
    records = _source_records(config, quarantine)
    items = _annotatable(records)

    def process(payload):
        image_id, uri = payload
        descriptor = annotation.annotate_image(image_id, uri, gateway)
        return [annotation.descriptor_to_json(descriptor)]

    return _run_llm_items(config, "annotate", items, process,
                          _out(config, "descriptors.jsonl"), quarantine)


def stage_pair(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine):
    descriptors = list(annotation.read_descriptors(_out(config, "descriptors.jsonl")))
    index = pairing.build_index(descriptors)
    candidates = pairing.propose_pairs(index, config.max_per_image, config.min_contrast)
    pairing.write_candidates(candidates, _out(config, "pair_candidates.jsonl"))
    return len(descriptors), len(candidates)


def stage_filter(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine):
    descriptors = {d.image_id: d
                   for d in annotation.read_descriptors(_out(config, "descriptors.jsonl"))}
    candidates = list(pairing.read_candidates(_out(config, "pair_candidates.jsonl")))
    uris = {r.id: r.image_uris[0] for r in _source_records(config, quarantine)
            if len(r.image_uris) == 1}

    items = [(f"{c.left_id}~{c.right_id}", c) for c in candidates]

    def process(candidate):
        verdict = pairing.filter_pair(
            candidate, descriptors[candidate.left_id], descriptors[candidate.right_id],
            gateway,
            uris=(uris.get(candidate.left_id, candidate.left_id),
                  uris.get(candidate.right_id, candidate.right_id)))
        return [json.dumps(pairing.verdict_to_obj(verdict), ensure_ascii=False,
                           separators=(",", ":"))]

    def select(lines):
        verdicts = [pairing.verdict_from_obj(json.loads(line)) for line in lines]
        verdicts.sort(key=lambda v: v.candidate.pair_id)
        selected = pairing.select_pairs(verdicts)
        pairing.write_candidates(selected, _out(config, "pairs_selected.jsonl"))

    return _run_llm_items(config, "filter", items, process,
                          _out(config, "pair_verdicts.jsonl"), quarantine, then=select)


def _selected_pairs(config: PipelineConfig) -> list[pairing.PairCandidate]:
    path = _out(config, "pairs_selected.jsonl")
    if not path.exists():
        return []
    return list(pairing.read_candidates(path))


def stage_caption(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine):
    """Single-caption branch for images left unpaired by the filter."""
    descriptors = {d.image_id: d
                   for d in annotation.read_descriptors(_out(config, "descriptors.jsonl"))}
    paired = {image_id for pair in _selected_pairs(config) for image_id in pair.pair_id}
    uris = {r.id: r.image_uris[0] for r in _source_records(config, quarantine)
            if len(r.image_uris) == 1}
    items = [(image_id, (image_id, uris[image_id]))
             for image_id in sorted(descriptors)
             if image_id not in paired and image_id in uris]

    def process(payload):
        image_id, uri = payload
        record = generation.generate_caption(image_id, uri, gateway)
        return [record_to_json(record)]

    return _run_llm_items(config, "caption", items, process,
                          _out(config, "caption1.jsonl"), quarantine)


def stage_pair_caption(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine):
    descriptors = {d.image_id: d
                   for d in annotation.read_descriptors(_out(config, "descriptors.jsonl"))}
    verdicts = {v.candidate.pair_id: v
                for v in pairing.read_verdicts(_out(config, "pair_verdicts.jsonl"))}
    uris = {r.id: r.image_uris[0] for r in _source_records(config, quarantine)
            if len(r.image_uris) == 1}
    selected = _selected_pairs(config)
    items = [(f"{c.left_id}~{c.right_id}", c) for c in selected]

    def process(candidate):
        record = generation.generate_pair_caption(
            candidate,
            (uris.get(candidate.left_id, candidate.left_id), descriptors[candidate.left_id]),
            (uris.get(candidate.right_id, candidate.right_id), descriptors[candidate.right_id]),
            gateway,
            verdict=verdicts.get(candidate.pair_id))
        return [record_to_json(record)]

    return _run_llm_items(config, "pair-caption", items, process,
                          _out(config, "pair_caption.jsonl"), quarantine)


def stage_interleave(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine):
    if config.seed is None:
        raise ConfigInvalid("interleave grouping samples; config needs a seed")
    descriptors = {d.image_id: d
                   for d in annotation.read_descriptors(_out(config, "descriptors.jsonl"))}
    uris = {r.id: r.image_uris[0] for r in _source_records(config, quarantine)
            if len(r.image_uris) == 1}
    groups = generation.group_for_interleave(
        _selected_pairs(config), descriptors,
        min_size=config.interleave_min, max_size=config.interleave_max,
        seed=config.seed)
    items = [("g~" + "~".join(group),
              [GroupMember(i, uris.get(i, i), descriptors[i]) for i in group])
             for group in groups]

    def process(group):
        record = generation.generate_interleaved(group, gateway)
        return [record_to_json(record)]

    return _run_llm_items(config, "interleave", items, process,
                          _out(config, "interleaved.jsonl"), quarantine)


def stage_vqa_synth(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine):
    path = _out(config, "caption1.jsonl")
    captions = list(read_shard(path)) if path.exists() else []
    items = [(r.id, r) for r in captions]

    def process(record):
        vqa = generation.synthesize_vqa(record, config.vqa_policy, gateway)
        return [record_to_json(vqa)]

    return _run_llm_items(config, "vqa-synth", items, process,
                          _out(config, "vqa1.jsonl"), quarantine)


def stage_kd_score(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine):
    records = [r for r in _source_records(config, quarantine, include_generated=True)
               if r.kind != KIND_OTHER]
    items = [(r.id, r) for r in records]
    source_of = {r.id: r.source for r in records}

    def process(record):
        profile = knowledge.kd_score(record, gateway)
        return [json.dumps(knowledge.profile_to_obj(profile), ensure_ascii=False,
                           separators=(",", ":"))]

    def report(lines):
        profiles = [knowledge.ProfileCounts.from_line(line) for line in lines]
        scored_sources = {source_of.get(p.sample_id) for p in profiles}
        comparisons = [pair for pair in config.kd_comparisons
                       if all(s in scored_sources for s in pair)]
        doc = knowledge.build_report(profiles, source_of, comparisons,
                                     backend_id=gateway.backend_id)
        publish(_out(config, "kd_report.json"),
                [json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True)])

    return _run_llm_items(config, "kd-score", items, process,
                          _out(config, "kd_profiles.jsonl"), quarantine, then=report)


def stage_mix(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine):
    if config.seed is None:
        raise ConfigInvalid("mix samples; config needs a seed")
    if config.mixture_spec.startswith("builtin:"):
        spec = mixture.builtin_spec(config.mixture_spec.split(":", 1)[1],
                                    budget=config.mixture_budget,
                                    seed=config.seed, unit=config.mixture_unit)
    else:
        spec = mixture.load_spec(config.mixture_spec)
    records = _source_records(config, quarantine, include_generated=True)
    pools = mixture.resolve_pools(records, spec)
    mix_dir = Path(config.out_dir) / "mixture"
    if not records:
        # empty corpus: publish empty outputs and report the failure via verify
        mixture.publish_mixture(mix_dir, mixture.MixturePlan(spec, {}, {}, {}), [])
        return 0, 0
    plan = mixture.plan_mixture(spec, mixture.pool_sizes(pools, spec.unit),
                                rebalance=config.rebalance)
    sampled = mixture.sample_mixture(plan, pools)
    mixture.publish_mixture(mix_dir, plan, sampled)
    return len(records), len(sampled)


def stage_stats(config: PipelineConfig, gateway: Gateway, quarantine: Quarantine):
    records = _source_records(config, quarantine, include_generated=True)
    by_source: dict[str, int] = {}
    by_kind: dict[str, int] = {}
    for r in records:
        by_source[r.source] = by_source.get(r.source, 0) + 1
        by_kind[r.kind] = by_kind.get(r.kind, 0) + 1
    doc = {"records": len(records), "by_source": by_source, "by_kind": by_kind}
    publish(_out(config, "corpus_stats.json"), [json.dumps(doc, sort_keys=True, indent=2)])
    return len(records), len(records)


_STAGE_FUNCS = {
    "annotate": stage_annotate,
    "pair": stage_pair,
    "filter": stage_filter,
    "caption": stage_caption,
    "pair-caption": stage_pair_caption,
    "interleave": stage_interleave,
    "vqa-synth": stage_vqa_synth,
    "kd-score": stage_kd_score,
    "mix": stage_mix,
    "stats": stage_stats,
}

# the last file each stage publishes: run_all skips a stage once it exists
_STAGE_OUTPUT = {
    "annotate": "descriptors.jsonl",
    "pair": "pair_candidates.jsonl",
    "filter": "pairs_selected.jsonl",
    "caption": "caption1.jsonl",
    "pair-caption": "pair_caption.jsonl",
    "interleave": "interleaved.jsonl",
    "vqa-synth": "vqa1.jsonl",
    "kd-score": "kd_report.json",
    "mix": "mixture/mixture_verify.json",
    "stats": "corpus_stats.json",
}


def run_stage(stage: str, config: PipelineConfig, gateway: Gateway | None = None,
              strict: bool = False) -> dict:
    """Run one stage; returns the stats document."""
    if stage not in _STAGE_FUNCS:
        raise ConfigInvalid(f"unknown stage {stage!r}")
    validate_config(config)
    with nullcontext(gateway) if gateway is not None else build_gateway(config) as gateway:
        quarantine = Quarantine(Path(config.quarantine_dir), stage)
        before = gateway.stats.snapshot()
        n_in, n_out = _STAGE_FUNCS[stage](config, gateway, quarantine)
        after = gateway.stats.snapshot()
    stats = {
        "stage": stage,
        "in": n_in,
        "out": n_out,
        "quarantined": quarantine.count,
        "retried": after["retries"] - before["retries"],
        "llm_calls": after["llm_calls"] - before["llm_calls"],
        "strict_failure": bool(strict and quarantine.count),
    }
    logger.info("stage %s done: %s", stage, stats)
    return stats


RUN_ALL_ORDER = ("annotate", "pair", "filter", "pair-caption", "caption",
                 "interleave", "vqa-synth", "kd-score", "mix", "stats")


def run_all(config: PipelineConfig, strict: bool = False,
            gateway: Gateway | None = None) -> tuple[int, list[dict]]:
    """Run the full pipeline in order; completed stages are skipped on resume."""
    validate_config(config)
    all_stats = []
    work_dir = _work_dir(config)
    with nullcontext(gateway) if gateway is not None else build_gateway(config) as gateway:
        for stage in RUN_ALL_ORDER:
            final = _out(config, _STAGE_OUTPUT[stage])
            resumable = (work_dir / f"{stage}.ckpt").exists()
            if final.exists() and not resumable:
                logger.info("stage %s already complete, skipping", stage)
                continue
            stats = run_stage(stage, config, gateway=gateway, strict=strict)
            all_stats.append(stats)
            if stats["strict_failure"]:
                return 1, all_stats
    return 0, all_stats
