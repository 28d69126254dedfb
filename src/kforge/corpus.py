"""Corpus record model, JSONL shard I/O, validation, dedup, token estimates.

One shard is a UTF-8 JSONL file, one record per line, with exactly the
fields ``id, kind, image_uris, payload, source, meta``. ``payload`` is an
object whose single key names the body variant: ``caption``, ``qa``,
``text``, or ``doc``.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from kforge.errors import ParseError, ShardIoError, ValidationError

KIND_CAPTION = "caption"
KIND_VQA = "vqa"
KIND_PAIR_CAPTION = "pair_caption"
KIND_INTERLEAVED = "interleaved"
KIND_PURE_TEXT = "pure_text"
KIND_OTHER = "other"

KINDS = (KIND_CAPTION, KIND_VQA, KIND_PAIR_CAPTION, KIND_INTERLEAVED,
         KIND_PURE_TEXT, KIND_OTHER)

# kind -> (min images, max images or None for unbounded)
IMAGE_ARITY: dict[str, tuple[int, int | None]] = {
    KIND_CAPTION: (1, 1),
    KIND_VQA: (1, 1),
    KIND_PAIR_CAPTION: (2, 2),
    KIND_INTERLEAVED: (3, None),
    KIND_PURE_TEXT: (0, 0),
    KIND_OTHER: (0, None),
}

# kind -> the single payload key carrying the body
PAYLOAD_KEY: dict[str, str] = {
    KIND_CAPTION: "caption",
    KIND_VQA: "qa",
    KIND_PAIR_CAPTION: "caption",
    KIND_INTERLEAVED: "text",
    KIND_PURE_TEXT: "text",
    KIND_OTHER: "doc",
}

SCOPE_GLOBAL = "global"
SCOPE_DETAIL = "detail"

_ID_CHARS = re.compile(r"^[A-Za-z0-9._~-]+$")
MARKER = re.compile(r"<Image_(\d+)>")

DEFAULT_IMAGE_TOKENS = 256


@dataclass(frozen=True)
class QaItem:
    question: str
    answer: str
    scope: str = SCOPE_DETAIL


@dataclass(frozen=True)
class Record:
    """One corpus sample. Treat as immutable after construction."""

    id: str
    kind: str
    image_uris: tuple[str, ...]
    payload: dict
    source: str
    meta: dict = field(default_factory=dict)

    def text_units(self) -> list[str]:
        """All text carried by the payload, in a stable order."""
        key = PAYLOAD_KEY[self.kind]
        body = self.payload.get(key)
        if self.kind == KIND_VQA:
            units = []
            for item in body:
                units.append(item["question"])
                units.append(item["answer"])
            return units
        if self.kind == KIND_OTHER:
            return [json.dumps(body, ensure_ascii=False, sort_keys=True,
                               separators=(",", ":"))]
        return [body]

    def qa_items(self) -> list[QaItem]:
        if self.kind != KIND_VQA:
            raise ValueError(f"record {self.id} is not a vqa record")
        return [QaItem(d["question"], d["answer"], d.get("scope", SCOPE_DETAIL))
                for d in self.payload["qa"]]


def validate_record_id(value: str, line: int | None = None) -> None:
    if not isinstance(value, str) or not value:
        raise ValidationError("id", "must be a non-empty string", line)
    if len(value) > 128:
        raise ValidationError("id", "longer than 128 characters", line)
    if not _ID_CHARS.match(value):
        raise ValidationError("id", "contains characters outside [A-Za-z0-9._~-]", line)


def _check_markers(text: str, n_images: int, line: int | None) -> None:
    ks = [int(m.group(1)) for m in MARKER.finditer(text)]
    expected = set(range(1, n_images + 1))
    out_of_range = [k for k in ks if k not in expected]
    if out_of_range:
        raise ValidationError(
            "payload", f"image markers out of range: {sorted(set(out_of_range))}", line)
    missing = sorted(expected - set(ks))
    duplicated = sorted({k for k in ks if ks.count(k) > 1})
    if missing or duplicated:
        raise ValidationError(
            "payload",
            f"image markers must appear exactly once (missing={missing}, duplicated={duplicated})",
            line)


def validate_record(record: Record, line: int | None = None) -> Record:
    """Enforce the kind/arity table and payload invariants."""
    validate_record_id(record.id, line)
    if record.kind not in KINDS:
        raise ValidationError("kind", f"unknown kind {record.kind!r}", line)
    lo, hi = IMAGE_ARITY[record.kind]
    n = len(record.image_uris)
    if n < lo or (hi is not None and n > hi):
        bound = f"exactly {lo}" if lo == hi else (f">= {lo}" if hi is None else f"{lo}..{hi}")
        raise ValidationError("image_uris", f"kind {record.kind} requires {bound} images, got {n}", line)
    for uri in record.image_uris:
        if not isinstance(uri, str) or not uri.strip():
            raise ValidationError("image_uris", "image URIs must be non-empty strings", line)

    key = PAYLOAD_KEY[record.kind]
    if not isinstance(record.payload, dict) or set(record.payload) != {key}:
        raise ValidationError("payload", f"kind {record.kind} requires a single {key!r} key", line)
    body = record.payload[key]
    if record.kind == KIND_VQA:
        if not isinstance(body, list) or not body:
            raise ValidationError("payload", "qa must be a non-empty list", line)
        for item in body:
            if not isinstance(item, dict):
                raise ValidationError("payload", "qa items must be objects", line)
            for f in ("question", "answer"):
                if not isinstance(item.get(f), str) or not item[f].strip():
                    raise ValidationError("payload", f"qa item {f} must be non-empty", line)
            scope = item.get("scope", SCOPE_DETAIL)
            if scope not in (SCOPE_GLOBAL, SCOPE_DETAIL):
                raise ValidationError("payload", f"unknown qa scope {scope!r}", line)
    elif record.kind == KIND_OTHER:
        if not isinstance(body, dict):
            raise ValidationError("payload", "doc must be an object", line)
    else:
        if not isinstance(body, str) or not body.strip():
            raise ValidationError("payload", f"{key} must be non-empty text", line)
        if record.kind == KIND_INTERLEAVED:
            _check_markers(body, len(record.image_uris), line)

    if not isinstance(record.source, str) or not record.source:
        raise ValidationError("source", "must be a non-empty string", line)
    if not isinstance(record.meta, dict):
        raise ValidationError("meta", "must be an object", line)
    for k, v in record.meta.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise ValidationError("meta", "keys and values must be strings", line)
    return record


def _payload_to_obj(record: Record) -> dict:
    key = PAYLOAD_KEY[record.kind]
    body = record.payload[key]
    if record.kind == KIND_VQA:
        body = [{"question": d["question"], "answer": d["answer"],
                 "scope": d.get("scope", SCOPE_DETAIL)} for d in body]
    return {key: body}


def record_to_json(record: Record) -> str:
    """Serialize with a stable field order so identical inputs give identical bytes."""
    obj = {
        "id": record.id,
        "kind": record.kind,
        "image_uris": list(record.image_uris),
        "payload": _payload_to_obj(record),
        "source": record.source,
        "meta": {k: record.meta[k] for k in sorted(record.meta)},
    }
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def record_from_obj(obj: dict, line: int | None = None) -> Record:
    if not isinstance(obj, dict):
        raise ValidationError("record", "line is not a JSON object", line)
    missing = {"id", "kind", "image_uris", "payload", "source"} - set(obj)
    if missing:
        raise ValidationError(sorted(missing)[0], "field missing", line)
    uris = obj["image_uris"]
    if not isinstance(uris, list):
        raise ValidationError("image_uris", "must be a list", line)
    record = Record(
        id=obj["id"],
        kind=obj["kind"],
        image_uris=tuple(uris),
        payload=obj["payload"],
        source=obj["source"],
        meta=obj.get("meta", {}),
    )
    return validate_record(record, line)


def read_shard(path: str | Path,
               on_error: Callable[[Exception, int, str], None] | None = None,
               ) -> Iterator[Record]:
    """Yield records from one JSONL shard in file order.

    Invalid lines raise ``ParseError``/``ValidationError`` carrying the
    1-based line number. Passing ``on_error`` turns raising into a callback
    (error, line_number, raw_line) so callers can quarantine and continue.
    """
    path = Path(path)
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ShardIoError(f"cannot open {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                try:
                    obj = json.loads(raw)
                except ValueError as exc:
                    raise ParseError(lineno, str(exc)) from exc
                yield record_from_obj(obj, lineno)
            except (ParseError, ValidationError) as exc:
                if on_error is None:
                    raise
                on_error(exc, lineno, raw)


def publish(path: str | Path, chunks: Iterable[str]) -> None:
    """Durably replace ``path`` with the concatenation of ``chunks``.

    The text goes to ``<path>.tmp``, which is fsynced and renamed over
    ``path``; the directory is fsynced last, so once this returns the file
    survives an OS crash. Readers never see a half-written file. On failure
    the temp file is removed and the error re-raised.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_shard(records: Iterable[Record], path: str | Path) -> int:
    """Validate records, then publish them as one JSONL shard. Returns the count."""
    lines = []
    for record in records:
        validate_record(record)
        lines.append(record_to_json(record) + "\n")
    try:
        publish(path, lines)
    except OSError as exc:
        raise ShardIoError(f"cannot write {path}: {exc}") from exc
    return len(lines)


def dedupe_by_id(records: Iterable[Record]) -> tuple[list[Record], int]:
    """Drop repeated ids, first occurrence wins. Returns (records, duplicates)."""
    seen: set[str] = set()
    out: list[Record] = []
    duplicates = 0
    for record in records:
        if record.id in seen:
            duplicates += 1
            continue
        seen.add(record.id)
        out.append(record)
    return out, duplicates


def estimate_tokens(record: Record, image_token_cost: int = DEFAULT_IMAGE_TOKENS,
                    estimator: Callable[[str], int] | None = None) -> int:
    """Deterministic token estimate for mixture budgeting.

    Default heuristic: ceil(total text chars / 4) plus a flat per-image
    cost. A real tokenizer can be plugged in via ``estimator`` (called on
    the concatenated text).
    """
    units = record.text_units()
    if estimator is not None:
        text_tokens = estimator("\n".join(units))
    else:
        text_tokens = math.ceil(sum(len(u) for u in units) / 4)
    return text_tokens + len(record.image_uris) * image_token_cost
