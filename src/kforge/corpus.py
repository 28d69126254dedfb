"""Corpus record model, JSONL shard I/O, validation, dedup, token estimates.

One shard is a UTF-8 JSONL file, one record per line, with exactly the
fields ``id, kind, image_uris, payload, source, meta``. ``payload`` is an
object whose single key names the body variant: ``caption``, ``qa``,
``text``, or ``doc``.

A shard line is *plain* when it is exactly ``record_to_json`` of its
record, with ``meta`` ``{}``, and spells no escape. ``read_shard`` decides
a plain line by one match against its kind's canonical layout, without a
decode: the match captures the fields, the checks a pattern cannot make
run on the captures, and the token estimate comes from the captured
lengths. Every other line is decoded once with the JSON scanner
(``json.loads`` only for lines it does not consume whole, which keeps its
error messages) and checked; ``read_jsonl`` decodes each line the same
way. A shard's ``Record`` keeps the checked line, the fields stages select
on (``id``, ``kind``, ``source``, ``image_uris``; one ``kind`` and
``source`` string per shard), the token estimate and the plain bit.
``payload`` and ``meta`` are decoded from the line whenever they are read
and are not kept, so a pool costs about its lines. ``stamped_line`` writes
a plain line with a stamp by splicing it in, without a decode.

``read_shard`` is the only validator and the one way a shard is read.
What it returns is not stored on disk: a run's reader (``pipeline.Ingest``)
keeps a shard's records only while the shard's stat identity is unchanged.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from kforge.errors import KforgeError, ParseError, ShardIoError, ValidationError

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

T = TypeVar("T")

# One scanner and one encoder for every line: json.loads pays for whitespace
# handling and json.dumps for a new encoder on each call. The C encoder is
# the one json.dumps(obj, ensure_ascii=False, separators=(",", ":")) builds.
_scan = json.JSONDecoder().scan_once
_encoder = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))
_iterencode = (json.encoder.c_make_encoder(
    None, _encoder.default, json.encoder.encode_basestring, None, ":", ",", False, False, True)
    if json.encoder.c_make_encoder else lambda obj, _: _encoder.iterencode(obj))
_sorted_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode


@dataclass(slots=True)
class Record:
    """One corpus sample. Treat as immutable after construction.

    A record read by ``read_shard`` keeps its validated line and leaves
    ``payload`` and ``meta`` unset; reading either decodes it from the line.
    Its line is plain when it is ``record_to_json`` of the record followed
    by ``\n``, with no escape, and ``meta`` is ``{}``: such a line is
    matched against its kind's canonical layout, and never decoded at read.
    """

    id: str
    kind: str
    image_uris: tuple[str, ...]
    payload: dict
    source: str
    meta: dict = field(default_factory=dict)
    _line: str | None = field(default=None, init=False, repr=False, compare=False)
    # estimate_tokens' estimate: made at ingest, or kept by its first call
    _tokens: int | None = field(default=None, init=False, repr=False, compare=False)
    _plain: bool = field(default=False, init=False, repr=False, compare=False)

    def __getattr__(self, name: str):
        # only an unset slot gets here: the payload or meta of a read record
        if name not in ("payload", "meta") or self._line is None:
            raise AttributeError(name)
        payload, meta = self._body()
        return meta if name == "meta" else payload

    def _body(self) -> tuple[dict, dict]:
        """(payload, meta), from one decode of the line of a read record."""
        if self._line is None:
            return self.payload, self.meta
        obj = _scan(self._line, 0)[0]
        return obj["payload"], obj.get("meta", {})

    def text_units(self) -> list[str]:
        """All text carried by the payload, in a stable order."""
        return _text_units(self.kind, self.payload)


def _text_units(kind: str, payload: dict) -> list[str]:
    body = payload.get(PAYLOAD_KEY[kind])
    if kind == KIND_VQA:
        return [text for item in body for text in (item["question"], item["answer"])]
    if kind == KIND_OTHER:
        return [_sorted_encode(body)]
    return [body]


def _estimate(kind: str, payload: dict, n_images: int) -> int:
    return _token_estimate(sum(len(u) for u in _text_units(kind, payload)), n_images)


def _token_estimate(chars: int, n_images: int) -> int:
    return math.ceil(chars / 4) + n_images * DEFAULT_IMAGE_TOKENS


def validate_record_id(value: str, line: int | None = None) -> None:
    if not isinstance(value, str) or not value:
        raise ValidationError("id", "must be a non-empty string", line)
    if len(value) > 128:
        raise ValidationError("id", "longer than 128 characters", line)
    if not _ID_CHARS.match(value):
        raise ValidationError("id", "contains characters outside [A-Za-z0-9._~-]", line)


def marker_problems(text: str, n_images: int) -> tuple[list[int], list[int], list[int]]:
    """The sorted (missing, duplicated, out-of-range) ``<Image_k>`` markers of a
    text about ``n_images`` images, found in one pass."""
    seen = Counter(int(m.group(1)) for m in MARKER.finditer(text))
    return ([k for k in range(1, n_images + 1) if k not in seen],
            sorted(k for k, count in seen.items() if count > 1),
            sorted(k for k in seen if not 1 <= k <= n_images))


def _check_markers(text: str, n_images: int, line: int | None) -> None:
    missing, duplicated, out_of_range = marker_problems(text, n_images)
    if out_of_range:
        raise ValidationError(
            "payload", f"image markers out of range: {out_of_range}", line)
    if missing or duplicated:
        raise ValidationError(
            "payload",
            f"image markers must appear exactly once (missing={missing}, duplicated={duplicated})",
            line)


def _check_fields(rid, kind, uris: tuple, payload, source, meta, line: int | None) -> None:
    """The kind/arity table and payload invariants, in one pass over the fields."""
    validate_record_id(rid, line)
    if kind not in KINDS:
        raise ValidationError("kind", f"unknown kind {kind!r}", line)
    lo, hi = IMAGE_ARITY[kind]
    n = len(uris)
    if n < lo or (hi is not None and n > hi):
        bound = f"exactly {lo}" if lo == hi else (f">= {lo}" if hi is None else f"{lo}..{hi}")
        raise ValidationError("image_uris", f"kind {kind} requires {bound} images, got {n}", line)
    for uri in uris:
        if not isinstance(uri, str) or not uri or uri.isspace():
            raise ValidationError("image_uris", "image URIs must be non-empty strings", line)

    key = PAYLOAD_KEY[kind]
    if not isinstance(payload, dict) or len(payload) != 1 or key not in payload:
        raise ValidationError("payload", f"kind {kind} requires a single {key!r} key", line)
    body = payload[key]
    if kind == KIND_VQA:
        if not isinstance(body, list) or not body:
            raise ValidationError("payload", "qa must be a non-empty list", line)
        for item in body:
            if not isinstance(item, dict):
                raise ValidationError("payload", "qa items must be objects", line)
            for f in ("question", "answer"):
                value = item.get(f)
                if not isinstance(value, str) or not value or value.isspace():
                    raise ValidationError("payload", f"qa item {f} must be non-empty", line)
            scope = item.get("scope", SCOPE_DETAIL)
            if scope not in (SCOPE_GLOBAL, SCOPE_DETAIL):
                raise ValidationError("payload", f"unknown qa scope {scope!r}", line)
    elif kind == KIND_OTHER:
        if not isinstance(body, dict):
            raise ValidationError("payload", "doc must be an object", line)
    else:
        if not isinstance(body, str) or not body or body.isspace():
            raise ValidationError("payload", f"{key} must be non-empty text", line)
        if kind == KIND_INTERLEAVED:
            _check_markers(body, n, line)

    if not isinstance(source, str) or not source:
        raise ValidationError("source", "must be a non-empty string", line)
    if not isinstance(meta, dict):
        raise ValidationError("meta", "must be an object", line)
    for k, v in meta.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise ValidationError("meta", "keys and values must be strings", line)


def validate_record(record: Record, line: int | None = None) -> Record:
    """Enforce the kind/arity table and payload invariants."""
    payload, meta = record._body()
    _check_fields(record.id, record.kind, record.image_uris, payload, record.source, meta, line)
    return record


def record_to_json(record: Record, stamp: dict[str, str] | None = None) -> str:
    """Serialize with a stable field order so identical inputs give identical bytes;
    ``stamp``'s entries are merged into ``meta`` over the record's own."""
    payload, meta = record._body()
    if record.kind == KIND_VQA:
        payload = {"qa": [{"question": d["question"], "answer": d["answer"],
                           "scope": d.get("scope", SCOPE_DETAIL)} for d in payload["qa"]]}
    if stamp:
        meta = {**meta, **stamp}
    return json_line({
        "id": record.id, "kind": record.kind, "image_uris": record.image_uris,
        "payload": payload, "source": record.source,
        "meta": dict(sorted(meta.items())) if meta else {}})


def stamped_line(stamp: dict[str, str]) -> Callable[[Record], str]:
    """The function ``record -> record_to_json(record, stamp) + "\\n"``. A
    plain record's line gets the stamp, encoded once here, in place of its
    empty ``meta``; any other record goes through ``record_to_json``."""
    tail = json_line(dict(sorted(stamp.items()))) + "}\n"

    def line(record: Record) -> str:
        if record._plain:
            return record._line[:-len("{}}\n")] + tail
        return record_to_json(record, stamp) + "\n"
    return line


def json_line(obj) -> str:
    """Compact single-line JSON, the encoding of every JSONL line kforge writes."""
    return "".join(_iterencode(obj, 0))


def read_jsonl(path: str | Path, from_obj: Callable[[object], T]) -> Iterator[T]:
    """``from_obj`` of each non-blank line of a JSONL file, in file order,
    each line decoded as ``read_shard`` decodes it. A line that is not UTF-8
    or not JSON, or whose value ``from_obj`` rejects, raises ``ParseError``
    naming the file and the line."""
    with _open(path) as fh:
        for lineno, data in enumerate(fh, start=1):
            try:
                raw, obj = _decode_line(_utf8(data, lineno), lineno)
            except ParseError as exc:
                raise ParseError(lineno, f"invalid JSON in {path}: {exc.cause}") from exc
            try:
                if raw:
                    yield from_obj(obj)
            except (KeyError, TypeError, AttributeError, ValueError, KforgeError) as exc:
                raise ParseError(lineno, f"unexpected value in {path}: "
                                         f"{type(exc).__name__}: {exc}") from exc


def record_from_obj(obj: dict, line: int | None = None) -> Record:
    return Record(*_checked(obj, line))


def _checked(obj, line: int | None) -> tuple:
    """The validated (id, kind, image_uris, payload, source, meta) of a decoded line."""
    if not isinstance(obj, dict):
        raise ValidationError("record", "line is not a JSON object", line)
    try:
        rid, kind, uris = obj["id"], obj["kind"], obj["image_uris"]
        payload, source = obj["payload"], obj["source"]
    except KeyError:
        missing = {"id", "kind", "image_uris", "payload", "source"} - set(obj)
        raise ValidationError(sorted(missing)[0], "field missing", line) from None
    if not isinstance(uris, list):
        raise ValidationError("image_uris", "must be a list", line)
    uris = tuple(uris)
    meta = obj.get("meta", {})
    _check_fields(rid, kind, uris, payload, source, meta, line)
    return rid, kind, uris, payload, source, meta


def _check_utf8(obj, line: int) -> None:
    """A decoded line's text must encode as UTF-8, as every output is written."""
    try:
        json_line(obj).encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError("record", "text holds an unpaired surrogate", line) from None


def _open(path: str | Path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise ShardIoError(f"cannot open {path}: {exc}") from exc


def _utf8(data: bytes, lineno: int) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(lineno, f"not UTF-8: {exc}") from exc


def _decode_line(raw: str, lineno: int) -> tuple[str, object]:
    """The kept text and the value of one decoded JSONL line, ``("", None)``
    for a blank one. ``json.loads`` decides a line the JSON scanner does not
    consume whole (a BOM, extra data, errors), with its own messages, and
    its text is stripped, since ``Record._body`` scans a kept line from
    index 0."""
    try:
        obj, end = _scan(raw, 0)
        if raw[end:] in ("", "\n", "\r\n"):
            return raw, obj
    except (StopIteration, ValueError, RecursionError):
        pass
    if not raw.strip():
        return "", None
    try:
        return raw.strip(), json.loads(raw)
    except (ValueError, RecursionError) as exc:  # invalid, or too deep
        raise ParseError(lineno, str(exc)) from exc


# the canonical line of a record whose meta is {}
_PLAIN_TAIL = ',"meta":{}}\n'
_PLAIN_LINE = ('{"id":"%s","kind":"%s","image_uris":[%s],"payload":{"%s":%s},"source":"%s"'
               + _PLAIN_TAIL)
# A plain line spells each string between quotes, with no escape and no
# control character (the JSON scanner admits none unescaped), so the strings
# of a line that matches its kind's layout are exactly its captured text.
_CHARS = r'[^"\\\x00-\x1f]+'
# a URI or a text, which is not only whitespace (``\s`` is ``str.isspace``)
_TEXT = r'(?=\s*[^\s"])' + _CHARS
_STRING = f'"{_TEXT}"'
_QA_ITEM = r'\{"question":%s,"answer":%s,"scope":"(?:global|detail)"\}' % (_STRING, _STRING)
# what a VQA item spells besides its question and answer, with the comma
# after it; both scopes are six letters long
_QA_LAYOUT = len('{"question":"","answer":"","scope":"global"},')
# kind -> (its image URIs, its payload body with one capture group)
_PLAIN_PARTS = {
    KIND_CAPTION: (_STRING, f'"({_TEXT})"'),
    KIND_VQA: (_STRING, rf"(\[{_QA_ITEM}(?:,{_QA_ITEM})*\])"),
    KIND_PAIR_CAPTION: (f"{_STRING},{_STRING}", f'"({_TEXT})"'),
    KIND_INTERLEAVED: (f"{_STRING},{_STRING},{_STRING}(?:,{_STRING})*", f'"({_TEXT})"'),
    KIND_PURE_TEXT: ("", f'"({_TEXT})"'),
    KIND_OTHER: (f"(?:{_STRING}(?:,{_STRING})*)?", r"(\{[^\\]*\})"),  # no escape, as above
}
# kind -> the layout of its plain lines; groups: id, URIs, body, source
_PLAIN_PATTERNS = {
    kind: re.compile(re.escape(_PLAIN_LINE) % (
        "([A-Za-z0-9._~-]{1,128})", kind, f"({uris})", PAYLOAD_KEY[kind], body, f"({_CHARS})"))
    for kind, (uris, body) in _PLAIN_PARTS.items()}


def _match_plain(raw: str) -> tuple | None:
    """(id, kind, image URIs, source, token estimate) of a plain line, or
    None for any other line. A line is plain when it matches its kind's
    layout and passes the checks a pattern cannot make; only an ``other``
    line's doc is decoded."""
    if not raw.endswith(_PLAIN_TAIL):  # a line with a meta fails here at once
        return None
    at = raw.find('"', 7) + 10  # past '","kind":"', where a canonical line spells its kind
    kind = raw[at:raw.find('"', at)]
    pattern = _PLAIN_PATTERNS.get(kind)
    match = pattern and pattern.fullmatch(raw)
    if not match:
        return None
    rid, uris, body, source = match.groups()
    uris = tuple(uris[1:-1].split('","')) if uris else ()
    if kind == KIND_VQA:  # no text spells a quote, so each '"scope"' is an item's
        chars = len(body) - 1 - body.count('"scope"') * _QA_LAYOUT
    elif kind == KIND_OTHER:
        try:
            doc, end = _scan(body, 0)
        except (StopIteration, ValueError, RecursionError):
            return None
        if end != len(body) or json_line(doc) != body:
            return None
        chars = len(body)  # the sorted encoding: the same characters, its keys reordered
    elif kind == KIND_INTERLEAVED and any(marker_problems(body, len(uris))):
        return None
    else:
        chars = len(body)
    return rid, kind, uris, source, _token_estimate(chars, len(uris))


def _shard_record(data: bytes, lineno: int, shared: dict[str, str]) -> Record | None:
    """The record of one shard line, None for a blank one; raises
    ``ParseError``/``ValidationError``. A plain line is matched; any other
    is decoded and checked, and is not plain."""
    raw = _utf8(data, lineno)
    fields = _match_plain(raw)
    if fields:
        rid, kind, uris, source, tokens = fields
        plain = True
    else:
        raw, obj = _decode_line(raw, lineno)
        if not raw:
            return None
        rid, kind, uris, payload, source, _ = _checked(obj, lineno)
        # only an escape can spell a lone surrogate; the one-character
        # search first, since it is many times cheaper per line
        if "\\" in raw and "\\u" in raw:
            _check_utf8(obj, lineno)
        tokens, plain = _estimate(kind, payload, len(uris)), False
    record = object.__new__(Record)  # payload and meta stay unset
    record.id, record.kind, record.image_uris, record.source = (
        rid, shared.setdefault(kind, kind), uris, shared.setdefault(source, source))
    record._line, record._tokens, record._plain = raw, tokens, plain
    return record


def read_shard(path: str | Path,
               on_error: Callable[[Exception, int], None] | None = None) -> Iterator[Record]:
    """Yield records from one JSONL shard in file order.

    Lines end at ``\\n`` (a ``\\r`` before it is whitespace). A plain line
    is matched against its kind's canonical layout and not decoded; any
    other is decoded and checked, with the same errors. Invalid lines
    raise ``ParseError``/``ValidationError`` carrying the 1-based line
    number; a line that is not UTF-8, or whose text holds an unpaired
    surrogate (an escape such as ``\\ud800``), is invalid. Passing
    ``on_error`` turns raising into a callback (error, line_number) so
    callers can quarantine and continue. Every call reads and decides
    every line: nothing is kept between calls.
    """
    shared: dict[str, str] = {}  # one string per distinct kind and source
    with _open(path) as fh:
        for lineno, data in enumerate(fh, start=1):
            try:
                record = _shard_record(data, lineno, shared)
            except (ParseError, ValidationError) as exc:
                if on_error is None:
                    raise
                on_error(exc, lineno)
                continue
            if record is not None:
                yield record


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


def estimate_tokens(record: Record) -> int:
    """Deterministic token estimate for mixture budgeting: ceil(total text
    chars / 4) plus a flat per-image cost, made once per record: at ingest
    for a record read from a shard, at the first call for any other.
    """
    if record._tokens is None:
        record._tokens = _estimate(record.kind, record.payload, len(record.image_uris))
    return record._tokens
