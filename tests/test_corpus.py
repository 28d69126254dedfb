from __future__ import annotations

import json
import math
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kforge.corpus import (IMAGE_ARITY, KINDS, Record, dedupe_by_id,
                           estimate_tokens, read_shard, record_from_obj,
                           publish, record_to_json, validate_record, write_shard)
from kforge.errors import ParseError, ValidationError
from kforge.mixture import MixturePlan, MixtureSpec, publish_mixture

from conftest import make_corpus
from oracles import oracle_dedupe_count, oracle_json_line, oracle_record_json

# --- strategies --------------------------------------------------------------

_ids = st.from_regex(r"[A-Za-z0-9._~-]{1,24}", fullmatch=True)
_plain_texts = (st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                        min_size=1, max_size=60)
                .filter(lambda s: s.strip() and "<Image_" not in s))
# text that looks like a record field to anything that searches the line
_texts = st.one_of(_plain_texts, _plain_texts.map(lambda s: s + ' "meta": {"k": "v"}, '))
_metas = st.dictionaries(st.from_regex(r"[a-z_]{1,10}", fullmatch=True),
                         _texts, max_size=3)


def _uris(n_min, n_max):
    return st.lists(st.from_regex(r"file:///[a-z0-9/]{1,20}\.jpg", fullmatch=True),
                    min_size=n_min, max_size=n_max, unique=True).map(tuple)


@st.composite
def records(draw, kind=None):
    kind = kind or draw(st.sampled_from(KINDS))
    lo, hi = IMAGE_ARITY[kind]
    uris = draw(_uris(lo, hi if hi is not None else lo + 2))
    if kind in ("caption", "pair_caption"):
        payload = {"caption": draw(_texts)}
    elif kind == "vqa":
        payload = {"qa": draw(st.lists(
            st.fixed_dictionaries({
                "question": _texts, "answer": _texts,
                "scope": st.sampled_from(["global", "detail"]),
            }), min_size=1, max_size=4))}
    elif kind == "interleaved":
        order = draw(st.permutations(range(1, len(uris) + 1)))
        body = draw(_texts) + " " + " ".join(f"<Image_{k}>" for k in order)
        payload = {"text": body}
    elif kind == "pure_text":
        payload = {"text": draw(_texts)}
    else:
        payload = {"doc": {"note": draw(_texts)}}
    return Record(id=draw(_ids), kind=kind, image_uris=uris, payload=payload,
                  source=draw(st.sampled_from(["caption0", "vqa0", "pure_text", "other"])),
                  meta=draw(_metas))


# --- serialization -----------------------------------------------------------

@settings(max_examples=150)
@given(records())
def test_roundtrip_property(record):
    assert record_from_obj(json.loads(record_to_json(record))) == record


@st.composite
def noncanonical_lines(draw):
    """(decoded object, line) for a drawn record written as ``record_to_json``
    would not write it: keys shuffled, whitespace added, some VQA scopes
    dropped, meta unsorted, and text escaped to ASCII or left as it is."""
    record = draw(records())
    payload = json.loads(json.dumps(record.payload))
    if record.kind == "vqa":
        for item in payload["qa"]:
            if draw(st.booleans()):
                del item["scope"]
    meta = dict(draw(st.permutations(sorted(record.meta.items()))))
    fields = {"id": record.id, "kind": record.kind, "image_uris": list(record.image_uris),
              "payload": payload, "source": record.source, "meta": meta}
    obj = {key: fields[key] for key in draw(st.permutations(list(fields)))}
    item_sep, key_sep = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\t", " :  ")]))
    line = json.dumps(obj, ensure_ascii=draw(st.booleans()), separators=(item_sep, key_sep))
    pad = st.sampled_from(["", " ", "\t ", "  "])
    return obj, draw(pad) + line + draw(pad)


def _eager_tokens(obj: dict) -> int:
    body = obj["payload"][next(iter(obj["payload"]))]
    if obj["kind"] == "vqa":
        chars = sum(len(item["question"]) + len(item["answer"]) for item in body)
    elif obj["kind"] == "other":
        chars = len(json.dumps(body, ensure_ascii=False, sort_keys=True, separators=(",", ":")))
    else:
        chars = len(body)
    return math.ceil(chars / 4) + 256 * len(obj["image_uris"])


@settings(max_examples=150, deadline=None)
@given(st.lists(noncanonical_lines(), min_size=1, max_size=4))
def test_read_shard_record_decodes_its_line_on_demand(drawn):
    """A record read from a non-canonical line reads as the eagerly decoded
    record does, and writes, bare and stamped, the oracle's bytes."""
    stamp = {"mixture_category": "c", "mixture_spec": "mix"}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.jsonl"
        path.write_text("".join(line + "\n" for _, line in drawn), encoding="utf-8")
        got = list(read_shard(path))
        spec = MixtureSpec("mix", {"c": 1.0}, "samples", len(got), 0, {"c": ("s",)})
        publish_mixture(Path(tmp) / "mixture", MixturePlan(spec, {}, {}, {}),
                        [("c", r) for r in got])
        published = (Path(tmp) / "mixture" / "mixture.jsonl").read_text(encoding="utf-8")
    assert len(got) == len(drawn)
    for record, (obj, line) in zip(got, drawn):
        eager = record_from_obj(json.loads(line))
        assert record == eager
        assert (record.payload, record.meta) == (eager.payload, eager.meta) == (
            obj["payload"], obj["meta"])
        assert record.text_units() == eager.text_units()
        assert estimate_tokens(record) == estimate_tokens(eager) == _eager_tokens(obj)
        assert record_to_json(record) == oracle_record_json(obj)
    assert published == "".join(oracle_record_json(obj, stamp) + "\n" for obj, _ in drawn)


def test_write_then_read_is_identity(tmp_path, corpus30):
    path = tmp_path / "s.jsonl"
    assert write_shard(corpus30, path) == len(corpus30)
    assert list(read_shard(path)) == corpus30


def test_two_writes_byte_identical(tmp_path, corpus30):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_shard(corpus30, a)
    write_shard(corpus30, b)
    assert a.read_bytes() == b.read_bytes()


def test_write_empty_shard(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert write_shard([], path) == 0
    assert path.read_bytes() == b""
    assert list(read_shard(path)) == []


def test_failed_publish_keeps_old_file_and_removes_temp(tmp_path):
    path = tmp_path / "doc.json"
    publish(path, ["old"])

    def chunks():
        yield "half of the new"
        raise OSError("disk full")

    with pytest.raises(OSError):
        publish(path, chunks())
    assert path.read_text(encoding="utf-8") == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


def test_read_preserves_order(tmp_path):
    records_in = make_corpus(n_caption=3, n_vqa=0, n_text=0, n_other=0)
    path = tmp_path / "s.jsonl"
    write_shard(records_in, path)
    assert [r.id for r in read_shard(path)] == [r.id for r in records_in]


def test_read_invalid_line_reports_line_and_field(tmp_path):
    good = record_to_json(make_corpus(1, 0, 0, 0)[0])
    bad = json.dumps({
        "id": "p1", "kind": "pair_caption", "image_uris": ["file:///a.jpg"],
        "payload": {"caption": "two things"}, "source": "pair_caption", "meta": {},
    })
    path = tmp_path / "s.jsonl"
    path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        list(read_shard(path))
    assert err.value.field == "image_uris"
    assert err.value.line == 2


def test_read_parse_error_has_line_number(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"id": broken\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        list(read_shard(path))
    assert err.value.line == 1


def test_read_on_error_callback_continues(tmp_path, corpus30):
    path = tmp_path / "s.jsonl"
    lines = [record_to_json(r) for r in corpus30[:3]]
    lines.insert(1, "not json")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    errors = []
    out = list(read_shard(path, on_error=lambda e, n: errors.append((n, e))))
    assert len(out) == 3
    assert [n for n, _ in errors] == [2]


# --- arity / validation ------------------------------------------------------

def test_arity_table_is_total():
    assert set(IMAGE_ARITY) == set(KINDS)


@pytest.mark.parametrize("kind,bad_n", [
    ("caption", 0), ("caption", 2), ("vqa", 0), ("vqa", 2),
    ("pair_caption", 1), ("pair_caption", 3), ("interleaved", 2),
    ("pure_text", 1),
])
def test_arity_enforced(kind, bad_n):
    payloads = {
        "caption": {"caption": "x"}, "vqa": {"qa": [{"question": "q", "answer": "a"}]},
        "pair_caption": {"caption": "x"}, "interleaved": {"text": "x <Image_1> <Image_2>"},
        "pure_text": {"text": "x"},
    }
    record = Record(id="r1", kind=kind, image_uris=tuple(f"file:///{i}.jpg" for i in range(bad_n)),
                    payload=payloads[kind], source="s", meta={})
    with pytest.raises(ValidationError) as err:
        validate_record(record)
    assert err.value.field == "image_uris"


def test_blank_payload_text_rejected():
    record = Record(id="r1", kind="caption", image_uris=("file:///a.jpg",),
                    payload={"caption": "   "}, source="s", meta={})
    with pytest.raises(ValidationError):
        validate_record(record)


@pytest.mark.parametrize("text,problem", [
    ("start <Image_1> mid <Image_1> end <Image_3>", "duplicated"),
    ("start <Image_1> <Image_2>", "missing"),
    ("all <Image_1> <Image_2> <Image_3> <Image_4>", "out of range"),
])
def test_interleaved_marker_validation(text, problem):
    record = Record(id="r1", kind="interleaved",
                    image_uris=tuple(f"file:///{i}.jpg" for i in range(3)),
                    payload={"text": text}, source="s", meta={})
    with pytest.raises(ValidationError):
        validate_record(record)


def test_bad_record_id():
    record = Record(id="has space", kind="pure_text", image_uris=(),
                    payload={"text": "x"}, source="s", meta={})
    with pytest.raises(ValidationError) as err:
        validate_record(record)
    assert err.value.field == "id"


def test_many_markers_checked_in_linear_time():
    n = 20000
    uris = tuple(f"file:///{i}.jpg" for i in range(n))
    order = list(range(1, n + 1))
    random.Random(5).shuffle(order)
    text = "doc " + " ".join(f"part {k} <Image_{k}>" for k in order)
    bad = text.replace(f"<Image_{order[0]}>", f"<Image_{order[1]}>")
    record = Record(id="r1", kind="interleaved", image_uris=uris,
                    payload={"text": text}, source="s", meta={})
    t0 = time.perf_counter()
    validate_record(record)
    with pytest.raises(ValidationError) as err:
        validate_record(Record(id="r1", kind="interleaved", image_uris=uris,
                               payload={"text": bad}, source="s", meta={}))
    assert time.perf_counter() - t0 < 1.0
    assert str(err.value) == ("payload: image markers must appear exactly once "
                              f"(missing=[{order[0]}], duplicated=[{order[1]}])")


# --- validation parity: the check order and messages are pinned ----------------

_DROP = object()

_BASE = {
    "caption": {"image_uris": ["file:///a.jpg"], "payload": {"caption": "a stone harbor"}},
    "vqa": {"image_uris": ["file:///a.jpg"],
            "payload": {"qa": [{"question": "What is shown?", "answer": "a harbor",
                                "scope": "global"}]}},
    "pair_caption": {"image_uris": ["file:///a.jpg", "file:///b.jpg"],
                     "payload": {"caption": "two harbors"}},
    "interleaved": {"image_uris": ["file:///a.jpg", "file:///b.jpg", "file:///c.jpg"],
                    "payload": {"text": "see <Image_1> then <Image_2> and <Image_3>"}},
    "pure_text": {"image_uris": [], "payload": {"text": "plain words"}},
    "other": {"image_uris": [], "payload": {"doc": {"note": "x"}}},
}


def _obj(base, **changes):
    obj = {"id": "r-1", "kind": base, **_BASE[base], "source": "src", "meta": {"k": "v"}}
    for key, value in changes.items():
        if value is _DROP:
            del obj[key]
        else:
            obj[key] = value
    return obj


def _qa(**item):
    base = {"question": "What is shown?", "answer": "a harbor", "scope": "detail"}
    base.update(item)
    return {"qa": [{k: v for k, v in base.items() if v is not _DROP}]}


_PARITY_CASES = [
    # one defect
    ("id-empty", _obj("caption", id=""),
     ("id", "must be a non-empty string")),
    ("id-space", _obj("caption", id="has space"),
     ("id", "contains characters outside [A-Za-z0-9._~-]")),
    ("id-long", _obj("caption", id="x" * 129),
     ("id", "longer than 128 characters")),
    ("id-int", _obj("caption", id=5),
     ("id", "must be a non-empty string")),
    ("kind-unknown", _obj("caption", kind="video"),
     ("kind", "unknown kind 'video'")),
    ("kind-null", _obj("caption", kind=None),
     ("kind", "unknown kind None")),
    ("arity-caption", _obj("caption", image_uris=["file:///a.jpg", "file:///b.jpg"]),
     ("image_uris", "kind caption requires exactly 1 images, got 2")),
    ("arity-pair", _obj("pair_caption", image_uris=["file:///a.jpg"]),
     ("image_uris", "kind pair_caption requires exactly 2 images, got 1")),
    ("arity-interleaved", _obj("interleaved", image_uris=["file:///a.jpg", "file:///b.jpg"]),
     ("image_uris", "kind interleaved requires >= 3 images, got 2")),
    ("arity-text", _obj("pure_text", image_uris=["file:///a.jpg"]),
     ("image_uris", "kind pure_text requires exactly 0 images, got 1")),
    ("uri-blank", _obj("caption", image_uris=[" \t"]),
     ("image_uris", "image URIs must be non-empty strings")),
    ("uri-empty", _obj("caption", image_uris=[""]),
     ("image_uris", "image URIs must be non-empty strings")),
    ("uri-int", _obj("caption", image_uris=[7]),
     ("image_uris", "image URIs must be non-empty strings")),
    ("payload-key", _obj("caption", payload={"text": "a stone harbor"}),
     ("payload", "kind caption requires a single 'caption' key")),
    ("payload-two-keys", _obj("caption", payload={"caption": "x", "text": "y"}),
     ("payload", "kind caption requires a single 'caption' key")),
    ("payload-list", _obj("caption", payload=["a stone harbor"]),
     ("payload", "kind caption requires a single 'caption' key")),
    ("caption-blank", _obj("caption", payload={"caption": "  \n"}),
     ("payload", "caption must be non-empty text")),
    ("caption-int", _obj("caption", payload={"caption": 3}),
     ("payload", "caption must be non-empty text")),
    ("qa-not-list", _obj("vqa", payload={"qa": {"question": "q", "answer": "a"}}),
     ("payload", "qa must be a non-empty list")),
    ("qa-empty", _obj("vqa", payload={"qa": []}),
     ("payload", "qa must be a non-empty list")),
    ("qa-item-str", _obj("vqa", payload={"qa": ["q"]}),
     ("payload", "qa items must be objects")),
    ("qa-question-blank", _obj("vqa", payload=_qa(question=" ")),
     ("payload", "qa item question must be non-empty")),
    ("qa-answer-missing", _obj("vqa", payload=_qa(answer=_DROP)),
     ("payload", "qa item answer must be non-empty")),
    ("qa-answer-int", _obj("vqa", payload=_qa(answer=4)),
     ("payload", "qa item answer must be non-empty")),
    ("qa-scope", _obj("vqa", payload=_qa(scope="local")),
     ("payload", "unknown qa scope 'local'")),
    ("markers-duplicated", _obj("interleaved", payload={"text": "<Image_1> <Image_1> <Image_3>"}),
     ("payload", "image markers must appear exactly once (missing=[2], duplicated=[1])")),
    ("markers-missing", _obj("interleaved", payload={"text": "<Image_1> <Image_2>"}),
     ("payload", "image markers must appear exactly once (missing=[3], duplicated=[])")),
    ("markers-out-of-range", _obj("interleaved", payload={
        "text": "<Image_1> <Image_2> <Image_3> <Image_4> <Image_0>"}),
     ("payload", "image markers out of range: [0, 4]")),
    ("doc-not-object", _obj("other", payload={"doc": "text"}),
     ("payload", "doc must be an object")),
    ("source-empty", _obj("caption", source=""),
     ("source", "must be a non-empty string")),
    ("source-int", _obj("caption", source=3),
     ("source", "must be a non-empty string")),
    ("meta-list", _obj("caption", meta=["k"]),
     ("meta", "must be an object")),
    ("meta-value-int", _obj("caption", meta={"k": 1}),
     ("meta", "keys and values must be strings")),
    # no defect: edges where a shortcut could disagree with the full checks
    ("id-128", _obj("caption", id="x" * 128),
     None),
    ("id-trailing-newline", _obj("caption", id="r-1\n"),
     None),
    ("uri-unicode-space", _obj("caption", image_uris=["\u2003\x1c"]),
     ("image_uris", "image URIs must be non-empty strings")),
    ("caption-separators", _obj("caption", payload={"caption": "\x1c\x1d\x1e\x1f\x85"}),
     ("payload", "caption must be non-empty text")),
    ("qa-answer-nbsp", _obj("vqa", payload=_qa(answer="\xa0")),
     ("payload", "qa item answer must be non-empty")),
    ("markers-none-needed", _obj("other", payload={"doc": {"t": "<Image_1>"}}),
     None),
    # two defects: the first check in order wins
    ("id+kind", _obj("caption", id="a b", kind="video"),
     ("id", "contains characters outside [A-Za-z0-9._~-]")),
    ("kind+arity", _obj("caption", kind="video", image_uris=[]),
     ("kind", "unknown kind 'video'")),
    ("arity+uri", _obj("caption", image_uris=["", ""]),
     ("image_uris", "kind caption requires exactly 1 images, got 2")),
    ("uri+payload", _obj("caption", image_uris=[""], payload={"text": "x"}),
     ("image_uris", "image URIs must be non-empty strings")),
    ("payload-key+source", _obj("caption", payload={"text": "x"}, source=""),
     ("payload", "kind caption requires a single 'caption' key")),
    ("qa-item+meta", _obj("vqa", payload=_qa(question=""), meta={"k": 1}),
     ("payload", "qa item question must be non-empty")),
    ("qa-question+answer", _obj("vqa", payload=_qa(question="", answer="")),
     ("payload", "qa item question must be non-empty")),
    ("qa-answer+scope", _obj("vqa", payload=_qa(answer="", scope="local")),
     ("payload", "qa item answer must be non-empty")),
    ("markers+source", _obj("interleaved", payload={"text": "<Image_1>"}, source=""),
     ("payload", "image markers must appear exactly once (missing=[2, 3], duplicated=[])")),
    ("markers-out+duplicated", _obj("interleaved", payload={
        "text": "<Image_1> <Image_1> <Image_2> <Image_3> <Image_9>"}),
     ("payload", "image markers out of range: [9]")),
    ("markers-missing+duplicated", _obj("interleaved", payload={
        "text": "<Image_2> <Image_2> <Image_3>"}),
     ("payload", "image markers must appear exactly once (missing=[1], duplicated=[2])")),
    ("source+meta", _obj("caption", source=None, meta=[]),
     ("source", "must be a non-empty string")),
    ("doc+source", _obj("other", payload={"doc": []}, source=""),
     ("payload", "doc must be an object")),
]

# defects found before a Record can be built: only record_from_obj sees them
_OBJ_ONLY_CASES = [
    ("not-object", ["r-1"],
     ("record", "line is not a JSON object")),
    ("missing-source", _obj("caption", source=_DROP),
     ("source", "field missing")),
    ("missing-id-and-kind", _obj("caption", id=_DROP, kind=_DROP),
     ("id", "field missing")),
    ("no-meta+uris-str", _obj("caption", meta=_DROP, image_uris="file:///a.jpg"),
     ("image_uris", "must be a list")),
    ("uris-str+bad-id", _obj("caption", image_uris="file:///a.jpg", id=""),
     ("image_uris", "must be a list")),
    ("missing+uris-str", _obj("caption", payload=_DROP, image_uris="x"),
     ("payload", "field missing")),
]


def _record_of(obj: dict) -> Record:
    return Record(id=obj["id"], kind=obj["kind"], image_uris=tuple(obj["image_uris"]),
                  payload=obj["payload"], source=obj["source"], meta=obj.get("meta", {}))


def _raised(call) -> tuple[str, str] | None:
    try:
        call()
    except ValidationError as exc:
        return exc.field, str(exc)
    return None


@pytest.mark.parametrize("name,obj,expected", _PARITY_CASES,
                         ids=[case[0] for case in _PARITY_CASES])
def test_validation_parity(name, obj, expected):
    want = None if expected is None else (expected[0], f"line 3: {expected[0]}: {expected[1]}")
    assert _raised(lambda: record_from_obj(obj, 3)) == want
    assert _raised(lambda: validate_record(_record_of(obj), 3)) == want


@pytest.mark.parametrize("name,obj,expected", _OBJ_ONLY_CASES,
                         ids=[case[0] for case in _OBJ_ONLY_CASES])
def test_validation_parity_before_record(name, obj, expected):
    assert _raised(lambda: record_from_obj(obj, 3)) == (
        expected[0], f"line 3: {expected[0]}: {expected[1]}")


# --- decode fast path against plain json.loads ----------------------------------

def _line_pieces() -> list[str]:
    pieces = ["", " ", "\t", "\ufeff", "NaN", "-Infinity", "}", "]", "garbage", "{",
              '"unterminated', '{"id": "x', "[1, 2", "null", "7", '"text"', "[]", "{}",
              "[" * 40 + "]" * 40, '{"a":' * 40 + "1" + "}" * 40, "1" * 5000]
    for record in make_corpus(n_caption=2, n_vqa=2, n_text=2, n_other=2):
        pieces.append(record_to_json(record))
        obj = json.loads(record_to_json(record))
        pieces.append(json.dumps(obj))  # spaces after separators, ASCII escapes
        obj["payload"] = {"doc": {"x": float("nan")}}
        pieces.append(json.dumps(obj))
    return pieces


def _oracle_read(path) -> tuple[list[Record], list[tuple]]:
    records, errors = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            what, value = oracle_json_line(raw)
            if what == "skip":
                continue
            if what == "error":
                errors.append((lineno, "ParseError", f"line {lineno}: {value}"))
                continue
            try:
                records.append(record_from_obj(value, lineno))
            except ValidationError as exc:
                errors.append((lineno, "ValidationError", str(exc)))
    return records, errors


@pytest.mark.parametrize("seed", range(12))
def test_read_shard_decodes_like_json_loads(tmp_path, seed):
    rng = random.Random(seed)
    pieces = _line_pieces()
    lines = ["".join(rng.choice(pieces) for _ in range(rng.choice((1, 1, 1, 2, 3))))
             for _ in range(300)]
    path = tmp_path / "s.jsonl"
    text = "\n".join(lines) + rng.choice(["", "\n"])
    path.write_text(text, encoding="utf-8")
    errors = []
    got = list(read_shard(path, on_error=lambda exc, n: errors.append(
        (n, type(exc).__name__, str(exc)))))
    want_records, want_errors = _oracle_read(path)
    assert got == want_records
    assert errors == want_errors
    assert got and any(kind == "ParseError" for _, kind, _ in errors)


def test_read_shard_too_deep_is_a_parse_error(tmp_path, corpus30):
    # json.loads raises RecursionError here; the line is reported, not raised
    deep = "[" * 100000 + "]" * 100000
    path = tmp_path / "s.jsonl"
    path.write_text("\n".join([record_to_json(corpus30[0]), deep,
                               record_to_json(corpus30[1])]) + "\n", encoding="utf-8")
    errors = []
    records = list(read_shard(path, on_error=lambda exc, n: errors.append((exc, n))))
    assert [r.id for r in records] == [corpus30[0].id, corpus30[1].id]
    assert [(type(exc), n, exc.line) for exc, n in errors] == [(ParseError, 2, 2)]
    with pytest.raises(ParseError) as err:
        list(read_shard(path))
    assert err.value.line == 2


def test_read_shard_lone_surrogate_is_a_validation_error(tmp_path):
    # an escape can spell a surrogate that no UTF-8 output could hold
    def line(caption: str) -> str:
        return json.dumps({"id": "c", "kind": "caption", "image_uris": ["file:///c.jpg"],
                           "payload": {"caption": caption}, "source": "s"})

    texts = ["a harbor \ud800 view", "a \udc00", "pair \ud83d\ude00 ok", "a \\ud800 b"]
    path = tmp_path / "s.jsonl"
    path.write_text("\n".join(line(t) for t in texts) + "\n", encoding="utf-8")
    errors = []
    records = list(read_shard(path, on_error=lambda exc, n: errors.append((exc, n))))
    # a surrogate pair decodes to one character; an escaped backslash is text
    assert [r.payload["caption"] for r in records] == ["pair \U0001f600 ok", "a \\ud800 b"]
    assert [(type(exc), str(exc)) for exc, _ in errors] == [
        (ValidationError, f"line {n}: record: text holds an unpaired surrogate")
        for n in (1, 2)]


def test_read_shard_invalid_utf8_fails_only_its_line(tmp_path):
    lines = [record_to_json(r).encode("utf-8") for r in make_corpus()[:3]]
    lines[1] = lines[1].replace(b'"source":"', b'"source":"\xff', 1)
    path = tmp_path / "s.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    errors = []
    records = list(read_shard(path, on_error=lambda exc, n: errors.append((exc, n))))
    assert [r.id for r in records] == [r.id for r in make_corpus()[:3:2]]
    assert [(type(exc), n, exc.line) for exc, n in errors] == [(ParseError, 2, 2)]
    assert str(errors[0][0]).startswith("line 2: not UTF-8: ")


def test_read_shard_crlf_lines_read_as_lf(tmp_path):
    corpus = make_corpus()[:3]
    lines = [record_to_json(r) for r in corpus]
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    lf.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    crlf.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
    assert ([record_to_json(r) for r in read_shard(crlf)]
            == [record_to_json(r) for r in read_shard(lf)] == lines)


# --- dedupe -------------------------------------------------------------------

def _text_record(rid: str) -> Record:
    return Record(id=rid, kind="pure_text", image_uris=(),
                  payload={"text": f"body of {rid}"}, source="pure_text", meta={})


def test_dedupe_first_wins():
    a1 = _text_record("a")
    out, dups = dedupe_by_id([a1, _text_record("b"), _text_record("a")])
    assert [r.id for r in out] == ["a", "b"]
    assert out[0] is a1
    assert dups == 1


def test_dedupe_identity_on_unique():
    records_in = [_text_record(f"r{i}") for i in range(10)]
    out, dups = dedupe_by_id(records_in)
    assert out == records_in
    assert dups == 0


def test_dedupe_counts_match_injection_oracle():
    rng = random.Random(3)
    ids = [f"r{i:04d}" for i in range(1000)]
    # inject ~10% duplicates
    ids += [rng.choice(ids) for _ in range(100)]
    rng.shuffle(ids)
    out, dups = dedupe_by_id([_text_record(i) for i in ids])
    assert dups == oracle_dedupe_count(ids)
    assert len(out) + dups == len(ids)


def test_dedupe_idempotent():
    records_in = [_text_record(i) for i in ["a", "b", "a", "c", "b"]]
    once, _ = dedupe_by_id(records_in)
    twice, dups = dedupe_by_id(once)
    assert twice == once
    assert dups == 0


# --- token estimation ---------------------------------------------------------

def test_estimate_tokens_pure_text_formula():
    record = Record(id="t", kind="pure_text", image_uris=(),
                    payload={"text": "x" * 400}, source="s", meta={})
    assert estimate_tokens(record) == 100


def test_estimate_tokens_minimal_caption_with_image():
    record = Record(id="t", kind="caption", image_uris=("file:///a.jpg",),
                    payload={"caption": "a"}, source="s", meta={})
    assert estimate_tokens(record) == 1 + 256


def test_estimate_tokens_deterministic(corpus30):
    for record in corpus30:
        assert estimate_tokens(record) == estimate_tokens(record)
