from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kforge.corpus import (IMAGE_ARITY, KINDS, Record, dedupe_by_id,
                           estimate_tokens, read_shard, record_from_obj,
                           publish, record_to_json, validate_record, write_shard)
from kforge.errors import ParseError, ValidationError

from conftest import make_corpus
from oracles import oracle_dedupe_count

# --- strategies --------------------------------------------------------------

_ids = st.from_regex(r"[A-Za-z0-9._~-]{1,24}", fullmatch=True)
_texts = (st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                  min_size=1, max_size=60)
          .filter(lambda s: s.strip() and "<Image_" not in s))
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
    out = list(read_shard(path, on_error=lambda e, n, raw: errors.append((n, e))))
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


def test_estimate_tokens_custom_image_cost():
    record = Record(id="t", kind="caption", image_uris=("file:///a.jpg",),
                    payload={"caption": "abcd"}, source="s", meta={})
    assert estimate_tokens(record, image_token_cost=10) == 1 + 10


def test_estimate_tokens_pluggable_estimator():
    record = Record(id="t", kind="pure_text", image_uris=(),
                    payload={"text": "one two three"}, source="s", meta={})
    assert estimate_tokens(record, estimator=lambda text: len(text.split())) == 3
