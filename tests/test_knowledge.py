from __future__ import annotations

import json

import pytest

from kforge.corpus import Record, json_line, publish, read_jsonl
from kforge.errors import SchemaMismatch, ValidationError
from kforge.gateway import mock_gateway
from kforge.knowledge import ProfileCounts, build_report, extract_elements, kd_score

from conftest import replay_gateway
from fixtures_text import (INTERLEAVE_CONSTITUENTS, INTERLEAVE_TEXT,
                           PAIR_JOINT, PAIR_SINGLE_A, PAIR_SINGLE_B)
from oracles import oracle_distinct_content_count


def _text_record(rid, text):
    return Record(id=rid, kind="pure_text", image_uris=(),
                  payload={"text": text}, source="pure_text", meta={})


# --- extraction -----------------------------------------------------------------

def test_extract_replay_fact_examples():
    reply = json.dumps({
        "Fact": [{"fact": "The cat is black", "level": "L1"},
                 {"fact": "The cat is sitting on the windowsill", "level": "L1"}],
        "Abstract": [],
    })
    gw = replay_gateway([reply])
    elements = extract_elements(
        "The cat is black. The cat is sitting on the windowsill.", gw)
    assert elements == [
        {"text": "the cat is black", "kind": "fact", "level": "L1"},
        {"text": "the cat is sitting on the windowsill", "kind": "fact", "level": "L1"}]


def test_extract_empty_lists_valid():
    gw = replay_gateway([json.dumps({"Fact": [], "Abstract": []})])
    assert extract_elements("anything here", gw) == []


def test_extract_dedupes_repeated_fact():
    reply = json.dumps({"Fact": [{"fact": "a dog", "level": "L1"},
                                 {"fact": "A  Dog", "level": "L1"}],
                        "Abstract": ["a dog"]})
    gw = replay_gateway([reply])
    elements = extract_elements("a dog", gw)
    assert elements == [{"text": "a dog", "kind": "fact", "level": "L1"}]


def test_extract_missing_key_is_schema_error():
    gw = replay_gateway([json.dumps({"Fact": []})])
    with pytest.raises(SchemaMismatch) as err:
        extract_elements("text", gw)
    assert err.value.field == "Abstract"


# --- kd scoring -----------------------------------------------------------------

def test_kd_mock_counts_distinct_content_words():
    gw = mock_gateway()
    profile = kd_score(_text_record("r1", "red red car"), gw)
    assert profile["kd"] == 2
    assert {e["text"] for e in profile["elements"]} == {"red", "car"}


def test_kd_stopword_only_text_scores_zero():
    gw = mock_gateway()
    profile = kd_score(_text_record("r1", "the of and to"), gw)
    assert profile["kd"] == 0


def test_kd_vqa_joins_questions_and_answers():
    gw = mock_gateway()
    record = Record(id="v", kind="vqa", image_uris=("file:///v.jpg",),
                    payload={"qa": [{"question": "What color is the boat?",
                                     "answer": "green", "scope": "detail"}]},
                    source="vqa0", meta={})
    profile = kd_score(record, gw)
    assert {"color", "boat", "green"} <= {e["text"] for e in profile["elements"]}


def test_kd_other_records_have_no_text_payload(corpus30):
    gw = mock_gateway()
    other = next(r for r in corpus30 if r.kind == "other")
    with pytest.raises(ValidationError):
        kd_score(other, gw)


def test_kd_pair_caption_beats_singles_and_matches_oracle():
    gw = mock_gateway()
    kd_a = kd_score(_text_record("a", PAIR_SINGLE_A), gw)["kd"]
    kd_b = kd_score(_text_record("b", PAIR_SINGLE_B), gw)["kd"]
    kd_joint = kd_score(_text_record("j", PAIR_JOINT), gw)["kd"]
    assert kd_joint > max(kd_a, kd_b)
    assert kd_a == oracle_distinct_content_count(PAIR_SINGLE_A)
    assert kd_b == oracle_distinct_content_count(PAIR_SINGLE_B)
    assert kd_joint == oracle_distinct_content_count(PAIR_JOINT)


def test_kd_interleaved_beats_constituents_and_matches_oracle():
    gw = mock_gateway()
    kd_full = kd_score(_text_record("full", INTERLEAVE_TEXT), gw)["kd"]
    for i, constituent in enumerate(INTERLEAVE_CONSTITUENTS):
        kd_part = kd_score(_text_record(f"part{i}", constituent), gw)["kd"]
        assert kd_full > kd_part
        assert kd_part == oracle_distinct_content_count(constituent)
    assert kd_full == oracle_distinct_content_count(INTERLEAVE_TEXT)


def test_kd_subadditive_under_mock():
    gw = mock_gateway()
    texts = [PAIR_SINGLE_A, PAIR_SINGLE_B, "red red car", INTERLEAVE_CONSTITUENTS[0]]
    for i, t1 in enumerate(texts):
        for t2 in texts[i:]:
            joint = kd_score(_text_record("j", t1 + "\n" + t2), gw)["kd"]
            assert joint <= (kd_score(_text_record("a", t1), gw)["kd"]
                             + kd_score(_text_record("b", t2), gw)["kd"])


def test_kd_invariant_to_case_and_repetition():
    gw = mock_gateway()
    assert (kd_score(_text_record("a", "Copper Kettle and copper kettle Copper"), gw)["kd"]
            == kd_score(_text_record("b", "copper kettle"), gw)["kd"])


# --- report ---------------------------------------------------------------------

def _profiles(source_means: dict[str, list[int]]):
    profiles, source_of = [], {}
    for source, kds in source_means.items():
        for i, kd in enumerate(kds):
            rid = f"{source}-{i}"
            profiles.append(ProfileCounts(rid, kd, kd, 0))
            source_of[rid] = source
    return profiles, source_of


def test_report_percentage_matches_published_rounding():
    profiles, source_of = _profiles({"pair": [32, 32], "base": [22, 22]})
    report = build_report(profiles, source_of, [("pair", "base")], backend_id="mock")
    row = report["comparisons"][0]
    assert row["pct_increase"] == pytest.approx(45.4545, abs=0.01)
    assert row["mean_ratio"] == pytest.approx(32 / 22)


def test_report_equal_means_zero_increase():
    profiles, source_of = _profiles({"a": [7], "b": [7]})
    report = build_report(profiles, source_of, [("a", "b")], backend_id="mock")
    assert report["comparisons"][0]["pct_increase"] == 0


def test_report_leaves_out_comparison_without_profiles(caplog):
    profiles, source_of = _profiles({"a": [5], "b": [4]})
    with caplog.at_level("WARNING", logger="kforge.knowledge"):
        report = build_report(profiles, source_of, [("a", "missing"), ("a", "b")],
                              backend_id="mock")
    assert [(row["source_a"], row["source_b"]) for row in report["comparisons"]] == [
        ("a", "b")]
    assert [r.getMessage() for r in caplog.records] == [
        "kd.comparisons entry a:missing dropped: no profiles for source missing"]


def test_report_leaves_out_comparison_with_zero_second_mean(caplog):
    # divided by the zero mean: ZeroDivisionError after every kd-score model call
    profiles = [ProfileCounts("x", 3, 3, 0), ProfileCounts("y", 0, 0, 0)]
    with caplog.at_level("WARNING", logger="kforge.knowledge"):
        report = build_report(profiles, {"x": "a", "y": "b"}, [("a", "b"), ("b", "a")], "mock")
    assert [(row["source_a"], row["source_b"], row["mean_ratio"])
            for row in report["comparisons"]] == [("b", "a", 0.0)]
    assert [r.getMessage() for r in caplog.records] == [
        "kd.comparisons entry a:b dropped: mean kd of source b is 0"]


def test_report_stats_and_backend_metadata():
    profiles, source_of = _profiles({"a": [1, 2, 9]})
    report = build_report(profiles, source_of, [], backend_id="mock")
    stats = report["per_source"]["a"]
    assert stats["n"] == 3
    assert stats["mean_kd"] == pytest.approx(4.0)
    assert stats["median_kd"] == 2.0
    assert stats["histogram"] == {"0-4": 2, "5-9": 1}
    assert report["metadata"]["backend_id"] == "mock"


def test_profile_line_stores_counts_then_elements():
    reply = json.dumps({"Fact": [{"fact": "A red car", "level": "L1"}],
                        "Abstract": ["speed", "a red car"]})
    profile = kd_score(_text_record("r1", "A red car goes fast."), replay_gateway([reply]))
    assert json_line(profile) == (
        '{"sample_id":"r1","kd":2,"n_facts":1,"n_abstract":1,"elements":['
        '{"text":"a red car","kind":"fact","level":"L1"},'
        '{"text":"speed","kind":"abstract"}]}')


def test_profile_roundtrip(tmp_path):
    gw = mock_gateway()
    profiles = [kd_score(_text_record(f"r{i}", PAIR_SINGLE_A), gw) for i in range(3)]
    path = tmp_path / "p.jsonl"
    publish(path, [json_line(p) + "\n" for p in profiles])
    assert list(read_jsonl(path, lambda obj: obj)) == profiles
