from __future__ import annotations

import json

import pytest

from kforge.corpus import Record
from kforge.errors import EmptyGroup, SchemaMismatch, ValidationError
from kforge.gateway import mock_gateway
from kforge.knowledge import (KnowledgeElement, KnowledgeProfile, ProfileCounts,
                              build_report, extract_elements, kd_score,
                              profile_from_obj, profile_to_obj, read_profiles,
                              write_profiles)

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
    assert len(elements) == 2
    assert all(e.kind == "fact" and e.level == "L1" for e in elements)
    assert elements[0].text == "the cat is black"


def test_extract_empty_lists_valid():
    gw = replay_gateway([json.dumps({"Fact": [], "Abstract": []})])
    assert extract_elements("anything here", gw) == ()


def test_extract_dedupes_repeated_fact():
    reply = json.dumps({"Fact": [{"fact": "a dog", "level": "L1"},
                                 {"fact": "A  Dog", "level": "L1"}],
                        "Abstract": ["a dog"]})
    gw = replay_gateway([reply])
    elements = extract_elements("a dog", gw)
    assert len(elements) == 1
    assert elements[0].kind == "fact"


def test_extract_missing_key_is_schema_error():
    gw = replay_gateway([json.dumps({"Fact": []})])
    with pytest.raises(SchemaMismatch) as err:
        extract_elements("text", gw)
    assert err.value.field == "Abstract"


# --- kd scoring -----------------------------------------------------------------

def test_kd_mock_counts_distinct_content_words():
    gw = mock_gateway()
    profile = kd_score(_text_record("r1", "red red car"), gw)
    assert profile.kd == 2
    assert {e.text for e in profile.elements} == {"red", "car"}


def test_kd_stopword_only_text_scores_zero():
    gw = mock_gateway()
    profile = kd_score(_text_record("r1", "the of and to"), gw)
    assert profile.kd == 0


def test_kd_vqa_joins_questions_and_answers():
    gw = mock_gateway()
    record = Record(id="v", kind="vqa", image_uris=("file:///v.jpg",),
                    payload={"qa": [{"question": "What color is the boat?",
                                     "answer": "green", "scope": "detail"}]},
                    source="vqa0", meta={})
    profile = kd_score(record, gw)
    assert {"color", "boat", "green"} <= {e.text for e in profile.elements}


def test_kd_other_records_have_no_text_payload(corpus30):
    gw = mock_gateway()
    other = next(r for r in corpus30 if r.kind == "other")
    with pytest.raises(ValidationError):
        kd_score(other, gw)


def test_kd_pair_caption_beats_singles_and_matches_oracle():
    gw = mock_gateway()
    kd_a = kd_score(_text_record("a", PAIR_SINGLE_A), gw).kd
    kd_b = kd_score(_text_record("b", PAIR_SINGLE_B), gw).kd
    kd_joint = kd_score(_text_record("j", PAIR_JOINT), gw).kd
    assert kd_joint > max(kd_a, kd_b)
    assert kd_a == oracle_distinct_content_count(PAIR_SINGLE_A)
    assert kd_b == oracle_distinct_content_count(PAIR_SINGLE_B)
    assert kd_joint == oracle_distinct_content_count(PAIR_JOINT)


def test_kd_interleaved_beats_constituents_and_matches_oracle():
    gw = mock_gateway()
    kd_full = kd_score(_text_record("full", INTERLEAVE_TEXT), gw).kd
    for i, constituent in enumerate(INTERLEAVE_CONSTITUENTS):
        kd_part = kd_score(_text_record(f"part{i}", constituent), gw).kd
        assert kd_full > kd_part
        assert kd_part == oracle_distinct_content_count(constituent)
    assert kd_full == oracle_distinct_content_count(INTERLEAVE_TEXT)


def test_kd_subadditive_under_mock():
    gw = mock_gateway()
    texts = [PAIR_SINGLE_A, PAIR_SINGLE_B, "red red car", INTERLEAVE_CONSTITUENTS[0]]
    for i, t1 in enumerate(texts):
        for t2 in texts[i:]:
            joint = kd_score(_text_record("j", t1 + "\n" + t2), gw).kd
            assert joint <= (kd_score(_text_record("a", t1), gw).kd
                             + kd_score(_text_record("b", t2), gw).kd)


def test_kd_invariant_to_case_and_repetition():
    gw = mock_gateway()
    assert (kd_score(_text_record("a", "Copper Kettle and copper kettle Copper"), gw).kd
            == kd_score(_text_record("b", "copper kettle"), gw).kd)


# --- report ---------------------------------------------------------------------

def _profiles(source_means: dict[str, list[int]]):
    profiles, source_of = [], {}
    for source, kds in source_means.items():
        for i, kd in enumerate(kds):
            rid = f"{source}-{i}"
            elements = tuple(KnowledgeElement(f"e{j}", "fact", "L1") for j in range(kd))
            profiles.append(KnowledgeProfile(rid, elements))
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


def test_report_empty_group_error():
    profiles, source_of = _profiles({"a": [5]})
    with pytest.raises(EmptyGroup):
        build_report(profiles, source_of, [("a", "missing")], backend_id="mock")


def test_report_stats_and_backend_metadata():
    profiles, source_of = _profiles({"a": [1, 2, 9]})
    report = build_report(profiles, source_of, [], backend_id="mock")
    stats = report["per_source"]["a"]
    assert stats["n"] == 3
    assert stats["mean_kd"] == pytest.approx(4.0)
    assert stats["median_kd"] == 2.0
    assert stats["histogram"] == {"0-4": 2, "5-9": 1}
    assert report["metadata"]["backend_id"] == "mock"


def test_profile_roundtrip(tmp_path):
    gw = mock_gateway()
    profiles = [kd_score(_text_record(f"r{i}", PAIR_SINGLE_A), gw) for i in range(3)]
    path = tmp_path / "p.jsonl"
    write_profiles(profiles, path)
    assert list(read_profiles(path)) == profiles
    assert profile_from_obj(profile_to_obj(profiles[0])) == profiles[0]


def test_report_from_stored_counts_matches_full_profiles():
    gw = mock_gateway()
    texts = [PAIR_SINGLE_A, PAIR_SINGLE_B, PAIR_JOINT, INTERLEAVE_TEXT]
    profiles = [kd_score(_text_record(f"r{i}", t), gw) for i, t in enumerate(texts)]
    source_of = {p.sample_id: "ab"[i % 2] for i, p in enumerate(profiles)}
    counts = [ProfileCounts.from_line(json.dumps(profile_to_obj(p), separators=(",", ":")))
              for p in profiles]
    assert counts == [ProfileCounts.from_line(json.dumps(profile_to_obj(p), indent=1))
                      for p in profiles]
    assert [c.kd for c in counts] == [p.kd for p in profiles]
    assert (build_report(counts, source_of, [("a", "b")], backend_id="mock")
            == build_report(profiles, source_of, [("a", "b")], backend_id="mock"))

