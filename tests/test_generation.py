from __future__ import annotations

import json
import re
import time

import pytest

from kforge.errors import (EmptyGeneration, FilterNotPassed, GroundingFailure,
                           MalformedOutput, MarkerViolation, PolicyViolation,
                           ValidationError)
from kforge.gateway import Gateway, mock_gateway
from kforge.generation import (GroupMember, VqaValidationPolicy,
                               classify_scopes, generate_caption,
                               generate_interleaved, generate_pair_caption,
                               group_for_interleave, grounding_fraction,
                               synthesize_vqa)
from kforge.pairing import PairCandidate, PairVerdict
from kforge.prompts import REGISTRY, render_prompt
from kforge.textnorm import tokenize

from conftest import ReplayBackend, make_descriptor, replay_gateway
from fixtures_text import (INTERLEAVE_TEXT, PAIR_JOINT, SHIBA_CAPTION,
                           SHIBA_QA)


def _pair():
    return PairCandidate("img-a", "img-b", "subcategory", ("depth",), ("k1", "k2"), 0.5)


def _pass_verdict(candidate=None):
    return PairVerdict(candidate or _pair(), True, "clear comparison")


def _descs():
    return (make_descriptor("img-a", "reef", "geography", concepts=("depth",), keys=("k1",)),
            make_descriptor("img-b", "lagoon", "geography", concepts=("depth",), keys=("k2",)))


# --- single captions ------------------------------------------------------------

def test_generate_caption_mock_deterministic():
    gw = mock_gateway()
    a = generate_caption("img-1", "file:///1.jpg", gw)
    b = generate_caption("img-1", "file:///1.jpg", gw)
    assert a == b
    assert a.kind == "caption" and a.source == "caption1"
    assert a.payload["caption"]


def test_generate_caption_whitespace_output_is_error():
    # an empty reply is asked for once more before the caption fails
    gw = replay_gateway(["   \n  ", ""])
    with pytest.raises(EmptyGeneration, match="^single_caption: empty reply$"):
        generate_caption("img-1", "file:///1.jpg", gw)
    assert gw.stats.snapshot() == {"llm_calls": 2, "retries": 0, "reasks": 1}


def test_generate_caption_differs_across_images():
    gw = mock_gateway()
    a = generate_caption("img-1", "file:///1.jpg", gw)
    b = generate_caption("img-2", "file:///2.jpg", gw)
    assert a.payload["caption"] != b.payload["caption"]


# --- pair captions ----------------------------------------------------------------

def test_pair_caption_replay_stored_verbatim():
    left, right = _descs()
    gw = replay_gateway([PAIR_JOINT])
    record = generate_pair_caption(_pair(), ("file:///a.jpg", left),
                                   ("file:///b.jpg", right), gw,
                                   verdict=_pass_verdict())
    assert record.payload["caption"] == PAIR_JOINT
    assert record.image_uris == ("file:///a.jpg", "file:///b.jpg")
    assert record.meta["alignment_level"] == "subcategory"
    assert record.meta["contrast_score"] == "0.500000"


def test_pair_caption_mock_contains_both_subcategories():
    left, right = _descs()
    gw = mock_gateway()
    record = generate_pair_caption(_pair(), ("file:///a.jpg", left),
                                   ("file:///b.jpg", right), gw,
                                   verdict=_pass_verdict())
    caption = record.payload["caption"]
    assert "reef" in caption and "lagoon" in caption


def test_pair_caption_requires_verdict():
    left, right = _descs()
    gw = mock_gateway()
    with pytest.raises(FilterNotPassed):
        generate_pair_caption(_pair(), ("file:///a.jpg", left),
                              ("file:///b.jpg", right), gw, verdict=None)


def test_pair_caption_rejects_failed_verdict():
    left, right = _descs()
    gw = mock_gateway()
    with pytest.raises(FilterNotPassed):
        generate_pair_caption(_pair(), ("file:///a.jpg", left),
                              ("file:///b.jpg", right), gw,
                              verdict=PairVerdict(_pair(), False, "weak"))


# --- interleaved -------------------------------------------------------------------

def _group(n=5, domain="food and cooking"):
    return [GroupMember(f"img-{i}", f"file:///{i}.jpg",
                        make_descriptor(f"img-{i}", f"dish {i}", domain,
                                        concepts=("texture",), keys=(f"k{i}",)))
            for i in range(n)]


def _interleave_prompts(group):
    listing = "\n".join(f"Image {k}: {m.image_id}: {m.descriptor.summary()}"
                        for k, m in enumerate(group, start=1))
    prompt = render_prompt(REGISTRY["interleave"], {"group": listing})
    suffix = (f"\nEvery marker <Image_1> through <Image_{len(group)}> "
              "must appear exactly once.")
    return [prompt, prompt + suffix]


def test_interleaved_fixture_passes_marker_check():
    backend = ReplayBackend([INTERLEAVE_TEXT, "never asked"])
    gw = Gateway(backend)
    record = generate_interleaved(_group(5), gw)
    assert record.payload["text"] == INTERLEAVE_TEXT
    markers = re.findall(r"<Image_(\d+)>", record.payload["text"])
    assert sorted(map(int, markers)) == [1, 2, 3, 4, 5]
    assert backend.prompts == _interleave_prompts(_group(5))[:1]
    assert gw.stats.reasks == 0


def test_interleaved_mock_markers_exactly_once():
    gw = mock_gateway()
    for n in (3, 4, 5):
        record = generate_interleaved(_group(n), gw)
        markers = [int(k) for k in re.findall(r"<Image_(\d+)>", record.payload["text"])]
        assert sorted(markers) == list(range(1, n + 1))


def test_interleaved_missing_marker_after_reask():
    first = "start <Image_1> <Image_1> then <Image_2> end"
    second = "start <Image_1> then <Image_2> <Image_7> end"  # no <Image_3>
    backend = ReplayBackend([first, second, "never asked"])
    gw = Gateway(backend)
    with pytest.raises(MarkerViolation) as err:
        generate_interleaved(_group(3), gw)
    # the second reply's problems
    assert (err.value.missing, err.value.duplicated, err.value.out_of_range) == (
        [3], [], [7])
    assert err.value.code == "marker_violation"
    assert str(err.value) == "missing=[3], out_of_range=[7]"
    assert backend.prompts == _interleave_prompts(_group(3))
    assert gw.stats.snapshot() == {"llm_calls": 2, "retries": 0, "reasks": 1}


def test_interleaved_empty_replies_are_marker_violations():
    backend = ReplayBackend(["", "  \n "])
    gw = Gateway(backend)
    with pytest.raises(MarkerViolation) as err:
        generate_interleaved(_group(3), gw)
    assert err.value.missing == [1, 2, 3]
    assert gw.stats.reasks == 1


def test_interleaved_many_duplicate_markers_fail_fast():
    text = "<Image_2> <Image_3> " + "<Image_1> " * 20000
    gw = replay_gateway([text, text])
    start = time.perf_counter()
    with pytest.raises(MarkerViolation) as err:
        generate_interleaved(_group(3), gw)
    # one linear pass takes milliseconds; a count per marker took over a second
    assert time.perf_counter() - start < 0.25
    assert (err.value.missing, err.value.duplicated, err.value.out_of_range) == ([], [1], [])


def test_interleaved_reask_can_fix_markers():
    bad = "start <Image_1> then <Image_2> end"
    good = "start <Image_1> then <Image_2> and <Image_3> end"
    backend = ReplayBackend([bad, f"\n  {good} \n"])
    gw = Gateway(backend)
    record = generate_interleaved(_group(3), gw)
    assert record.payload["text"] == good  # stripped
    assert backend.prompts == _interleave_prompts(_group(3))
    assert gw.stats.snapshot() == {"llm_calls": 2, "retries": 0, "reasks": 1}


def test_interleaved_group_too_small():
    gw = mock_gateway()
    with pytest.raises(ValidationError):
        generate_interleaved(_group(2), gw)


def test_interleaved_mixed_domains_rejected():
    gw = mock_gateway()
    group = _group(3)
    group[1] = GroupMember("img-x", "file:///x.jpg",
                           make_descriptor("img-x", "dish x", "astronomy"))
    with pytest.raises(ValidationError):
        generate_interleaved(group, gw)


# --- interleave grouping --------------------------------------------------------------

def _pairs_over(ids):
    out = []
    for i in range(0, len(ids) - 1, 2):
        out.append(PairCandidate(*sorted((ids[i], ids[i + 1])), "subcategory",
                                 ("c",), ("k",), 1.0))
    return out


def test_grouping_sizes_and_determinism():
    descriptors = {f"img-{i:02d}": make_descriptor(f"img-{i:02d}", f"s{i}", "food")
                   for i in range(12)}
    pairs = _pairs_over(sorted(descriptors))
    groups_a = group_for_interleave(pairs, descriptors, seed=3)
    groups_b = group_for_interleave(pairs, descriptors, seed=3)
    assert groups_a == groups_b
    assert all(3 <= len(g) <= 5 for g in groups_a)
    assert sum(len(g) for g in groups_a) == 12


def test_grouping_respects_domains_and_drops_tiny_leftovers():
    descriptors = {}
    for i in range(4):
        descriptors[f"a-{i}"] = make_descriptor(f"a-{i}", f"s{i}", "food")
    for i in range(2):
        descriptors[f"b-{i}"] = make_descriptor(f"b-{i}", f"t{i}", "sports")
    pairs = _pairs_over(sorted(descriptors))
    groups = group_for_interleave(pairs, descriptors, seed=1)
    assert all(len(g) >= 3 for g in groups)
    flat = [i for g in groups for i in g]
    assert all(i.startswith("a-") for i in flat)  # the 2 sports images drop


def test_group_sizes_stay_within_the_bounds():
    for n in range(13):
        ids = [f"img-{i:02d}" for i in range(n)]
        descriptors = {i: make_descriptor(i, f"s-{i}", "food") for i in ids}
        pairs = [PairCandidate(a, b, "subcategory", ("c",), ("k",), 1.0)
                 for a, b in zip(ids, ids[1:])]
        for min_size in range(2, 13):
            for max_size in range(min_size, 13):
                groups = group_for_interleave(pairs, descriptors, min_size, max_size)
                assert all(min_size <= len(g) <= max_size for g in groups), (
                    min_size, max_size, n, [len(g) for g in groups])
                flat = [i for g in groups for i in g]
                assert len(flat) == len(set(flat))


def test_grouping_varies_with_seed():
    descriptors = {f"img-{i:02d}": make_descriptor(f"img-{i:02d}", f"s{i}", "food")
                   for i in range(10)}
    pairs = _pairs_over(sorted(descriptors))
    orders = {tuple(tuple(g) for g in group_for_interleave(pairs, descriptors, seed=s))
              for s in range(6)}
    assert len(orders) > 1


# --- VQA synthesis -----------------------------------------------------------------

def _caption_record(text, rid="cap-1"):
    from kforge.corpus import Record

    return Record(id=rid, kind="caption", image_uris=("file:///c.jpg",),
                  payload={"caption": text}, source="caption1", meta={})


def test_vqa_mock_satisfies_policy():
    gw = mock_gateway()
    policy = VqaValidationPolicy()
    caption = ("A weathered rowboat rests on a pebble shore beside "
               "folded nets and a rusted anchor.")
    record = synthesize_vqa(_caption_record(caption), policy, gw)
    qa = record.payload["qa"]
    assert 5 <= len(qa) <= 15
    n_global = sum(1 for item in qa if item["scope"] == "global")
    assert n_global >= 1
    assert len(qa) - n_global >= 2 * n_global
    vocab = set(tokenize(caption))
    for item in qa:
        if item["scope"] == "detail":
            assert grounding_fraction(item["answer"], vocab) >= 0.5


def test_vqa_json_reply_reasked_then_parsed():
    caption = "A weathered rowboat rests on a pebble shore beside folded nets."
    items = [{"question": "What kind of scene does this image show overall?",
              "answer": "A weathered rowboat rests on a pebble shore"}]
    items += [{"question": f"Which element appears (detail {i})?", "answer": word}
              for i, word in enumerate(["rowboat", "shore", "nets", "pebble"], start=1)]
    prompt = render_prompt(REGISTRY["caption_to_vqa"], {"cap": caption})
    backend = ReplayBackend(["no list here", f"```json\n{json.dumps(items)}\n```"])
    gw = Gateway(backend)
    record = synthesize_vqa(_caption_record(caption), VqaValidationPolicy(), gw)
    assert [item["answer"] for item in record.payload["qa"]] == [
        item["answer"] for item in items]
    assert backend.prompts == [prompt, prompt + "\nReturn only valid JSON."]
    assert gw.stats.snapshot() == {"llm_calls": 2, "retries": 0, "reasks": 1}


def test_vqa_malformed_json_reply():
    caption = "A quiet pebble shore."
    prompt = render_prompt(REGISTRY["caption_to_vqa"], {"cap": caption})
    backend = ReplayBackend(["no list here", "still none"])
    gw = Gateway(backend)
    with pytest.raises(MalformedOutput) as err:
        synthesize_vqa(_caption_record(caption), VqaValidationPolicy(), gw)
    assert str(err.value) == "caption_to_vqa: output not valid json_list"
    assert (err.value.__cause__.code, str(err.value.__cause__)) == (
        "no_json", "no JSON list in output")
    assert backend.prompts == [prompt, prompt + "\nReturn only valid JSON."]


def test_vqa_three_items_rejected():
    items = [{"question": f"q{i}?", "answer": "shore"} for i in range(3)]
    gw = replay_gateway([json.dumps(items)])
    with pytest.raises(PolicyViolation) as err:
        synthesize_vqa(_caption_record("A quiet pebble shore."),
                       VqaValidationPolicy(), gw)
    assert err.value.reason == "count_out_of_range"


def test_vqa_missing_global_rejected():
    items = [{"question": f"What color is item {i}?", "answer": "blue"}
             for i in range(6)]
    gw = replay_gateway([json.dumps(items)])
    with pytest.raises(PolicyViolation) as err:
        synthesize_vqa(_caption_record("A blue kite drifts over a very long "
                                       "and sandy windswept beach today."),
                       VqaValidationPolicy(), gw)
    assert err.value.reason == "missing_global"


def test_vqa_ratio_violation():
    caption = "A tall red birdhouse."
    items = [
        {"question": "What does this image show overall?", "answer": "A tall red birdhouse"},
        {"question": "What kind of scene does this show overall here?", "answer": "red"},
        {"question": "What kind of structure does the image show?", "answer": "birdhouse"},
        {"question": "What color overall?", "answer": "red"},
        {"question": "What is tall?", "answer": "birdhouse"},
    ]
    gw = replay_gateway([json.dumps(items)])
    with pytest.raises(PolicyViolation) as err:
        synthesize_vqa(_caption_record(caption), VqaValidationPolicy(), gw)
    assert err.value.reason == "ratio"


def test_vqa_grounding_drop_below_min_fails():
    caption = "A small green rowing boat tied to a wooden dock at dawn."
    items = [{"question": "What does this image show overall?",
              "answer": "A small green rowing boat tied to a dock"}]
    items += [{"question": f"What detail {i} appears?", "answer": "zeppelin octopus"}
              for i in range(5)]
    gw = replay_gateway([json.dumps(items)])
    with pytest.raises(GroundingFailure):
        synthesize_vqa(_caption_record(caption), VqaValidationPolicy(), gw)


def test_vqa_ungrounded_items_dropped_but_record_survives():
    caption = ("A small green rowing boat tied to a wooden dock at dawn, with "
               "coiled rope, two oars, and a tin lantern resting on the planks.")
    items = [{"question": "What does this image show overall?",
              "answer": "A small green rowing boat tied to a wooden dock with rope and oars"}]
    items += [{"question": f"What object {i} is present?", "answer": answer}
              for i, answer in enumerate(["rope", "oars", "lantern", "dock", "boat"])]
    items.append({"question": "What mythical beast guards it?", "answer": "zeppelin octopus"})
    gw = replay_gateway([json.dumps(items)])
    record = synthesize_vqa(_caption_record(caption), VqaValidationPolicy(), gw)
    answers = [item["answer"] for item in record.payload["qa"]]
    assert "zeppelin octopus" not in answers
    assert len(record.payload["qa"]) == 6


def test_vqa_fig_reconstruction_fixture():
    gw = replay_gateway([json.dumps(SHIBA_QA)])
    record = synthesize_vqa(_caption_record(SHIBA_CAPTION), VqaValidationPolicy(), gw)
    qa = record.payload["qa"]
    animal_items = [item for item in qa
                    if item["question"] == "What animal is running along the grassland?"]
    assert len(animal_items) == 1
    assert animal_items[0]["answer"] == "Dog"
    assert animal_items[0]["scope"] == "detail"
    # the answer is contained in the caption, so grounding passes
    assert grounding_fraction("Dog", set(tokenize(SHIBA_CAPTION))) == 1.0


def test_vqa_rejects_wrong_source_kind(corpus30):
    gw = mock_gateway()
    pure = next(r for r in corpus30 if r.kind == "pure_text")
    with pytest.raises(ValidationError):
        synthesize_vqa(pure, VqaValidationPolicy(), gw)


def test_vqa_rejects_a_pair_caption():
    """vqa-synth reads single-image captions only; a pair caption costs no call."""
    from kforge.corpus import Record

    pair = Record(id="pc-1", kind="pair_caption", image_uris=("file:///a.jpg", "file:///b.jpg"),
                  payload={"caption": "Both show a red roof."}, source="pair_caption", meta={})
    gw = mock_gateway()
    with pytest.raises(ValidationError) as err:
        synthesize_vqa(pair, VqaValidationPolicy(), gw)
    assert err.value.field == "kind"
    assert gw.stats.llm_calls == 0


def test_scope_classification_rules():
    caption = "x" * 100
    items = [("What animal?", "y" * 30),   # long answer takes the global slot
             ("What animal?", "y" * 40),   # second long answer stays detail
             ("What kind of place does it show?", "z"),   # prefix heuristic
             ("Where is it?", "z")]
    assert classify_scopes(items, caption) == ["global", "detail", "global", "detail"]


def test_grounding_fraction_rules():
    vocab = set(tokenize("A red car on a gravel road."))
    assert grounding_fraction("red car", vocab) == 1.0
    assert grounding_fraction("red spaceship", vocab) == 0.5
    assert grounding_fraction("the of", vocab) == 1.0  # no content words
