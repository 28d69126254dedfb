from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kforge import jsonx
from kforge.errors import KforgeError, NoJsonFound
from kforge.jsonx import JSON_LIST, JSON_OBJECT, extract_json, strip_code_fences

from oracles import oracle_extract_json

_WORDS = ["sure", "here", "is", "the", "result", "hope", "this", "helps",
          "note", "that", "values", "follow", "output", "review", "done"]
_TRICKY = ["{broken", "]]", "} end", "stray [ bracket", "quote \" here",
           "colon: value", "`tick`", "half { open"]


def random_json_value(rng: random.Random, depth: int = 0):
    """Arbitrary JSON value; scalars at depth >= 2 to bound size."""
    choices = ["str", "int", "float", "bool", "null"]
    if depth < 2:
        choices += ["list", "dict", "list", "dict"]
    kind = rng.choice(choices)
    if kind == "str":
        parts = rng.choices(_WORDS + ["{", "}", "[", "]", '"quoted"', "esc\\ape", "\n"],
                            k=rng.randint(0, 4))
        return " ".join(parts)
    if kind == "int":
        return rng.randint(-1000, 1000)
    if kind == "float":
        return round(rng.uniform(-10, 10), 4)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "null":
        return None
    if kind == "list":
        return [random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {f"k{i}": random_json_value(rng, depth + 1) for i in range(rng.randint(0, 4))}


def wrap_in_noise(rng: random.Random, payload: str) -> str:
    """Surround serialized JSON with prose, tricky fragments, and maybe fences."""
    prefix = " ".join(rng.choices(_WORDS, k=rng.randint(0, 8)))
    if rng.random() < 0.4:
        prefix += " " + rng.choice(_TRICKY)
    suffix = " ".join(rng.choices(_WORDS + _TRICKY, k=rng.randint(0, 8)))
    if rng.random() < 0.5:
        payload = f"```json\n{payload}\n```"
    return f"{prefix}\n{payload}\n{suffix}"


def test_fenced_list():
    raw = '```json\n[{"question":"q","answer":"a"}]\n```'
    assert extract_json(raw, JSON_LIST) == [{"question": "q", "answer": "a"}]


def test_prose_wrapped_object_matches_oracle():
    raw = 'Here is the result: {"a": [1,2]} hope this helps'
    value = extract_json(raw, JSON_OBJECT)
    assert value == {"a": [1, 2]}
    assert value == oracle_extract_json(raw, JSON_OBJECT)


def test_no_json_found():
    with pytest.raises(NoJsonFound) as err:
        extract_json("no braces here", JSON_OBJECT)
    assert (err.value.code, str(err.value)) == ("no_json", "no JSON object in output")


def test_wrong_shape():
    # a value of the other shape is no value of this one
    with pytest.raises(NoJsonFound) as err:
        extract_json("text [1, 2, 3] more", JSON_OBJECT)
    assert str(err.value) == "no JSON object in output"
    with pytest.raises(NoJsonFound) as err:
        extract_json('text {"a": 1} more', JSON_LIST)
    assert str(err.value) == "no JSON list in output"


def test_json_syntax_when_only_bad_candidates():
    # the message names the first candidate's decode error
    with pytest.raises(NoJsonFound) as err:
        extract_json("try {not: valid} and {also bad}", JSON_OBJECT)
    assert str(err.value) == (
        "no JSON object in output; invalid JSON at offset 4: Expecting property name "
        "enclosed in double quotes: line 1 column 6 (char 5)")


def test_braces_inside_strings_do_not_confuse_scan():
    raw = 'prefix {"text": "a } inside \\" and { more"} suffix'
    assert extract_json(raw, JSON_OBJECT) == {"text": 'a } inside " and { more'}


def test_skips_unparseable_candidate_before_real_value():
    raw = "set {x} then {\"a\": 1}"
    assert extract_json(raw, JSON_OBJECT) == {"a": 1}


def test_unterminated_candidate_skipped():
    raw = 'brace { unclosed then {"a": 1}'
    assert extract_json(raw, JSON_OBJECT) == {"a": 1}


def test_only_candidate_unterminated_is_json_syntax():
    # a candidate of the right shape exists but never closes
    with pytest.raises(NoJsonFound) as err:
        extract_json('unterminated { "a": 1', JSON_OBJECT)
    assert str(err.value).startswith("no JSON object in output; invalid JSON at offset 13: ")


def test_nesting_past_decoder_limit_is_json_syntax():
    with pytest.raises(NoJsonFound) as err:
        extract_json("[" * 3000, JSON_LIST)
    assert "invalid JSON at offset 0: " in str(err.value)


def test_nested_value_recovered_whole():
    value = {"a": {"b": [1, {"c": "x"}]}, "d": []}
    raw = "answer: " + json.dumps(value) + " trailing"
    assert extract_json(raw, JSON_OBJECT) == value


def test_strip_code_fences_keeps_content():
    assert strip_code_fences("```json\n[1]\n```").strip() == "[1]"


def test_recovery_matches_oracle_on_random_suite():
    rng = random.Random(99)
    for _ in range(300):
        value = random_json_value(rng)
        expected = JSON_LIST if isinstance(value, list) else JSON_OBJECT
        if not isinstance(value, (list, dict)):
            value = [value] if rng.random() < 0.5 else {"v": value}
            expected = JSON_LIST if isinstance(value, list) else JSON_OBJECT
        raw = wrap_in_noise(rng, json.dumps(value))
        recovered = extract_json(raw, expected)
        assert recovered == value
        assert oracle_extract_json(raw, expected) == value


def _bracket_heavy_text(rng: random.Random, n: int) -> str:
    alphabet = list('abc {}[]"\\:,0123456789\n') + ["é", "漢"]
    return "".join(rng.choice(alphabet) for _ in range(n))


@pytest.mark.parametrize("expected", [JSON_LIST, JSON_OBJECT])
def test_random_bracket_text_matches_oracle(expected):
    rng = random.Random(5)
    for _ in range(2000):
        raw = _bracket_heavy_text(rng, rng.randint(0, 120))
        want = oracle_extract_json(raw, expected)
        if want is None:
            with pytest.raises(KforgeError):
                extract_json(raw, expected)
        else:
            assert extract_json(raw, expected) == want


_HOSTILE_PIECES = list('[]{}"\\,:1x') + [" ", "\n", "\n```\n", "\n```json\n", "\n  ``` x\n"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_HOSTILE_PIECES), max_size=80).map("".join),
       st.sampled_from([JSON_LIST, JSON_OBJECT]))
def test_bracket_text_matches_oracle(raw, expected):
    want = oracle_extract_json(raw, expected)
    if want is None:
        with pytest.raises(NoJsonFound):
            extract_json(raw, expected)
    else:
        assert extract_json(raw, expected) == want


class _CountingDecoder:
    def __init__(self):
        self.attempts = 0

    def raw_decode(self, text, index):
        self.attempts += 1
        return json.JSONDecoder().raw_decode(text, index)


@pytest.mark.parametrize("raw,message", [
    ("[" * 20000, "no JSON list in output; invalid JSON at offset 0: "
                  "maximum recursion depth exceeded while decoding a JSON array "
                  "from a unicode string"),
    ('["' + "x[" * 16000, "no JSON list in output; invalid JSON at offset 0: "
                          "Unterminated string starting at: line 1 column 2 (char 1)"),
])
def test_unclosed_brackets_are_decoded_once(monkeypatch, raw, message):
    # no list can start after the last "]": only the first "[" is decoded,
    # and its error is the one the message names
    decoder = _CountingDecoder()
    monkeypatch.setattr(jsonx, "_DECODER", decoder)
    with pytest.raises(NoJsonFound) as err:
        extract_json(raw, JSON_LIST)
    assert str(err.value) == message
    assert decoder.attempts == 1


def test_decodes_stop_at_the_last_closing_bracket(monkeypatch):
    decoder = _CountingDecoder()
    monkeypatch.setattr(jsonx, "_DECODER", decoder)
    with pytest.raises(NoJsonFound):
        extract_json("{x {y} {z {w", JSON_OBJECT)
    assert decoder.attempts == 2  # "{z" and "{w" open after the last "}"


def test_closed_opener_after_a_run_of_openers_is_decoded_second(monkeypatch):
    # no "[" of the run but the last is closed: the first is decoded for
    # its error, and then only the last
    decoder = _CountingDecoder()
    monkeypatch.setattr(jsonx, "_DECODER", decoder)
    assert extract_json("[" * 20000 + "]", JSON_LIST) == []
    assert decoder.attempts <= 2


def test_a_stray_quote_does_not_hide_a_later_value():
    # read from the text's start, "[1]" sits inside a string; read from its
    # own "[", it is a list
    assert extract_json('say "x [1]', JSON_LIST) == [1]
    assert extract_json('a "b {"c": 1}', JSON_OBJECT) == {"c": 1}
    assert extract_json('[x "\\" [2] " [3]', JSON_LIST) == [2]
