"""Robust JSON recovery from model output.

Model completions are asked to return bare JSON but routinely arrive
wrapped in code fences, lead-in prose, or trailing commentary. This module
strips fences and decodes a JSON value at each opening bracket of the
expected shape in turn, keeping the first one that parses. A value of that
shape ends at the closing bracket that closes its opening one, with the
strings read as JSON reads them from that opening bracket on. So once the
first opening bracket fails, whose error the message names, a decode
starts only at the opening brackets that some closing bracket closes, found
in one pass over the text.
"""
from __future__ import annotations

import json
import re

from kforge.errors import NoJsonFound

JSON_LIST = "json_list"
JSON_OBJECT = "json_object"

_FENCE_LINE = re.compile(r"^\s*```[^\n]*$", re.MULTILINE)
_DECODER = json.JSONDecoder()
_BRACKETS = {JSON_LIST: "[]", JSON_OBJECT: "{}"}
# what can change a reading's string state or depth: quotes, backslashes, brackets
_MARKS = {shape: re.compile(r'["\\%s]' % re.escape(pair)) for shape, pair in _BRACKETS.items()}
# string states: outside a string, inside one, just after a backslash inside one
_OUT, _IN, _ESC = range(3)
# the state after a quote, a backslash, or any other character
_NEXT = {'"': (_IN, _OUT, _IN), "\\": (_OUT, _ESC, _IN), "": (_OUT, _IN, _IN)}


def strip_code_fences(text: str) -> str:
    """Remove Markdown fence lines, keeping the fenced content."""
    return _FENCE_LINE.sub("", text)


def extract_json(raw_text: str, expected: str):
    """Extract the first JSON value of the expected shape from raw output.

    ``expected`` is ``"json_list"`` or ``"json_object"``. Raises
    ``NoJsonFound`` when no value of that shape decodes; its message names
    the shape and the first decode error, if a candidate failed to decode.
    """
    if expected not in (JSON_LIST, JSON_OBJECT):
        raise ValueError(f"expected must be json_list or json_object, got {expected!r}")
    text = strip_code_fences(raw_text)
    first = text.find(_BRACKETS[expected][0])
    if first == -1:
        raise NoJsonFound(f"no JSON {expected[5:]} in output")
    try:
        return _DECODER.raw_decode(text, first)[0]
    except (ValueError, RecursionError) as exc:  # nesting past the decoder's limit
        first_error = f"; invalid JSON at offset {first}: {exc}"
    for i in _closed_openers(text, expected, first + 1):
        try:
            return _DECODER.raw_decode(text, i)[0]
        except (ValueError, RecursionError):
            pass
    raise NoJsonFound(f"no JSON {expected[5:]} in output{first_error}")


def _closed_openers(text: str, expected: str, start: int) -> list[int]:
    """The offsets from ``start`` on of the opening brackets that a closing
    bracket closes when the text is read from each of them, in order.

    Each reading starts outside a string at its opening bracket. Readings
    in the same string state at the same offset go on alike, so they are
    kept as one group: at most three are live, one per state, and each
    holds a depth and its openers by the depth that closes them.
    """
    open_char, close_char = _BRACKETS[expected]
    groups: dict[int, list] = {}  # state -> [depth, {depth: openers}]
    closed: list[int] = []
    last = start - 1
    for mark in _MARKS[expected].finditer(text, start):
        at, char = mark.start(), mark.group()
        if at > last + 1 and _ESC in groups:  # a plain character ends the escape
            groups = _moved(groups, _NEXT[""])
        last = at
        if char == open_char:
            group = groups.setdefault(_OUT, [0, {}])
            group[1].setdefault(group[0], []).append(at)
            group[0] += 1
        elif char == close_char and _OUT in groups:
            group = groups[_OUT]
            group[0] -= 1
            closed += group[1].pop(group[0], ())
        if char in _NEXT or _ESC in groups:
            groups = _moved(groups, _NEXT.get(char, _NEXT[""]))
    return sorted(closed)


def _moved(groups: dict[int, list], next_state: tuple) -> dict[int, list]:
    """The groups in their next states; two that meet merge, the smaller
    one's openers rebased onto the larger one's depth."""
    moved: dict[int, list] = {}
    for state, group in groups.items():
        other = moved.setdefault(next_state[state], group)
        if other is not group:
            big, small = (other, group) if len(other[1]) >= len(group[1]) else (group, other)
            for depth, openers in small[1].items():
                big[1].setdefault(depth + big[0] - small[0], []).extend(openers)
            moved[next_state[state]] = big
    return moved
