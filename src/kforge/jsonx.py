"""Robust JSON recovery from model output.

Model completions are asked to return bare JSON but routinely arrive
wrapped in code fences, lead-in prose, or trailing commentary. This module
strips fences and decodes a JSON value at each opening bracket of the
expected shape in turn, keeping the first one that parses. A value of that
shape ends at a closing bracket after its opening one, so no decode starts
at or after the text's last closing bracket, except the first, whose error
the message names.
"""
from __future__ import annotations

import json
import re

from kforge.errors import NoJsonFound

JSON_LIST = "json_list"
JSON_OBJECT = "json_object"

_FENCE_LINE = re.compile(r"^\s*```[^\n]*$", re.MULTILINE)
_DECODER = json.JSONDecoder()


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
    open_char, close_char = "[]" if expected == JSON_LIST else "{}"
    end = max(text.rfind(close_char), 0)  # no later offset can start a value
    first_error = ""
    i = text.find(open_char)
    while i != -1:
        try:
            return _DECODER.raw_decode(text, i)[0]
        except (ValueError, RecursionError) as exc:  # nesting past the decoder's limit
            first_error = first_error or f"; invalid JSON at offset {i}: {exc}"
        i = text.find(open_char, i + 1, end)
    raise NoJsonFound(f"no JSON {expected[5:]} in output{first_error}")
