"""Robust JSON recovery from model output.

Model completions are asked to return bare JSON but routinely arrive
wrapped in code fences, lead-in prose, or trailing commentary. This module
strips fences and decodes a JSON value at each opening bracket of the
expected shape in turn, keeping the first one that parses.
"""
from __future__ import annotations

import json
import re

from kforge.errors import JsonSyntax, NoJsonFound, WrongShape

JSON_LIST = "json_list"
JSON_OBJECT = "json_object"

_FENCE_LINE = re.compile(r"^\s*```[^\n]*$", re.MULTILINE)
_DECODER = json.JSONDecoder()


def strip_code_fences(text: str) -> str:
    """Remove Markdown fence lines, keeping the fenced content."""
    return _FENCE_LINE.sub("", text)


def _first_parseable(text: str, open_char: str):
    """Decode at each ``open_char`` in turn; return ``((start, value), first_error)``.

    ``(start, value)`` is ``None`` when no candidate decodes.
    """
    first_error = None
    i = text.find(open_char)
    while i != -1:
        try:
            return (i, _DECODER.raw_decode(text, i)[0]), first_error
        except (ValueError, RecursionError) as exc:  # nesting past the decoder's limit
            if first_error is None:
                first_error = JsonSyntax(i, str(exc))
        i = text.find(open_char, i + 1)
    return None, first_error


def extract_json(raw_text: str, expected: str):
    """Extract the first JSON value of the expected shape from raw output.

    ``expected`` is ``"json_list"`` or ``"json_object"``. Raises
    ``NoJsonFound`` when nothing resembling JSON is present, ``WrongShape``
    when only the other shape parses, and ``JsonSyntax`` when candidates of
    the right shape exist but none of them parse.
    """
    if expected not in (JSON_LIST, JSON_OBJECT):
        raise ValueError(f"expected must be json_list or json_object, got {expected!r}")
    text = strip_code_fences(raw_text)
    open_char = "[" if expected == JSON_LIST else "{"

    found, first_error = _first_parseable(text, open_char)
    if found is not None:
        return found[1]

    other_char = "{" if expected == JSON_LIST else "["
    other_found, _ = _first_parseable(text, other_char)
    if other_found is not None:
        raise WrongShape(JSON_OBJECT if expected == JSON_LIST else JSON_LIST)
    if first_error is not None:
        raise first_error
    raise NoJsonFound(f"no JSON {expected[5:]} in output")
