from __future__ import annotations

import random
import re
import sys

from kforge.textnorm import canonicalize

from oracles import oracle_canonicalize

ALL_CHARS = "".join(map(chr, range(sys.maxunicode + 1)))
SPACES = [c for c in ALL_CHARS if c.isspace()]


def test_regex_whitespace_is_str_isspace():
    assert re.findall(r"\s", ALL_CHARS) == SPACES


def test_canonicalize_matches_regex_on_every_whitespace_char():
    for c in SPACES:
        for text in (c, c * 3, f"{c}A{c}", f"{c}{c}Foo{c}bar{c}{c}BAZ{c}",
                     f"x{c}\u00c9{c}\u0130{c}{c}y"):
            assert canonicalize(text) == oracle_canonicalize(text), repr(text)
    mixed = "".join(f"{c}W{i}" for i, c in enumerate(SPACES)) + "".join(SPACES)
    assert canonicalize(mixed) == oracle_canonicalize(mixed)


def test_canonicalize_matches_regex_on_random_text():
    rng = random.Random(11)
    alphabet = SPACES + list("aZ9-_.\u00e9\u0130\u03a3\u4e2d\u200b\ufeff")
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert canonicalize(text) == oracle_canonicalize(text), repr(text)
