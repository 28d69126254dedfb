"""Text normalization helpers: tokenization, canonical form, stopwords.

The stopword list ships with the package and is deliberately small and
frozen; grounding checks and the deterministic mock extractor both depend
on it being stable across releases.
"""
from __future__ import annotations

import re

_TOKEN = re.compile(r"[a-z0-9]+(?:'[a-z]+)?")

STOPWORDS = frozenset(
    """
    a about above after again against all am an and any are aren't as at be
    because been before being below between both but by can cannot could
    couldn't did didn't do does doesn't doing don't down during each few for
    from further had hadn't has hasn't have haven't having he her here hers
    herself him himself his how i if in into is isn't it its itself just me
    more most my myself no nor not of off on once only or other our ours
    ourselves out over own same she should shouldn't so some such than that
    the their theirs them themselves then there these they this those through
    to too under until up very was wasn't we were weren't what when where
    which while who whom why will with won't would wouldn't you your yours
    yourself yourselves
    """.split()
)


def canonicalize(text: str) -> str:
    """Trim, collapse internal whitespace, lowercase. No stemming.

    ``str.split`` splits on exactly the characters ``re``'s ``\\s`` matches.
    """
    return " ".join(text.split()).lower()


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens; punctuation is dropped."""
    return _TOKEN.findall(text.lower())


def content_words(text: str) -> list[str]:
    """Tokens that are not stopwords, in text order."""
    return [t for t in tokenize(text) if t not in STOPWORDS]


def distinct_content_words(text: str) -> list[str]:
    """Distinct non-stopword tokens, first occurrence order."""
    seen: set[str] = set()
    out: list[str] = []
    for tok in content_words(text):
        if tok not in seen:
            seen.add(tok)
            out.append(tok)
    return out
