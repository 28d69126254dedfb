"""Independent reference implementations used to check the real ones.

These deliberately take the dumbest correct path (full enumeration, stdlib
raw_decode, character-walk tokenizing) and must not share code with the
implementations they verify.
"""
from __future__ import annotations

import itertools
import json
import random
import re

from kforge.textnorm import STOPWORDS


def oracle_canonicalize(text: str) -> str:
    """Trim, collapse every ``\\s`` run to one space, lowercase."""
    return re.sub(r"\s+", " ", text.strip()).lower()


def oracle_propose_pairs(descriptors, min_contrast: float = 0.0):
    """Enumerate all C(n,2) pairs and apply the pairing predicates directly.

    Returns sorted tuples (left, right, alignment, shared, differing, score).
    """
    ds = {d.image_id: d for d in descriptors}
    ids = sorted(ds)
    sub = {i: oracle_canonicalize(ds[i].semantic_subcategory) for i in ids}
    dom = {i: oracle_canonicalize(ds[i].domain_direction) for i in ids}
    has_partner = {i: any(j != i and sub[j] == sub[i] for j in ids) for i in ids}

    out = []
    for a, b in itertools.combinations(ids, 2):
        if sub[a] == sub[b]:
            alignment = "subcategory"
        elif dom[a] == dom[b] and not has_partner[a] and not has_partner[b]:
            alignment = "domain"
        else:
            continue
        keys_a = set(ds[a].distinguishing_key_information)
        keys_b = set(ds[b].distinguishing_key_information)
        differing = keys_a ^ keys_b
        if not differing:
            continue
        shared = set(ds[a].core_concepts) & set(ds[b].core_concepts)
        if not shared and alignment != "subcategory":
            continue
        score = len(differing) / len(keys_a | keys_b)
        if score < min_contrast:
            continue
        out.append((a, b, alignment, tuple(sorted(shared)), tuple(sorted(differing)), score))
    return sorted(out)


def oracle_greedy_cap(rows, max_per_image):
    """The documented cap over ``oracle_propose_pairs`` rows: best score first,
    ties by pair id, keep a pair while both images hold fewer than
    ``max_per_image`` (``None``: keep all). Output by pair id."""
    if max_per_image is None:
        return sorted(rows)
    load: dict[str, int] = {}
    kept = []
    for row in sorted(rows, key=lambda r: (-r[5], r[0], r[1])):
        left, right = row[0], row[1]
        if load.get(left, 0) < max_per_image and load.get(right, 0) < max_per_image:
            kept.append(row)
            load[left] = load.get(left, 0) + 1
            load[right] = load.get(right, 0) + 1
    return sorted(kept, key=lambda r: (r[0], r[1]))


def oracle_extract_json(text: str, expected: str):
    """Reference JSON recovery: try raw_decode at every candidate offset."""
    lines = [ln for ln in text.split("\n") if not ln.lstrip().startswith("```")]
    cleaned = "\n".join(lines)
    open_char = "[" if expected == "json_list" else "{"
    decoder = json.JSONDecoder()
    for i, ch in enumerate(cleaned):
        if ch != open_char:
            continue
        try:
            value, _ = decoder.raw_decode(cleaned[i:])
        except ValueError:
            continue
        return value
    return None


def oracle_distinct_content_count(text: str) -> int:
    """Distinct non-stopword word count via a character walk (no regex)."""
    words = set()
    current: list[str] = []
    for ch in text.lower() + " ":
        if ch.isalnum() or ch == "'":
            current.append(ch)
        elif current:
            word = "".join(current).strip("'")
            if word and word not in STOPWORDS:
                words.add(word)
            current = []
    return len(words)


def oracle_dedupe_count(ids) -> int:
    """Duplicate count by direct tallying."""
    seen = {}
    for record_id in ids:
        seen[record_id] = seen.get(record_id, 0) + 1
    return sum(v - 1 for v in seen.values())


def oracle_json_line(raw: str):
    """Reference decode of one shard line: ``json.loads``, nothing else.

    Returns ``("skip", None)`` for a blank line, ``("value", obj)`` for a
    decoded line, and ``("error", message)`` where ``json.loads`` raises
    ``ValueError``; any other exception propagates.
    """
    if not raw.strip():
        return "skip", None
    try:
        return "value", json.loads(raw)
    except ValueError as exc:
        return "error", str(exc)


def oracle_record_json(obj: dict, stamp: dict | None = None) -> str:
    """Reference encoding of one decoded record as kforge writes it.

    ``json.dumps`` with compact separators and UTF-8 text over the README's
    field order (id, kind, image_uris, payload, source, meta). Each VQA item
    is written as question, answer, scope, with ``detail`` for a missing
    scope; ``meta`` takes ``stamp``'s entries over its own and is key-sorted.
    """
    payload = obj["payload"]
    if obj["kind"] == "vqa":
        payload = {"qa": [{"question": item["question"], "answer": item["answer"],
                           "scope": item.get("scope", "detail")} for item in payload["qa"]]}
    meta = dict(obj.get("meta", {}))
    meta.update(stamp or {})
    return json.dumps({"id": obj["id"], "kind": obj["kind"], "image_uris": list(obj["image_uris"]),
                       "payload": payload, "source": obj["source"],
                       "meta": {key: meta[key] for key in sorted(meta)}},
                      ensure_ascii=False, separators=(",", ":"))


def oracle_interleave(seed: int, taken: dict) -> list:
    """The weighted round-robin as first written: one ``random.choices`` per draw
    over the sorted categories that still hold items, weighted by their counts."""
    rng = random.Random(f"{seed}:interleave")
    queues = {c: list(items) for c, items in taken.items() if items}
    out = []
    while queues:
        categories = sorted(queues)
        category = rng.choices(categories, weights=[len(queues[c]) for c in categories])[0]
        out.append(queues[category].pop(0))
        if not queues[category]:
            del queues[category]
    return out
