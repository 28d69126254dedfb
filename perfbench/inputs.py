"""Seeded input corpora for the benchmark workloads.

The generator is the benchmark's own: it writes kforge's JSONL shard
format with the standard library alone, so the inputs do not depend on
the code under test or on the test suite's fixtures. The same seed always
gives the same bytes.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

_PLACES = ["harbor", "orchard", "foundry", "terrace", "canal", "quarry",
           "pavilion", "meadow", "station", "loft", "granary", "plaza",
           "boathouse", "observatory", "vineyard", "archive"]
_ACTIONS = ["overlooks", "borders", "shelters", "frames", "crosses",
            "supports", "faces", "surrounds"]
_MATERIALS = ["stone", "timber", "narrow", "sunlit", "weathered", "tiled",
              "glazed", "copper", "painted", "terraced"]
_TOPICS = ["tidal erosion", "grain storage", "canal locks", "kiln firing",
           "orbital periods", "crop rotation", "bridge loads", "ink making"]


def _sentence(rng: random.Random) -> str:
    return (f"A {rng.choice(_MATERIALS)} {rng.choice(_PLACES)} "
            f"{rng.choice(_ACTIONS)} the {rng.choice(_MATERIALS)} "
            f"{rng.choice(_PLACES)} near the {rng.choice(_PLACES)}.")


def _record(rid: str, kind: str, uris: list[str], payload: dict, source: str,
            meta: dict | None = None) -> dict:
    return {"id": rid, "kind": kind, "image_uris": uris, "payload": payload,
            "source": source, "meta": meta or {}}


def _uri(rid: str) -> str:
    return f"file:///images/{rid}.jpg"


def source_records(seed: int, n_caption: int, n_vqa: int, n_text: int,
                   n_other: int) -> dict[str, list[dict]]:
    """The four original pools (caption0, vqa0, pure_text, other) by source."""
    rng = random.Random(f"perfbench-sources:{seed}")
    pools: dict[str, list[dict]] = {"caption0": [], "vqa0": [], "pure_text": [],
                                    "other": []}
    for i in range(n_caption):
        rid = f"c0-{i:06d}"
        pools["caption0"].append(_record(
            rid, "caption", [_uri(rid)],
            {"caption": f"{_sentence(rng)} {_sentence(rng)}"}, "caption0"))
    for i in range(n_vqa):
        rid = f"v0-{i:06d}"
        pools["vqa0"].append(_record(rid, "vqa", [_uri(rid)], {"qa": [
            {"question": "What does the image show overall?",
             "answer": _sentence(rng), "scope": "global"},
            {"question": "Which structure is visible?",
             "answer": rng.choice(_PLACES), "scope": "detail"},
            {"question": "What material is mentioned?",
             "answer": rng.choice(_MATERIALS), "scope": "detail"},
        ]}, "vqa0"))
    for i in range(n_text):
        rid = f"pt-{i:06d}"
        pools["pure_text"].append(_record(
            rid, "pure_text", [],
            {"text": " ".join(_sentence(rng) for _ in range(3))}, "pure_text"))
    for i in range(n_other):
        rid = f"ot-{i:06d}"
        pools["other"].append(_record(
            rid, "other", [],
            {"doc": {"kind": "ocr", "topic": rng.choice(_TOPICS),
                     "text": f"{_sentence(rng)} {_sentence(rng)}"}}, "other"))
    return pools


def generated_records(seed: int, n_caption1: int, n_vqa1: int, n_pair: int,
                      n_interleaved: int) -> dict[str, list[dict]]:
    """Pools shaped like the pipeline's generated shards, for the mix stage."""
    rng = random.Random(f"perfbench-generated:{seed}")
    pools: dict[str, list[dict]] = {"caption1": [], "vqa1": [], "pair_caption": [],
                                    "interleaved": []}
    for i in range(n_caption1):
        rid = f"cap1-g{i:06d}"
        pools["caption1"].append(_record(
            rid, "caption", [_uri(f"g{i:06d}")], {"caption": _sentence(rng)},
            "caption1", {"image_id": f"g{i:06d}"}))
    for i in range(n_vqa1):
        rid = f"vqa1-g{i:06d}"
        qa = [{"question": "What kind of scene does this image show overall?",
               "answer": _sentence(rng), "scope": "global"}]
        qa += [{"question": f"Which element appears in the scene (detail {k})?",
                "answer": rng.choice(_PLACES), "scope": "detail"} for k in range(1, 5)]
        pools["vqa1"].append(_record(
            rid, "vqa", [_uri(f"g{i:06d}")], {"qa": qa}, "vqa1",
            {"caption_id": f"cap1-g{i:06d}"}))
    for i in range(n_pair):
        left, right = f"p{2 * i:06d}", f"p{2 * i + 1:06d}"
        pools["pair_caption"].append(_record(
            f"pairc-{left}-{right}", "pair_caption", [_uri(left), _uri(right)],
            {"caption": f"Both images concern {rng.choice(_TOPICS)}. {_sentence(rng)}"},
            "pair_caption", {"left_id": left, "right_id": right}))
    for i in range(n_interleaved):
        n = 3 + rng.randrange(3)
        members = [f"m{i:06d}-{k}" for k in range(n)]
        text = " ".join(f"{_sentence(rng)} <Image_{k}>" for k in range(1, n + 1))
        pools["interleaved"].append(_record(
            f"ilv-{i:06d}", "interleaved", [_uri(m) for m in members],
            {"text": text}, "interleaved", {"members": ",".join(members)}))
    return pools


def write_jsonl(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")
