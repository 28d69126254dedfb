from __future__ import annotations

import random
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kforge.annotation import SemanticDescriptor
from kforge.corpus import Record
from kforge.errors import BackendError
from kforge.gateway import Gateway, LlmRequest, RetryPolicy

_NOUNS = ["harbor", "orchard", "workshop", "terrace", "canal", "quarry",
          "pavilion", "meadow", "depot", "attic", "cellar", "plaza"]
_VERBS = ["overlooks", "borders", "shelters", "frames", "crosses", "supports"]
_ADJ = ["stone", "wooden", "narrow", "sunlit", "weathered", "tiled"]


def synth_sentence(rng: random.Random) -> str:
    return (f"A {rng.choice(_ADJ)} {rng.choice(_NOUNS)} {rng.choice(_VERBS)} "
            f"the {rng.choice(_ADJ)} {rng.choice(_NOUNS)} near the "
            f"{rng.choice(_NOUNS)}.")


def make_corpus(n_caption=8, n_vqa=6, n_text=10, n_other=6, seed=11) -> list[Record]:
    """Deterministic synthetic source corpus covering all four pools."""
    rng = random.Random(seed)
    records: list[Record] = []
    for i in range(n_caption):
        rid = f"c0-{i:03d}"
        records.append(Record(
            id=rid, kind="caption", image_uris=(f"file:///images/{rid}.jpg",),
            payload={"caption": synth_sentence(rng) + " " + synth_sentence(rng)},
            source="caption0", meta={}))
    for i in range(n_vqa):
        rid = f"v0-{i:03d}"
        records.append(Record(
            id=rid, kind="vqa", image_uris=(f"file:///images/{rid}.jpg",),
            payload={"qa": [
                {"question": "What does the image show overall?",
                 "answer": synth_sentence(rng), "scope": "global"},
                {"question": "What structure is present?",
                 "answer": rng.choice(_NOUNS), "scope": "detail"},
                {"question": "What material is mentioned?",
                 "answer": rng.choice(_ADJ), "scope": "detail"},
            ]},
            source="vqa0", meta={}))
    for i in range(n_text):
        rid = f"pt-{i:03d}"
        records.append(Record(
            id=rid, kind="pure_text", image_uris=(),
            payload={"text": " ".join(synth_sentence(rng) for _ in range(3))},
            source="pure_text", meta={}))
    for i in range(n_other):
        rid = f"ot-{i:03d}"
        records.append(Record(
            id=rid, kind="other", image_uris=(),
            payload={"doc": {"kind": "ocr", "text": synth_sentence(rng)}},
            source="other", meta={}))
    return records


def make_descriptor(image_id: str, subcategory: str, domain: str,
                    concepts=(), keys=(), theme="nature and environment",
                    role="reference", objects=("ridge",),
                    surface=("warm lighting",)) -> SemanticDescriptor:
    return SemanticDescriptor(
        image_id=image_id,
        type_theme=theme,
        domain_direction=domain,
        semantic_subcategory=subcategory,
        core_objects=tuple(objects),
        core_concepts=tuple(concepts),
        function_or_role=role,
        distinguishing_key_information=tuple(keys),
        low_value_surface_information=tuple(surface),
    )


def random_descriptors(rng: random.Random, n: int) -> list[SemanticDescriptor]:
    """Random descriptor sets for oracle-equivalence tests."""
    subcats = ["reef", "glacier", "bakery", "archive", "stadium"]
    domains = ["geography", "food", "culture"]
    concepts = ["balance", "growth", "motion", "trade", "light", "depth"]
    keys = [f"key{i}" for i in range(10)]
    out = []
    for i in range(n):
        out.append(make_descriptor(
            image_id=f"r{i:03d}",
            subcategory=rng.choice(subcats),
            domain=rng.choice(domains),
            concepts=rng.sample(concepts, rng.randint(0, 3)),
            keys=rng.sample(keys, rng.randint(0, 4)),
        ))
    return out


class ReplayBackend:
    """Serves scripted outputs in order; entries may be exceptions to raise.

    ``prompts`` records every prompt received, in order, and ``image_uris``
    each request's image URIs.
    """

    name = "replay"

    def __init__(self, outputs: list):
        self.outputs = list(outputs)
        self.calls = 0
        self.prompts: list[str] = []
        self.image_uris: list[tuple[str, ...]] = []
        self._lock = threading.Lock()

    def complete(self, request: LlmRequest, prompt: str) -> str:
        with self._lock:
            self.prompts.append(prompt)
            self.image_uris.append(tuple(request.image_uris))
            if not self.outputs:
                raise BackendError("http_status", 500, "replay script exhausted")
            self.calls += 1
            item = self.outputs.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def replay_gateway(outputs: list, **kwargs) -> Gateway:
    """Gateway over a scripted backend; fast retries for tests."""
    kwargs.setdefault("retry", RetryPolicy(backoff_base=0.001))
    return Gateway(ReplayBackend(outputs), **kwargs)


@pytest.fixture
def corpus30() -> list[Record]:
    return make_corpus()


@pytest.fixture
def shard_dir(tmp_path, corpus30):
    from kforge.corpus import write_shard

    d = tmp_path / "in"
    d.mkdir()
    write_shard(corpus30, d / "corpus.jsonl")
    return d
