"""Knowledge element extraction and per-sample density scoring.

A sample's density is the number of distinct semantic elements an analyzer
model extracts from its text. Fact and Abstract elements are merged for
counting (deduped by canonical text); per-kind subcounts are kept for
reporting. Numbers are only comparable within one analyzer backend, so
reports record the backend identity.
"""
from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from kforge.corpus import KIND_OTHER, Record, publish
from kforge.errors import EmptyGroup, SchemaMismatch, ValidationError
from kforge.gateway import Gateway, LlmRequest
from kforge.textnorm import canonicalize

FACT = "fact"
ABSTRACT = "abstract"

HISTOGRAM_BUCKET = 5


@dataclass(frozen=True)
class KnowledgeElement:
    text: str
    kind: str
    level: str | None = None


@dataclass(frozen=True)
class KnowledgeProfile:
    sample_id: str
    elements: tuple[KnowledgeElement, ...]

    @property
    def kd(self) -> int:
        return len(self.elements)

    @property
    def n_facts(self) -> int:
        return sum(1 for e in self.elements if e.kind == FACT)

    @property
    def n_abstract(self) -> int:
        return sum(1 for e in self.elements if e.kind == ABSTRACT)


class ProfileCounts(NamedTuple):
    """The counts ``build_report`` reads, as stored on a profile JSONL line."""

    sample_id: str
    kd: int
    n_facts: int
    n_abstract: int

    @classmethod
    def from_line(cls, line: str) -> ProfileCounts:
        """Read the counts off one JSON line of ``profile_to_obj`` output.

        The counts come before the element list, which is most of the line,
        so only that head is decoded when the line is compact.
        """
        cut = line.find(',"elements":')
        obj = json.loads(line[:cut] + "}" if cut >= 0 else line)
        return cls(obj["sample_id"], obj["kd"], obj["n_facts"], obj["n_abstract"])


def _element(text: str, kind: str) -> KnowledgeElement | None:
    canon = canonicalize(text)
    if not canon:
        return None
    return KnowledgeElement(canon, kind, "L1" if kind == FACT else None)


def extract_elements(text: str, gateway: Gateway) -> tuple[KnowledgeElement, ...]:
    """Run the knowledge-extraction prompt and canonicalize the reply.

    The reply must be an object with ``Fact`` and ``Abstract`` keys (empty
    lists are valid). Elements are deduped by canonical text within the
    sample; a text appearing as both kinds counts once, as a fact.
    """
    if not text.strip():
        raise ValidationError("text", "cannot extract knowledge from empty text")
    raw = gateway.complete_json(LlmRequest(template_id="knowledge_extract",
                                           bindings={"text": text}))
    if not isinstance(raw, dict):
        raise SchemaMismatch("knowledge", "not a JSON object")
    for key in ("Fact", "Abstract"):
        if key not in raw or not isinstance(raw[key], list):
            raise SchemaMismatch(key)

    seen: set[str] = set()
    out: list[KnowledgeElement] = []
    for entry in raw["Fact"]:
        if isinstance(entry, dict):
            element = _element(str(entry.get("fact", "")), FACT)
        else:
            element = _element(str(entry), FACT)
        if element and element.text not in seen:
            seen.add(element.text)
            out.append(element)
    for entry in raw["Abstract"]:
        element = _element(str(entry), ABSTRACT)
        if element and element.text not in seen:
            seen.add(element.text)
            out.append(element)
    return tuple(out)


def kd_score(record: Record, gateway: Gateway) -> KnowledgeProfile:
    """Score one record: concatenate its text units and count distinct elements."""
    if record.kind == KIND_OTHER:
        raise ValidationError("payload", "record has no text payload")
    text = "\n".join(record.text_units())
    elements = extract_elements(text, gateway)
    return KnowledgeProfile(sample_id=record.id, elements=elements)


def _histogram(values: list[int]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for v in values:
        lo = (v // HISTOGRAM_BUCKET) * HISTOGRAM_BUCKET
        key = f"{lo}-{lo + HISTOGRAM_BUCKET - 1}"
        counts[key] = counts.get(key, 0) + 1
    return {k: counts[k] for k in sorted(counts, key=lambda s: int(s.split("-")[0]))}


def build_report(profiles: Iterable[KnowledgeProfile | ProfileCounts],
                 source_of: dict[str, str],
                 comparisons: list[tuple[str, str]],
                 backend_id: str) -> dict:
    """Corpus-level density report.

    ``profiles`` may be full profiles or just their stored counts.
    ``source_of`` maps profile sample ids to source labels; every profile
    must resolve. ``comparisons`` lists (source_a, source_b) pairs reported
    as mean ratios; a comparison against a source with no profiles raises
    ``EmptyGroup`` rather than treating the mean as zero.
    """
    groups: dict[str, list[KnowledgeProfile | ProfileCounts]] = {}
    for p in profiles:
        source = source_of.get(p.sample_id)
        if source is None:
            raise ValidationError("source", f"no source for profile {p.sample_id}")
        groups.setdefault(source, []).append(p)

    per_source = {}
    for source in sorted(groups):
        kds = [p.kd for p in groups[source]]
        per_source[source] = {
            "n": len(kds),
            "mean_kd": statistics.fmean(kds),
            "median_kd": float(statistics.median(kds)),
            "total_facts": sum(p.n_facts for p in groups[source]),
            "total_abstract": sum(p.n_abstract for p in groups[source]),
            "histogram": _histogram(kds),
        }

    comparison_rows = []
    for source_a, source_b in comparisons:
        for source in (source_a, source_b):
            if source not in per_source or per_source[source]["n"] == 0:
                raise EmptyGroup(source)
        mean_a = per_source[source_a]["mean_kd"]
        mean_b = per_source[source_b]["mean_kd"]
        ratio = mean_a / mean_b
        comparison_rows.append({
            "source_a": source_a,
            "source_b": source_b,
            "mean_ratio": ratio,
            "pct_increase": (ratio - 1.0) * 100.0,
        })

    return {
        "metadata": {
            "backend_id": backend_id,
            "element_merge": "fact and abstract elements deduped by canonical text",
        },
        "per_source": per_source,
        "comparisons": comparison_rows,
    }


# --- JSONL persistence -----------------------------------------------------

def profile_to_obj(profile: KnowledgeProfile) -> dict:
    return {
        "sample_id": profile.sample_id,
        "kd": profile.kd,
        "n_facts": profile.n_facts,
        "n_abstract": profile.n_abstract,
        "elements": [
            {"text": e.text, "kind": e.kind, **({"level": e.level} if e.level else {})}
            for e in profile.elements
        ],
    }


def profile_from_obj(obj: dict) -> KnowledgeProfile:
    elements = tuple(
        KnowledgeElement(e["text"], e["kind"], e.get("level"))
        for e in obj["elements"])
    return KnowledgeProfile(sample_id=obj["sample_id"], elements=elements)


def write_profiles(profiles: Iterable[KnowledgeProfile], path: str | Path) -> int:
    lines = [json.dumps(profile_to_obj(p), ensure_ascii=False, separators=(",", ":")) + "\n"
             for p in profiles]
    publish(path, lines)
    return len(lines)


def read_profiles(path: str | Path) -> Iterator[KnowledgeProfile]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield profile_from_obj(json.loads(line))
