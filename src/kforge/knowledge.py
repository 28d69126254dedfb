"""Knowledge element extraction and per-sample density scoring.

A sample's density is the number of distinct semantic elements an analyzer
model extracts from its text. Fact and Abstract elements are merged for
counting (deduped by canonical text); per-kind subcounts are kept for
reporting. Numbers are only comparable within one analyzer backend, so
reports record the backend identity.

``kd_score`` builds each profile once, as the object one line of
``kd_profiles.jsonl`` stores: ``sample_id``, ``kd``, ``n_facts``,
``n_abstract``, then ``elements``, each ``{"text", "kind"}`` plus
``"level": "L1"`` for a fact. ``ProfileCounts.from_line`` reads the counts
back off a stored line, and ``build_report`` summarizes them per source.
"""
from __future__ import annotations

import json
import logging
import statistics
from pathlib import Path
from typing import Iterable, NamedTuple

from kforge.corpus import KIND_OTHER, Record, publish
from kforge.errors import SchemaMismatch, ValidationError
from kforge.gateway import Gateway, LlmRequest
from kforge.textnorm import canonicalize

logger = logging.getLogger(__name__)

FACT = "fact"
ABSTRACT = "abstract"

HISTOGRAM_BUCKET = 5


class ProfileCounts(NamedTuple):
    """The counts ``build_report`` reads, as stored on a profile JSONL line."""

    sample_id: str
    kd: int
    n_facts: int
    n_abstract: int

    @classmethod
    def from_line(cls, line: str) -> ProfileCounts:
        """Read the counts off one line of ``kd_profiles.jsonl``.

        The counts come before the element list, which is most of the line,
        so only that head is decoded when the line is compact; any other
        JSON encoding of a profile object is decoded whole.
        """
        cut = line.find(',"elements":')
        obj = json.loads(line[:cut] + "}" if cut >= 0 else line)
        return cls(obj["sample_id"], obj["kd"], obj["n_facts"], obj["n_abstract"])


def extract_elements(text: str, gateway: Gateway) -> list[dict]:
    """Run the knowledge-extraction prompt and canonicalize the reply.

    The reply must be an object with ``Fact`` and ``Abstract`` keys (empty
    lists are valid). Elements are deduped by canonical text within the
    sample; a text appearing as both kinds counts once, as a fact. Each
    element is returned as a profile line stores it, facts first.
    """
    if not text.strip():
        raise ValidationError("text", "cannot extract knowledge from empty text")
    raw = gateway.complete(LlmRequest(template_id="knowledge_extract",
                                      bindings={"text": text}))
    for key in ("Fact", "Abstract"):
        if key not in raw or not isinstance(raw[key], list):
            raise SchemaMismatch(key)

    seen: set[str] = set()
    out: list[dict] = []
    facts = [e.get("fact", "") if isinstance(e, dict) else e for e in raw["Fact"]]
    for kind, entries in ((FACT, facts), (ABSTRACT, raw["Abstract"])):
        level = {"level": "L1"} if kind == FACT else {}
        for entry in entries:
            canon = canonicalize(str(entry))
            if canon and canon not in seen:
                seen.add(canon)
                out.append({"text": canon, "kind": kind, **level})
    return out


def kd_score(record: Record, gateway: Gateway) -> dict:
    """Score one record: concatenate its text units and count distinct elements."""
    if record.kind == KIND_OTHER:
        raise ValidationError("payload", "record has no text payload")
    elements = extract_elements("\n".join(record.text_units()), gateway)
    n_facts = sum(1 for e in elements if e["kind"] == FACT)
    return {"sample_id": record.id, "kd": len(elements), "n_facts": n_facts,
            "n_abstract": len(elements) - n_facts, "elements": elements}


def _histogram(values: list[int]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for v in values:
        lo = (v // HISTOGRAM_BUCKET) * HISTOGRAM_BUCKET
        key = f"{lo}-{lo + HISTOGRAM_BUCKET - 1}"
        counts[key] = counts.get(key, 0) + 1
    return {k: counts[k] for k in sorted(counts, key=lambda s: int(s.split("-")[0]))}


def build_report(profiles: Iterable[ProfileCounts], source_of: dict[str, str],
                 comparisons: Iterable[tuple[str, str]], backend_id: str) -> dict:
    """Corpus-level density report.

    ``source_of`` maps profile sample ids to source labels; every profile
    must resolve. ``comparisons`` lists (source_a, source_b) pairs reported
    as mean ratios; a pair naming a source with no profiles, or whose second
    source's mean is 0, is left out of the report with one warning, rather
    than treating the mean as zero or dividing by it.
    """
    groups: dict[str, list[ProfileCounts]] = {}
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
        missing = [source for source in (source_a, source_b) if source not in per_source]
        if missing or not per_source[source_b]["mean_kd"]:
            logger.warning("kd.comparisons entry %s:%s dropped: %s", source_a, source_b,
                           f"no profiles for source {', '.join(missing)}" if missing
                           else f"mean kd of source {source_b} is 0")
            continue
        ratio = per_source[source_a]["mean_kd"] / per_source[source_b]["mean_kd"]
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


def publish_report(path: str | Path, profiles: Iterable[ProfileCounts],
                   source_of: dict[str, str], comparisons: Iterable[tuple[str, str]],
                   backend_id: str) -> None:
    """Build the density report and publish it as indented JSON."""
    report = build_report(profiles, source_of, comparisons, backend_id=backend_id)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    publish(path, [json.dumps(report, ensure_ascii=False, indent=2, sort_keys=True)])
