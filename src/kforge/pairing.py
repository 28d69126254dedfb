"""Image pair mining: index, candidate proposal, semantic filter, selection.

Candidates must share a coarse category (same subcategory bucket, or same
domain bucket for images with no subcategory partner) while differing in
distinguishing details. An LLM filter then keeps only pairs whose
relationship is coherent enough to explain simply.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from kforge.annotation import SemanticDescriptor
from kforge.corpus import publish
from kforge.errors import DuplicateImageId, MalformedOutput
from kforge.gateway import Gateway, LlmRequest
from kforge.textnorm import canonicalize

ALIGN_SUBCATEGORY = "subcategory"
ALIGN_DOMAIN = "domain"

DEFAULT_MAX_PER_IMAGE = 2
DEFAULT_MIN_CONTRAST = 0.25


@dataclass(frozen=True)
class PairCandidate:
    left_id: str
    right_id: str
    alignment_level: str
    shared_concepts: tuple[str, ...]
    differing_keys: tuple[str, ...]
    contrast_score: float

    @property
    def pair_id(self) -> tuple[str, str]:
        return (self.left_id, self.right_id)


@dataclass(frozen=True)
class PairVerdict:
    candidate: PairCandidate
    passed: bool
    rationale: str


@dataclass
class DescriptorIndex:
    by_subcategory: dict[str, list[str]]
    by_domain: dict[str, list[str]]
    descriptors: dict[str, SemanticDescriptor]


def build_index(descriptors: Iterable[SemanticDescriptor]) -> DescriptorIndex:
    """Bucket descriptors by canonical subcategory and domain; buckets stay sorted."""
    by_sub: dict[str, list[str]] = {}
    by_dom: dict[str, list[str]] = {}
    all_desc: dict[str, SemanticDescriptor] = {}
    for d in descriptors:
        if d.image_id in all_desc:
            raise DuplicateImageId(d.image_id)
        all_desc[d.image_id] = d
        by_sub.setdefault(canonicalize(d.semantic_subcategory), []).append(d.image_id)
        by_dom.setdefault(canonicalize(d.domain_direction), []).append(d.image_id)
    for bucket in by_sub.values():
        bucket.sort()
    for bucket in by_dom.values():
        bucket.sort()
    return DescriptorIndex(by_subcategory=by_sub, by_domain=by_dom, descriptors=all_desc)


def _bucket_pairs(index: DescriptorIndex, members: list[str], alignment: str,
                  min_contrast: float) -> list[tuple[float, str, str, str]]:
    """Score every pair of bucket members; keep ``(-score, left, right, alignment)``.

    Keys and concepts become int bitmasks over the bucket's own vocabulary,
    so each set operation is one int operation plus ``int.bit_count``.
    """
    bits: dict[str, int] = {}

    def mask(values: tuple[str, ...]) -> int:
        m = 0
        for v in values:
            m |= bits.setdefault(v, 1 << len(bits))
        return m

    descs = [index.descriptors[m] for m in members]
    keys = [mask(d.distinguishing_key_information) for d in descs]
    need_shared = alignment != ALIGN_SUBCATEGORY
    concepts = [mask(d.core_concepts) for d in descs] if need_shared else []
    out = []
    for i in range(len(members) - 1):
        left, ki = members[i], keys[i]
        for j in range(i + 1, len(members)):
            kj = keys[j]
            n_diff = (ki ^ kj).bit_count()
            if n_diff == 0 or (need_shared and not concepts[i] & concepts[j]):
                continue
            score = n_diff / (ki | kj).bit_count()
            if score >= min_contrast:
                out.append((-score, left, members[j], alignment))
    return out


def _candidate(index: DescriptorIndex, neg_score: float, left: str, right: str,
               alignment: str) -> PairCandidate:
    dl, dr = index.descriptors[left], index.descriptors[right]
    shared = tuple(sorted(set(dl.core_concepts) & set(dr.core_concepts)))
    differing = tuple(sorted(
        set(dl.distinguishing_key_information) ^ set(dr.distinguishing_key_information)))
    return PairCandidate(left, right, alignment, shared, differing, -neg_score)


def propose_pairs(index: DescriptorIndex,
                  max_per_image: int | float | None = DEFAULT_MAX_PER_IMAGE,
                  min_contrast: float = DEFAULT_MIN_CONTRAST) -> list[PairCandidate]:
    """Propose aligned, contrasting pairs.

    Subcategory buckets pair internally; images whose subcategory bucket is
    a singleton fall back to domain-bucket pairing with other singletons.
    Candidates need a non-empty key difference, a concept overlap unless
    subcategory-aligned, and a contrast score of at least ``min_contrast``.
    Per image at most ``max_per_image`` pairs survive, best score first
    (``None`` means unlimited). Output is sorted by pair id.
    """
    if max_per_image is not None and max_per_image != math.inf and max_per_image < 1:
        raise ValueError("max_per_image must be >= 1")
    if not 0 <= min_contrast <= 1:
        raise ValueError("min_contrast must be within [0, 1]")

    # Each image lies in one subcategory bucket, and the domain buckets pair
    # only subcategory loners, so no pair is scored twice.
    scored: list[tuple[float, str, str, str]] = []
    for bucket in index.by_subcategory.values():
        if len(bucket) > 1:
            scored.extend(_bucket_pairs(index, bucket, ALIGN_SUBCATEGORY, min_contrast))

    singles = {m for bucket in index.by_subcategory.values() if len(bucket) == 1
               for m in bucket}
    for bucket in index.by_domain.values():
        loners = [m for m in bucket if m in singles]
        if len(loners) > 1:
            scored.extend(_bucket_pairs(index, loners, ALIGN_DOMAIN, min_contrast))

    if max_per_image is not None and max_per_image != math.inf:
        scored.sort()  # (-score, pair id): pair ids are unique
        load: dict[str, int] = {}
        kept = []
        for t in scored:
            left, right = t[1], t[2]
            if load.get(left, 0) < max_per_image and load.get(right, 0) < max_per_image:
                kept.append(t)
                load[left] = load.get(left, 0) + 1
                load[right] = load.get(right, 0) + 1
        scored = kept

    scored.sort(key=lambda t: (t[1], t[2]))
    return [_candidate(index, *t) for t in scored]


_FILTER_REASK = ('\nAnswer with a single line starting with "PASS:" or "FAIL:".')


def _parse_verdict(candidate: PairCandidate, text: str) -> PairVerdict | None:
    lines = text.strip().splitlines() or [""]
    first = lines[0].strip()
    if first.startswith("PASS"):
        passed = True
    elif first.startswith("FAIL"):
        passed = False
    else:
        return None
    rationale = first[4:].lstrip(" :").strip()
    if not rationale:
        rationale = " ".join(ln.strip() for ln in lines[1:] if ln.strip()) or "unspecified"
    return PairVerdict(candidate, passed, rationale)


def filter_pair(candidate: PairCandidate, left: SemanticDescriptor,
                right: SemanticDescriptor, gateway: Gateway,
                uris: tuple[str, str] | None = None) -> PairVerdict:
    """Ask the filter model to pass or fail one candidate pair."""
    request = LlmRequest(
        template_id="pair_filter",
        bindings={"left": f"{left.image_id}: {left.summary()}",
                  "right": f"{right.image_id}: {right.summary()}"},
        image_uris=uris or (candidate.left_id, candidate.right_id),
    )
    verdict = _parse_verdict(candidate, gateway.complete(request))
    if verdict is not None:
        return verdict
    verdict = _parse_verdict(candidate, gateway.reask(request, _FILTER_REASK))
    if verdict is not None:
        return verdict
    raise MalformedOutput(
        f"pair {candidate.left_id}/{candidate.right_id}: filter did not answer PASS or FAIL")


def select_pairs(verdicts: Iterable[PairVerdict]) -> list[PairCandidate]:
    """Passing candidates only, deduplicated, input order preserved."""
    seen: set[tuple[str, str]] = set()
    out = []
    for v in verdicts:
        if v.passed and v.candidate.pair_id not in seen:
            seen.add(v.candidate.pair_id)
            out.append(v.candidate)
    return out


# --- JSONL persistence -----------------------------------------------------

def candidate_to_obj(c: PairCandidate) -> dict:
    return {
        "left_id": c.left_id,
        "right_id": c.right_id,
        "alignment_level": c.alignment_level,
        "shared_concepts": list(c.shared_concepts),
        "differing_keys": list(c.differing_keys),
        "contrast_score": c.contrast_score,
    }


def candidate_from_obj(obj: dict) -> PairCandidate:
    return PairCandidate(
        left_id=obj["left_id"],
        right_id=obj["right_id"],
        alignment_level=obj["alignment_level"],
        shared_concepts=tuple(obj["shared_concepts"]),
        differing_keys=tuple(obj["differing_keys"]),
        contrast_score=float(obj["contrast_score"]),
    )


def write_candidates(candidates: Iterable[PairCandidate], path: str | Path) -> int:
    lines = [json.dumps(candidate_to_obj(c), ensure_ascii=False, separators=(",", ":")) + "\n"
             for c in candidates]
    publish(path, lines)
    return len(lines)


def read_candidates(path: str | Path) -> Iterator[PairCandidate]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield candidate_from_obj(json.loads(line))


def verdict_to_obj(v: PairVerdict) -> dict:
    return {"candidate": candidate_to_obj(v.candidate), "pass": v.passed,
            "rationale": v.rationale}


def verdict_from_obj(obj: dict) -> PairVerdict:
    return PairVerdict(candidate_from_obj(obj["candidate"]), bool(obj["pass"]),
                       str(obj["rationale"]))


def read_verdicts(path: str | Path) -> Iterator[PairVerdict]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield verdict_from_obj(json.loads(line))
