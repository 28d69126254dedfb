"""Image pair mining: index, candidate proposal, semantic filter, selection.

Candidates must share a coarse category (same subcategory bucket, or same
domain bucket for images with no subcategory partner) while differing in
distinguishing details. An LLM filter then keeps only pairs whose
relationship is coherent enough to explain simply.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from kforge.annotation import SemanticDescriptor
from kforge.corpus import json_line, publish, read_jsonl
from kforge.errors import DuplicateImageId
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


def _bucket_candidates(index: DescriptorIndex, members: list[str], alignment: str,
                       max_per_image: int | None,
                       min_contrast: float) -> list[tuple[float, str, str, str]]:
    """The bucket's capped pairs as ``(-score, left, right, alignment)``.

    Greedy b-matching, computed lazily. Row *i* holds the pairs (*i*, *j* > *i*)
    best first, in ``(-score, j)`` order, at most ``2 * cap + 2`` at a time;
    a heap merges the row heads in the global ``(-score, left, right)`` order,
    and a popped pair is kept while both images hold fewer than ``cap`` pairs.
    A score is at most 1.0, so row *r* is filled only once the heap top
    scores below 1.0: until then every row before *r* holds a pair ahead of
    all of row *r*'s. A fill skips full partners and stops once its buffer
    holds only 1.0s; an emptied buffer is refilled from after its last
    entry. A row whose image is full is dropped. Memory is linear in the
    bucket. Keys and concepts become int bitmasks over the bucket's own
    vocabulary, so each set operation is one int operation plus
    ``int.bit_count``.
    """
    bits: dict[str, int] = {}

    def mask(values: tuple[str, ...]) -> int:
        m = 0
        for v in values:
            m |= bits.setdefault(v, 1 << len(bits))
        return m

    n = len(members)
    descs = [index.descriptors[m] for m in members]
    keys = [mask(d.distinguishing_key_information) for d in descs]
    need_shared = alignment != ALIGN_SUBCATEGORY
    concepts = [mask(d.core_concepts) for d in descs] if need_shared else []
    cap = n if max_per_image is None else max_per_image  # n: no image fills up
    width = 2 * cap + 2
    load = [0] * n

    def fill(i: int, after_score: float,
             after_j: int) -> tuple[list[tuple[float, int]], bool]:
        """Row *i*'s best ``width`` entries after ``(-after_score, after_j)``,
        worst first, and whether the row may hold more."""
        ki = keys[i]
        ci = concepts[i] if need_shared else 0
        found = []
        ones = 0
        cut = False
        for j in range(i + 1, n):
            if load[j] >= cap:
                continue
            kj = keys[j]
            n_diff = (ki ^ kj).bit_count()
            if n_diff == 0 or (need_shared and not ci & concepts[j]):
                continue
            score = n_diff / (ki | kj).bit_count()
            if score < min_contrast or score > after_score or (
                    score == after_score and j <= after_j):
                continue
            found.append((-score, j))
            if score == 1.0:
                ones += 1
                if ones == width:  # no later entry of this row sorts before these
                    cut = True
                    break
        found.sort(reverse=True)
        return found[-width:], cut or len(found) > width

    heap: list[tuple[float, int, int, list[tuple[float, int]], bool]] = []

    def push_next(i: int, buf: list[tuple[float, int]], more: bool,
                  neg_score: float, j: int) -> None:
        """Put row *i*'s next live entry after ``(neg_score, j)`` on the heap."""
        while load[i] < cap:
            while buf:
                neg_score, j = buf.pop()
                if load[j] < cap:
                    # one head per row: the tuple order never reaches buf
                    heapq.heappush(heap, (neg_score, i, j, buf, more))
                    return
            if not more:
                return
            buf, more = fill(i, -neg_score, j)

    kept = []
    filled = 0
    while True:
        while filled < n and (not heap or heap[0][0] > -1.0):
            push_next(filled, [], True, -2.0, n)  # -2.0: before every entry
            filled += 1
        if not heap:
            return kept
        neg_score, i, j, buf, more = heapq.heappop(heap)
        if load[i] < cap and load[j] < cap:
            load[i] += 1
            load[j] += 1
            kept.append((neg_score, members[i], members[j], alignment))
        push_next(i, buf, more, neg_score, j)


def _candidate(index: DescriptorIndex, neg_score: float, left: str, right: str,
               alignment: str) -> PairCandidate:
    dl, dr = index.descriptors[left], index.descriptors[right]
    shared = tuple(sorted(set(dl.core_concepts) & set(dr.core_concepts)))
    differing = tuple(sorted(
        set(dl.distinguishing_key_information) ^ set(dr.distinguishing_key_information)))
    return PairCandidate(left, right, alignment, shared, differing, -neg_score)


def propose_pairs(index: DescriptorIndex,
                  max_per_image: int | None = DEFAULT_MAX_PER_IMAGE,
                  min_contrast: float = DEFAULT_MIN_CONTRAST) -> list[PairCandidate]:
    """Propose aligned, contrasting pairs.

    Subcategory buckets pair internally; images whose subcategory bucket is
    a singleton fall back to domain-bucket pairing with other singletons.
    Candidates need a non-empty key difference, a concept overlap unless
    subcategory-aligned, and a contrast score of at least ``min_contrast``.
    Per image at most ``max_per_image`` pairs survive (``None`` means
    unlimited). The cap is exact greedy: within a bucket, pairs are taken in
    ``(-score, pair id)`` order and kept while both images hold fewer than
    ``max_per_image``. It is computed lazily, scoring an image's partners
    only while the image can still place a pair, so memory is linear in the
    bucket. Output is sorted by pair id.
    """
    if max_per_image is not None and max_per_image < 1:
        raise ValueError("max_per_image must be >= 1")
    if not 0 <= min_contrast <= 1:
        raise ValueError("min_contrast must be within [0, 1]")

    # Each image lies in one subcategory bucket, and the domain buckets pair
    # only subcategory loners, so no pair is scored twice and the per-image
    # cap can run one bucket at a time: no decision depends on another bucket.
    buckets = [(bucket, ALIGN_SUBCATEGORY)
               for bucket in index.by_subcategory.values() if len(bucket) > 1]
    singles = {m for bucket in index.by_subcategory.values() if len(bucket) == 1
               for m in bucket}
    for bucket in index.by_domain.values():
        loners = [m for m in bucket if m in singles]
        if len(loners) > 1:
            buckets.append((loners, ALIGN_DOMAIN))

    kept: list[tuple[float, str, str, str]] = []
    for members, alignment in buckets:
        kept.extend(_bucket_candidates(index, members, alignment, max_per_image,
                                       min_contrast))
    kept.sort(key=lambda t: (t[1], t[2]))
    return [_candidate(index, *t) for t in kept]


def filter_pair(candidate: PairCandidate, left: SemanticDescriptor,
                right: SemanticDescriptor, gateway: Gateway,
                uris: tuple[str, str]) -> PairVerdict:
    """Ask the filter model to pass or fail one candidate pair, shown the
    images at ``uris`` (left, right)."""
    request = LlmRequest(
        template_id="pair_filter",
        bindings={"left": f"{left.image_id}: {left.summary()}",
                  "right": f"{right.image_id}: {right.summary()}"},
        image_uris=uris,
    )
    return PairVerdict(candidate, *gateway.complete(request))


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
    lines = [json_line(candidate_to_obj(c)) + "\n" for c in candidates]
    publish(path, lines)
    return len(lines)


def read_candidates(path: str | Path) -> Iterator[PairCandidate]:
    return read_jsonl(path, candidate_from_obj)


def verdict_to_obj(v: PairVerdict) -> dict:
    return {"candidate": candidate_to_obj(v.candidate), "pass": v.passed,
            "rationale": v.rationale}


def verdict_from_obj(obj: dict) -> PairVerdict:
    return PairVerdict(candidate_from_obj(obj["candidate"]), bool(obj["pass"]),
                       str(obj["rationale"]))
