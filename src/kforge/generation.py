"""Text synthesis stages: captions, joint pair captions, interleaved
descriptions, and caption-to-VQA reconstruction with structural checks.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from kforge.annotation import SemanticDescriptor
from kforge.corpus import (KIND_CAPTION, KIND_INTERLEAVED, KIND_PAIR_CAPTION,
                           KIND_VQA, Record, validate_record)
from kforge.errors import (FilterNotPassed, GroundingFailure, PolicyViolation,
                           SchemaMismatch, ValidationError)
from kforge.gateway import Gateway, LlmRequest
from kforge.pairing import ALIGN_SUBCATEGORY, PairCandidate, PairVerdict
from kforge.textnorm import canonicalize, content_words, tokenize


@dataclass(frozen=True)
class VqaValidationPolicy:
    """Limits a synthesized VQA set must meet; ``validate_config`` checks them."""

    min_items: int = 5
    max_items: int = 15
    min_global: int = 1
    detail_to_global_min_ratio: float = 2.0
    grounding_min_overlap: float = 0.5


def make_child_id(prefix: str, *parts: str) -> str:
    """Derived record id; falls back to a digest when the joined form is too long."""
    joined = f"{prefix}-{'-'.join(parts)}"
    if len(joined) <= 128:
        return joined
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:24]
    return f"{prefix}-{digest}"


def generate_caption(image_id: str, image_uri: str, gateway: Gateway) -> Record:
    """Single-image caption; the generated-caption branch for unpaired images."""
    request = LlmRequest(
        template_id="single_caption",
        bindings={"image": f"{image_id} {image_uri}"},
        image_uris=(image_uri,),
    )
    text = gateway.complete(request)
    record = Record(
        id=make_child_id("cap1", image_id),
        kind=KIND_CAPTION,
        image_uris=(image_uri,),
        payload={"caption": text},
        source="caption1",
        meta={"image_id": image_id},
    )
    return validate_record(record)


def generate_pair_caption(pair: PairCandidate,
                          left: tuple[str, SemanticDescriptor],
                          right: tuple[str, SemanticDescriptor],
                          gateway: Gateway,
                          verdict: PairVerdict | None = None) -> Record:
    """Joint caption for a filter-passed pair.

    ``left``/``right`` are ``(image_uri, descriptor)``. ``verdict`` is the
    filter decision for this pair and must be a pass; generating captions
    for unfiltered candidates is a precondition violation.
    """
    if verdict is None or verdict.candidate.pair_id != pair.pair_id:
        raise FilterNotPassed(
            f"pair {pair.left_id}/{pair.right_id} has no filter verdict")
    if not verdict.passed:
        raise FilterNotPassed(
            f"pair {pair.left_id}/{pair.right_id} failed the semantic filter")

    left_uri, left_desc = left
    right_uri, right_desc = right
    if pair.alignment_level == ALIGN_SUBCATEGORY:
        bucket_label = canonicalize(left_desc.semantic_subcategory)
    else:
        bucket_label = canonicalize(left_desc.domain_direction)
    shared = ", ".join(pair.shared_concepts) or bucket_label
    differing = ", ".join(pair.differing_keys) or "their distinguishing details"

    request = LlmRequest(
        template_id="pair_caption",
        bindings={
            "left": f"{pair.left_id}: {left_desc.summary()}",
            "right": f"{pair.right_id}: {right_desc.summary()}",
            "shared": shared,
            "differing": differing,
        },
        image_uris=(left_uri, right_uri),
    )
    text = gateway.complete(request)
    record = Record(
        id=make_child_id("pairc", pair.left_id, pair.right_id),
        kind=KIND_PAIR_CAPTION,
        image_uris=(left_uri, right_uri),
        payload={"caption": text},
        source="pair_caption",
        meta={
            "left_id": pair.left_id,
            "right_id": pair.right_id,
            "alignment_level": pair.alignment_level,
            "contrast_score": f"{pair.contrast_score:.6f}",
        },
    )
    return validate_record(record)


# --- interleaved descriptions ----------------------------------------------

@dataclass(frozen=True)
class GroupMember:
    image_id: str
    image_uri: str
    descriptor: SemanticDescriptor


def group_for_interleave(selected: list[PairCandidate],
                         descriptors: dict[str, SemanticDescriptor],
                         min_size: int = 3, max_size: int = 5,
                         seed: int = 0) -> list[list[str]]:
    """Greedily group filter-passed pair members sharing a domain bucket.

    Group sizes stay within [min_size, max_size]; leftovers smaller than
    min_size are dropped. Ordering is fully determined by the seed.
    """
    if not 2 <= min_size <= max_size:
        raise ValueError("require 2 <= min_size <= max_size")
    members: list[str] = []
    seen: set[str] = set()
    for pair in selected:
        for image_id in pair.pair_id:
            if image_id not in seen:
                seen.add(image_id)
                members.append(image_id)

    by_domain: dict[str, list[str]] = {}
    for image_id in members:
        d = descriptors.get(image_id)
        if d is None:
            continue
        by_domain.setdefault(canonicalize(d.domain_direction), []).append(image_id)

    groups: list[list[str]] = []
    for domain in sorted(by_domain):
        ids = sorted(by_domain[domain])
        random.Random(f"{seed}:{domain}").shuffle(ids)
        i = 0
        while len(ids) - i >= min_size:
            rem = len(ids) - i
            if rem <= max_size:
                take = rem
            elif rem - max_size < min_size <= rem - min_size:
                take = rem - min_size  # leaves one last group of min_size
            else:
                take = max_size  # a rest below min_size is dropped
            groups.append(ids[i:i + take])
            i += take
    return groups


def generate_interleaved(group: list[GroupMember], gateway: Gateway) -> Record:
    """Long-form description integrating three or more domain-related images."""
    if len(group) < 3:
        raise ValidationError("group", f"interleaved groups need >= 3 images, got {len(group)}")
    domains = {canonicalize(m.descriptor.domain_direction) for m in group}
    if len(domains) != 1:
        raise ValidationError("group", "all group members must share a domain bucket")

    listing = "\n".join(
        f"Image {k}: {m.image_id}: {m.descriptor.summary()}"
        for k, m in enumerate(group, start=1))
    request = LlmRequest(
        template_id="interleave",
        bindings={"group": listing},
        image_uris=tuple(m.image_uri for m in group),
    )
    text = gateway.complete(request)

    record = Record(
        id=make_child_id("ilv", *(m.image_id for m in group)),
        kind=KIND_INTERLEAVED,
        image_uris=tuple(m.image_uri for m in group),
        payload={"text": text},
        source="interleaved",
        meta={
            "domain": next(iter(domains)),
            "members": ",".join(m.image_id for m in group),
        },
    )
    return validate_record(record)


# --- VQA reconstruction ----------------------------------------------------

def _is_global_question(question: str) -> bool:
    q = question.lower()
    return "overall" in q or (q.startswith("what kind of") and "show" in q)


def classify_scopes(items: list[tuple[str, str]], caption: str) -> list[str]:
    """Label each (question, answer) as global or detail.

    The first answer long enough to read as a condensed caption (at least
    30% of the caption length) is global; everything else is classified by
    the question-prefix heuristic.
    """
    threshold = 0.3 * len(caption)
    scopes = []
    length_slot_taken = False
    for question, answer in items:
        if not length_slot_taken and len(answer) >= threshold:
            scopes.append("global")
            length_slot_taken = True
        elif _is_global_question(question):
            scopes.append("global")
        else:
            scopes.append("detail")
    return scopes


def grounding_fraction(answer: str, caption_vocab: set[str]) -> float:
    """Fraction of the answer's content words present in the caption."""
    words = content_words(answer)
    if not words:
        return 1.0
    return sum(1 for w in words if w in caption_vocab) / len(words)


def synthesize_vqa(caption_record: Record, policy: VqaValidationPolicy,
                   gateway: Gateway) -> Record:
    """Reconstruct VQA supervision from a single-image caption record.

    Runs the caption-to-VQA prompt, classifies scopes, enforces the policy
    (item count, global minimum, detail/global ratio), and drops detail
    items whose answers are not grounded in the caption. If the drops push
    the set under ``min_items`` the record fails.
    """
    if caption_record.kind != KIND_CAPTION:
        raise ValidationError("kind", f"cannot synthesize VQA from kind {caption_record.kind}")
    caption = caption_record.payload["caption"]
    if not caption.strip():
        raise ValidationError("payload", "caption is empty")

    request = LlmRequest(template_id="caption_to_vqa", bindings={"cap": caption})
    raw_items = gateway.complete(request)

    items: list[tuple[str, str]] = []
    for raw in raw_items:
        if not isinstance(raw, dict):
            raise SchemaMismatch("qa", "items must be objects")
        question = raw.get("question")
        answer = raw.get("answer")
        if not isinstance(question, str) or not question.strip():
            raise SchemaMismatch("question")
        if not isinstance(answer, str) or not answer.strip():
            raise SchemaMismatch("answer")
        items.append((question.strip(), answer.strip()))

    if not policy.min_items <= len(items) <= policy.max_items:
        raise PolicyViolation("count_out_of_range",
                              f"{len(items)} items outside [{policy.min_items}, {policy.max_items}]")
    scopes = classify_scopes(items, caption)
    n_global = scopes.count("global")
    n_detail = len(items) - n_global
    if n_global < policy.min_global:
        raise PolicyViolation("missing_global", f"{n_global} < {policy.min_global}")
    if n_detail < policy.detail_to_global_min_ratio * n_global:
        raise PolicyViolation("ratio",
                              f"{n_detail} detail vs {n_global} global breaks the minimum ratio")

    vocab = set(tokenize(caption))
    kept = []
    for (question, answer), scope in zip(items, scopes):
        if scope == "detail" and grounding_fraction(answer, vocab) < policy.grounding_min_overlap:
            continue
        kept.append({"question": question, "answer": answer, "scope": scope})

    if len(kept) < policy.min_items:
        raise GroundingFailure(
            f"grounding drops left {len(kept)} items, below the minimum of {policy.min_items}")
    n_global = sum(1 for item in kept if item["scope"] == "global")
    n_detail = len(kept) - n_global
    if n_detail < policy.detail_to_global_min_ratio * n_global:
        raise PolicyViolation("ratio", "grounding drops broke the detail/global ratio")

    record = Record(
        id=make_child_id("vqa1", caption_record.id),
        kind=KIND_VQA,
        image_uris=caption_record.image_uris,
        payload={"qa": kept},
        source="vqa1",
        meta={"caption_id": caption_record.id},
    )
    return validate_record(record)
