"""Reproducible training-mixture planning, sampling, and verification.

A mixture spec names category proportions, a unit (samples or tokens), a
budget, a seed, and the source pools feeding each category. Planning uses
largest-remainder apportionment so targets always sum to the budget;
sampling is a seeded shuffle per category interleaved by a seeded weighted
round-robin, without replacement. Each interleave draw equals
``random.choices`` over the sorted categories weighted by their remaining
counts. Pool records arrive as validated lines with their token estimates
(``corpus.read_shard``). Sampling returns each drawn record with its
category, and ``publish_mixture`` writes its line with the category and
spec name stamped into ``meta``: a plain pool line (``corpus.Record``)
takes the stamp, encoded once per category, in place of its empty
``meta``; any other record is decoded once and re-encoded.
"""
from __future__ import annotations

import json
import math
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterable

from kforge.corpus import Record, estimate_tokens, publish, stamped_line
from kforge.errors import AllPoolsEmpty, PoolRecordMissing, SpecInvalid

UNIT_SAMPLES = "samples"
UNIT_TOKENS = "tokens"

VERIFY_TOLERANCE = {UNIT_SAMPLES: 0.005, UNIT_TOKENS: 0.01}

CATEGORY_META_KEY = "mixture_category"
SPEC_META_KEY = "mixture_spec"

# a mixture spec reference naming a builtin; any other reference is a spec file
BUILTIN_PREFIX = "builtin:"


@dataclass(frozen=True)
class MixtureSpec:
    """Category proportions, unit, budget, seed and each category's pools."""
    name: str
    proportions: dict[str, float]
    unit: str
    budget: int
    seed: int
    pool_bindings: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class MixturePlan:
    spec: MixtureSpec
    targets: dict[str, int]
    achieved: dict[str, int]
    shortfalls: dict[str, int]


def validate_spec(spec: MixtureSpec) -> MixtureSpec:
    if not spec.name:
        raise SpecInvalid("spec needs a name")
    if spec.unit not in (UNIT_SAMPLES, UNIT_TOKENS):
        raise SpecInvalid(f"unknown unit {spec.unit!r}")
    if spec.budget <= 0:
        raise SpecInvalid("budget must be positive")
    if not spec.proportions:
        raise SpecInvalid("no categories declared")
    for category, fraction in spec.proportions.items():
        if not 0.0 <= fraction <= 1.0:
            raise SpecInvalid(f"fraction for {category} outside [0, 1]")
        if fraction > 0 and not spec.pool_bindings.get(category):
            raise SpecInvalid(f"category {category} has weight but no pool binding")
    total = sum(spec.proportions.values())
    if abs(total - 1.0) > 1e-9:
        raise SpecInvalid(f"fractions sum to {total!r}, not 1.0")
    return spec


def spec_from_obj(obj: dict) -> MixtureSpec:
    try:
        spec = MixtureSpec(
            name=str(obj["name"]),
            proportions={str(k): float(v) for k, v in obj["proportions"].items()},
            unit=str(obj["unit"]),
            budget=int(obj["budget"]),
            seed=int(obj["seed"]),
            pool_bindings={str(k): tuple(v) for k, v in obj.get("pool_bindings", {}).items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecInvalid(f"bad mixture spec: {exc}") from exc
    return validate_spec(spec)


def load_spec(path: str | Path) -> MixtureSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SpecInvalid(f"cannot read mixture spec {path}: {exc}") from exc
    return spec_from_obj(obj)


_BUILTIN_TABLE: dict[str, tuple[dict[str, float], dict[str, tuple[str, ...]]]] = {
    # original caption and VQA supervision
    "baseline": (
        {"caption": 0.28, "vqa": 0.17, "pure_text": 0.40, "other": 0.15},
        {"caption": ("caption0",), "vqa": ("vqa0",), "pure_text": ("pure_text",),
         "other": ("other",)},
    ),
    # VQA supervision replaced by generated captions over the same images
    "caption_only": (
        {"caption": 0.45, "vqa": 0.0, "pure_text": 0.40, "other": 0.15},
        {"caption": ("caption0", "caption1"), "pure_text": ("pure_text",),
         "other": ("other",)},
    ),
    # VQA supervision reconstructed from generated captions
    "synthetic_vqa": (
        {"caption": 0.28, "vqa": 0.17, "pure_text": 0.40, "other": 0.15},
        {"caption": ("caption0",), "vqa": ("vqa1",), "pure_text": ("pure_text",),
         "other": ("other",)},
    ),
    # paired captions replace the caption and VQA shares (merged 45% block)
    "pair_caption_v1": (
        {"pair_caption": 0.45, "pure_text": 0.40, "other": 0.15},
        {"pair_caption": ("pair_caption",), "pure_text": ("pure_text",),
         "other": ("other",)},
    ),
    # interleaved documents replace the caption and VQA shares (merged 45% block)
    "interleaved_cfg": (
        {"interleaved": 0.45, "pure_text": 0.40, "other": 0.15},
        {"interleaved": ("interleaved",), "pure_text": ("pure_text",),
         "other": ("other",)},
    ),
    # paired captions replace the caption share; original VQA kept
    "pair_caption_v2": (
        {"caption": 0.28, "vqa": 0.17, "pure_text": 0.40, "other": 0.15},
        {"caption": ("pair_caption",), "vqa": ("vqa0",), "pure_text": ("pure_text",),
         "other": ("other",)},
    ),
}

BUILTIN_NAMES = tuple(_BUILTIN_TABLE)


def builtin_spec(name: str, budget: int, seed: int, unit: str = UNIT_SAMPLES) -> MixtureSpec:
    """One of the shipped mixture configurations, parameterized by budget and seed."""
    if name not in _BUILTIN_TABLE:
        raise SpecInvalid(f"unknown builtin mixture {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    proportions, bindings = _BUILTIN_TABLE[name]
    return validate_spec(MixtureSpec(
        name=name, proportions=dict(proportions), unit=unit, budget=budget,
        seed=seed, pool_bindings=dict(bindings)))


def largest_remainder(budget: int, fractions: dict[str, float]) -> dict[str, int]:
    """Integer apportionment that conserves the budget exactly.

    Floors each share, then hands out the leftover units by largest
    fractional remainder; ties go to the lexicographically first category.
    Fractions whose float sum misses 1 can leave more units than categories,
    which go round the order again, or floors above the budget, which give
    units back from the smallest remainder up, never below zero.
    """
    raw = {c: budget * f for c, f in fractions.items()}
    out = {c: int(math.floor(v)) for c, v in raw.items()}
    leftover = budget - sum(out.values())
    order = sorted(fractions, key=lambda c: (-(raw[c] - out[c]), c))
    while order and leftover > 0:
        for c in order[:leftover]:
            out[c] += 1
        leftover -= min(leftover, len(order))
    while leftover < 0:
        for c in reversed(order):
            if leftover < 0 and out[c] > 0:
                out[c] -= 1
                leftover += 1
    return out


def plan_mixture(spec: MixtureSpec, pool_sizes: dict[str, int],
                 rebalance: bool = False) -> MixturePlan:
    """Resolve per-category targets against the available pools.

    Shortfalls are recorded, never silently rebalanced; with ``rebalance``
    the deficit is redistributed proportionally among categories that still
    have headroom.
    """
    validate_spec(spec)
    available = {c: int(pool_sizes.get(c, 0)) for c in spec.proportions}
    if all(v == 0 for v in available.values()):
        raise AllPoolsEmpty("every bound pool is empty")

    targets = largest_remainder(spec.budget, spec.proportions)
    if rebalance:
        for _ in range(len(targets)):
            deficit = sum(max(0, targets[c] - available[c]) for c in targets)
            if deficit == 0:
                break
            for c in targets:
                if targets[c] > available[c]:
                    targets[c] = available[c]
            recipients = {c: spec.proportions[c] for c in targets
                          if targets[c] < available[c] and spec.proportions[c] > 0}
            if not recipients:
                break
            weight_sum = sum(recipients.values())
            extra = largest_remainder(deficit, {c: w / weight_sum
                                                for c, w in recipients.items()})
            for c, add in extra.items():
                targets[c] += add

    achieved = {c: min(targets[c], available[c]) for c in targets}
    shortfalls = {c: targets[c] - achieved[c] for c in targets if targets[c] > achieved[c]}
    return MixturePlan(spec=spec, targets=targets, achieved=achieved, shortfalls=shortfalls)


def resolve_pools(records: Iterable[Record], spec: MixtureSpec) -> dict[str, list[Record]]:
    """Group records into the spec's categories via their source labels."""
    by_source: dict[str, list[Record]] = {}
    for r in records:
        by_source.setdefault(r.source, []).append(r)
    return {category: [r for source in sources for r in by_source.get(source, ())]
            for category, sources in spec.pool_bindings.items()}


def pool_sizes(pools: dict[str, list[Record]], unit: str) -> dict[str, int]:
    if unit == UNIT_TOKENS:
        return {c: sum(estimate_tokens(r) for r in rows) for c, rows in pools.items()}
    return {c: len(rows) for c, rows in pools.items()}


def sample_mixture(plan: MixturePlan,
                   pools: dict[str, list[Record]]) -> list[tuple[str, Record]]:
    """Draw the planned mixture, deterministically and without replacement.

    Returns (category, pool record) pairs in draw order.

    Per category the pool's record ids are shuffled with a seed keyed by
    (spec seed, category) and taken until the quota is met; in token units
    the last record may overshoot the target by at most one record. The
    categories are then interleaved by a seeded round-robin weighted by the
    remaining counts, with the ``random()`` and bisect of ``random.choices``.
    """
    spec = plan.spec
    taken: dict[str, list[tuple[str, Record]]] = {}
    used_ids: set[str] = set()

    for category in sorted(c for c, amount in plan.achieved.items() if amount > 0):
        rows = pools.get(category)
        if not rows:
            raise PoolRecordMissing(f"no pool records for category {category}")
        by_id = {r.id: r for r in reversed(rows)}  # the first record of each id
        ids = sorted(by_id)
        random.Random(f"{spec.seed}:{category}").shuffle(ids)

        quota = plan.achieved[category]
        picked: list[tuple[str, Record]] = []
        amount = 0
        for record_id in ids:
            if amount >= quota:
                break
            if record_id in used_ids:
                continue
            record = by_id[record_id]
            amount += estimate_tokens(record) if spec.unit == UNIT_TOKENS else 1
            picked.append((category, record))
            used_ids.add(record_id)
        if amount < quota:
            raise PoolRecordMissing(
                f"pool for {category} holds {amount} {spec.unit}, plan needs {quota}")
        taken[category] = picked

    draw = random.Random(f"{spec.seed}:interleave").random
    queues = [iter(taken[c]) for c in sorted(taken) if taken[c]]
    counts = [len(taken[c]) for c in sorted(taken) if taken[c]]
    out: list[tuple[str, Record]] = []
    while counts:
        cum = list(accumulate(counts))
        i = bisect(cum, draw() * (cum[-1] + 0.0), 0, len(cum) - 1)
        out.append(next(queues[i]))
        counts[i] -= 1
        if not counts[i]:
            del queues[i], counts[i]
    return out


def verify_mixture(sampled: Iterable[tuple[str, Record]], spec: MixtureSpec) -> dict:
    """Measure realized proportions against the declared ones, over the
    (category, record) pairs that ``sample_mixture`` returns.

    Returns a report document; ``pass`` is false when the measurement
    deviates beyond the unit's ``VERIFY_TOLERANCE`` or the shard set is empty.
    """
    tolerance = VERIFY_TOLERANCE[spec.unit]
    amounts: dict[str, int] = {c: 0 for c in spec.proportions}
    total = 0
    for category, r in sampled:
        amount = estimate_tokens(r) if spec.unit == UNIT_TOKENS else 1
        amounts[category] = amounts.get(category, 0) + amount
        total += amount

    # every declared category, then any other category that was drawn
    measured = {c: (amount / total if total else 0.0) for c, amount in amounts.items()
                if amount or c in spec.proportions}
    errors = {c: abs(measured.get(c, 0.0) - spec.proportions.get(c, 0.0))
              for c in set(measured) | set(spec.proportions)}
    max_abs_error = max(errors.values()) if errors else 0.0
    return {
        "spec": spec.name,
        "unit": spec.unit,
        "declared": dict(spec.proportions),
        "measured": measured,
        "max_abs_error": max_abs_error,
        "tolerance": tolerance,
        "pass": bool(total) and max_abs_error <= tolerance,
    }


def publish_mixture(out_dir: str | Path, plan: MixturePlan,
                    sampled: list[tuple[str, Record]]) -> dict:
    """Publish ``mixture.jsonl``, ``mixture_plan.json`` and ``mixture_verify.json``.

    Each file goes through ``corpus.publish``. Returns the verify document.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = plan.spec
    lines = {category: stamped_line({CATEGORY_META_KEY: category, SPEC_META_KEY: spec.name})
             for category in {category for category, _ in sampled}}
    publish(out_dir / "mixture.jsonl", (lines[category](r) for category, r in sampled))
    publish(out_dir / "mixture_plan.json", [json.dumps({
        "spec": spec.name, "unit": spec.unit, "budget": spec.budget,
        "targets": plan.targets, "achieved": plan.achieved,
        "shortfalls": plan.shortfalls}, sort_keys=True, indent=2)])
    verify = verify_mixture(sampled, spec)
    publish(out_dir / "mixture_verify.json", [json.dumps(verify, sort_keys=True, indent=2)])
    return verify


def build_mixture(records: Iterable[Record], spec: MixtureSpec, out_dir: str | Path,
                  rebalance: bool = False) -> tuple[list[tuple[str, Record]], dict]:
    """Resolve, plan, sample and publish a mixture; returns (sampled, verify doc)."""
    pools = resolve_pools(records, spec)
    plan = plan_mixture(spec, pool_sizes(pools, spec.unit), rebalance=rebalance)
    sampled = sample_mixture(plan, pools)
    return sampled, publish_mixture(out_dir, plan, sampled)
