from __future__ import annotations

import random
from dataclasses import replace

import pytest

from kforge.corpus import Record, estimate_tokens, record_to_json
from kforge.errors import AllPoolsEmpty, PoolRecordMissing, SpecInvalid
from kforge.mixture import (BUILTIN_NAMES, MixtureSpec, builtin_spec,
                            largest_remainder, load_spec, plan_mixture,
                            pool_sizes, resolve_pools, sample_mixture,
                            spec_from_obj, validate_spec, verify_mixture)

from oracles import oracle_interleave


def _pool(source: str, n: int, text_len: int = 200) -> list[Record]:
    return [Record(id=f"{source}-{i:05d}", kind="pure_text", image_uris=(),
                   payload={"text": ("word " * (text_len // 5))[:text_len].strip() or "x"},
                   source=source, meta={})
            for i in range(n)]


def _simple_spec(unit="samples", budget=100, seed=7, fractions=None) -> MixtureSpec:
    fractions = fractions or {"caption": 0.5, "vqa": 0.5}
    bindings = {c: (c + "0",) for c, f in fractions.items() if f > 0}
    return validate_spec(MixtureSpec("test", fractions, unit, budget, seed, bindings))


# --- spec validation --------------------------------------------------------------

def test_fractions_must_sum_to_one():
    with pytest.raises(SpecInvalid):
        _simple_spec(fractions={"caption": 0.5, "vqa": 0.4})


def test_positive_fraction_needs_binding():
    with pytest.raises(SpecInvalid):
        validate_spec(MixtureSpec("t", {"caption": 1.0}, "samples", 10, 0, {}))


def test_zero_fraction_needs_no_binding():
    validate_spec(MixtureSpec("t", {"caption": 1.0, "vqa": 0.0}, "samples", 10, 0,
                              {"caption": ("caption0",)}))


@pytest.mark.parametrize("change, message", [
    ({"name": ""}, "spec needs a name"),
    ({"unit": "bytes"}, "unknown unit 'bytes'"),
    ({"budget": 0}, "budget must be positive"),
    ({"proportions": {}}, "no categories declared"),
    ({"proportions": {"caption": 1.5, "vqa": -0.5}}, "fraction for caption outside [0, 1]"),
], ids=["no-name", "unit", "budget", "no-categories", "fraction"])
def test_validate_spec_refusals(change, message):
    spec = MixtureSpec("t", {"caption": 0.5, "vqa": 0.5}, "samples", 10, 0,
                       {"caption": ("caption0",), "vqa": ("vqa0",)})
    with pytest.raises(SpecInvalid) as err:
        validate_spec(replace(spec, **change))
    assert str(err.value) == message


def test_spec_json_roundtrip(tmp_path):
    spec = builtin_spec("baseline", budget=1000, seed=3)
    path = tmp_path / "spec.json"
    path.write_text(__import__("json").dumps({
        "name": spec.name, "proportions": spec.proportions, "unit": spec.unit,
        "budget": spec.budget, "seed": spec.seed,
        "pool_bindings": {k: list(v) for k, v in spec.pool_bindings.items()},
    }), encoding="utf-8")
    assert load_spec(path) == spec


def test_builtin_proportions_sum_to_one():
    for name in BUILTIN_NAMES:
        spec = builtin_spec(name, budget=100, seed=0)
        assert sum(spec.proportions.values()) == pytest.approx(1.0, abs=1e-12)


def test_builtin_pool_bindings():
    assert builtin_spec("baseline", 10, 0).pool_bindings["vqa"] == ("vqa0",)
    assert builtin_spec("synthetic_vqa", 10, 0).pool_bindings["vqa"] == ("vqa1",)
    assert builtin_spec("caption_only", 10, 0).pool_bindings["caption"] == ("caption0", "caption1")
    assert builtin_spec("pair_caption_v2", 10, 0).pool_bindings["caption"] == ("pair_caption",)
    assert builtin_spec("pair_caption_v2", 10, 0).pool_bindings["vqa"] == ("vqa0",)
    assert "pair_caption" in builtin_spec("pair_caption_v1", 10, 0).proportions
    assert "interleaved" in builtin_spec("interleaved_cfg", 10, 0).proportions


# --- planning ----------------------------------------------------------------------

def test_largest_remainder_conserves_budget():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 6)
        weights = [rng.random() for _ in range(n)]
        fractions = {f"c{i}": w / sum(weights) for i, w in enumerate(weights)}
        budget = rng.randint(1, 10000)
        out = largest_remainder(budget, fractions)
        assert sum(out.values()) == budget


def test_largest_remainder_conserves_budget_when_fractions_miss_one():
    # validate_spec accepts fractions within 1e-9 of summing to 1; at a large
    # budget their floors can overshoot it, or leave more units than categories
    third = {"a": 0.3333333334, "b": 0.3333333333, "c": 0.3333333334}
    assert largest_remainder(10**10, third) == {
        "a": 3333333334, "b": 3333333333, "c": 3333333333}
    out = largest_remainder(10**11, {c: 0.3333333333 for c in "abc"})
    assert sum(out.values()) == 10**11
    rng = random.Random(9)
    for _ in range(500):
        n = rng.randint(1, 6)
        fractions = {f"c{i}": rng.random() for i in range(n)}
        total = sum(fractions.values())
        fractions = {c: min(1.0, max(0.0, f / total + rng.uniform(-4e-10, 4e-10) / n))
                     for c, f in fractions.items()}
        spec = MixtureSpec(name="s", proportions=fractions, unit="samples",
                           budget=rng.choice([7, 10**9, 10**10, 10**12, 10**13]), seed=0,
                           pool_bindings={c: ("p",) for c in fractions})
        try:
            validate_spec(spec)
        except SpecInvalid:
            continue
        out = largest_remainder(spec.budget, fractions)
        assert sum(out.values()) == spec.budget
        assert min(out.values()) >= 0


def test_largest_remainder_tie_break_lexicographic():
    assert largest_remainder(7, {"b": 0.5, "a": 0.5}) == {"a": 4, "b": 3}


def test_baseline_plan_exact():
    spec = builtin_spec("baseline", budget=100000, seed=1)
    plan = plan_mixture(spec, {c: 10**6 for c in spec.proportions})
    assert plan.targets == {"caption": 28000, "vqa": 17000,
                            "pure_text": 40000, "other": 15000}
    assert plan.shortfalls == {}


def test_shortfall_recorded_not_rebalanced():
    spec = builtin_spec("baseline", budget=100000, seed=1)
    plan = plan_mixture(spec, {"caption": 10**6, "vqa": 1000,
                               "pure_text": 10**6, "other": 10**6})
    assert plan.targets["vqa"] == 17000
    assert plan.achieved["vqa"] == 1000
    assert plan.shortfalls == {"vqa": 16000}


def test_rebalance_redistributes_proportionally():
    spec = builtin_spec("baseline", budget=100000, seed=1)
    plan = plan_mixture(spec, {"caption": 10**6, "vqa": 1000,
                               "pure_text": 10**6, "other": 10**6},
                        rebalance=True)
    assert plan.achieved["vqa"] == 1000
    assert sum(plan.targets.values()) == 100000
    assert plan.shortfalls == {}
    # the 16000 deficit spreads over caption/pure_text/other by weight
    assert plan.targets["caption"] > 28000
    assert plan.targets["pure_text"] > 40000


def test_all_pools_empty():
    spec = _simple_spec()
    with pytest.raises(AllPoolsEmpty):
        plan_mixture(spec, {"caption": 0, "vqa": 0})


# --- sampling ----------------------------------------------------------------------

def _pools_for(spec: MixtureSpec, sizes: dict[str, int]):
    records = []
    for category, sources in spec.pool_bindings.items():
        for source in sources:
            records.extend(_pool(source, sizes.get(category, 0)))
    return resolve_pools(records, spec)


def test_sampling_deterministic_bytes():
    spec = _simple_spec(budget=100)
    pools = _pools_for(spec, {"caption": 200, "vqa": 200})
    a = [(c, record_to_json(r)) for c, r in sample_mixture(plan_mixture(spec, pool_sizes(pools, "samples")), pools)]
    b = [(c, record_to_json(r)) for c, r in sample_mixture(plan_mixture(spec, pool_sizes(pools, "samples")), pools)]
    assert a == b


def test_different_seeds_same_counts_different_order():
    counts, orders = [], []
    for seed in (1, 2):
        spec = _simple_spec(budget=100, seed=seed)
        pools = _pools_for(spec, {"caption": 200, "vqa": 200})
        out = sample_mixture(plan_mixture(spec, pool_sizes(pools, "samples")), pools)
        by_cat = {}
        for category, _ in out:
            by_cat[category] = by_cat.get(category, 0) + 1
        counts.append(by_cat)
        orders.append([r.id for _, r in out])
    assert counts[0] == counts[1] == {"caption": 50, "vqa": 50}
    assert orders[0] != orders[1]


def test_no_record_sampled_twice():
    spec = _simple_spec(budget=150)
    pools = _pools_for(spec, {"caption": 100, "vqa": 100})
    out = sample_mixture(plan_mixture(spec, pool_sizes(pools, "samples")), pools)
    ids = [r.id for _, r in out]
    assert len(ids) == len(set(ids)) == 150


def test_token_unit_overshoot_bounded_by_one_record():
    # 300-token records (1200 chars): target 1000 -> 4 records, 1200 tokens
    records = [Record(id=f"t-{i}", kind="pure_text", image_uris=(),
                      payload={"text": "x" * 1200}, source="caption0", meta={})
               for i in range(20)]
    spec = validate_spec(MixtureSpec("t", {"caption": 1.0}, "tokens", 1000, 5,
                                     {"caption": ("caption0",)}))
    pools = resolve_pools(records, spec)
    plan = plan_mixture(spec, pool_sizes(pools, "tokens"))
    out = sample_mixture(plan, pools)
    assert len(out) == 4
    assert sum(estimate_tokens(r) for _, r in out) == 1200


def test_missing_pool_is_error():
    spec = _simple_spec(budget=10)
    pools = _pools_for(spec, {"caption": 10, "vqa": 10})
    plan = plan_mixture(spec, pool_sizes(pools, "samples"))
    del pools["vqa"]
    with pytest.raises(PoolRecordMissing):
        sample_mixture(plan, pools)


@pytest.mark.parametrize("unit", ["samples", "tokens"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_interleave_matches_random_choices_oracle(seed, unit):
    rng = random.Random(f"interleave-test:{seed}:{unit}")
    categories = ["a", "b", "c", "d", "e", "f"]
    checked = 0
    for _ in range(12):
        sizes = {c: rng.choice([0, 0, 1, 1, 2, 5, rng.randint(3, 60)]) for c in categories}
        if not any(sizes.values()):
            continue
        fractions = dict(zip(categories, (1, 2, 3, 1, 2, 3)))
        spec = validate_spec(MixtureSpec(
            "t", {c: f / 12 for c, f in fractions.items()}, unit,
            rng.randint(1, 200) * (60 if unit == "tokens" else 1), rng.randint(0, 10**6),
            {c: (c,) for c in categories}))
        records = [r for c in categories
                   for r in _pool(c, sizes[c], text_len=rng.randint(1, 400))]
        pools = resolve_pools(records, spec)
        out = sample_mixture(plan_mixture(spec, pool_sizes(pools, unit)), pools)
        taken: dict[str, list[str]] = {}
        for category, r in out:
            taken.setdefault(category, []).append(r.id)
        assert [r.id for _, r in out] == oracle_interleave(spec.seed, taken)
        checked += len(out)
    assert checked


# --- verification --------------------------------------------------------------------

def test_verify_exact_for_samples_unit():
    spec = builtin_spec("baseline", budget=10000, seed=2)
    pools = _pools_for(spec, {c: 6000 for c in spec.proportions})
    out = sample_mixture(plan_mixture(spec, pool_sizes(pools, "samples")), pools)
    report = verify_mixture(out, spec)
    assert report["max_abs_error"] == 0
    assert report["pass"] is True


def test_verify_tokens_unit_within_tolerance():
    rng = random.Random(9)
    records = []
    for source in ("caption0", "vqa0", "pure_text", "other"):
        for i in range(3000):
            size = rng.randint(80, 320)  # 20..80 tokens, heterogeneous
            records.append(Record(id=f"{source}-{i:05d}", kind="pure_text",
                                  image_uris=(), payload={"text": "y" * size},
                                  source=source, meta={}))
    spec = builtin_spec("baseline", budget=50000, seed=3, unit="tokens")
    pools = resolve_pools(records, spec)
    out = sample_mixture(plan_mixture(spec, pool_sizes(pools, "tokens")), pools)
    report = verify_mixture(out, spec)
    assert report["pass"] is True
    assert report["max_abs_error"] <= 0.01


def test_verify_empty_set_fails():
    spec = _simple_spec()
    report = verify_mixture([], spec)
    assert report["pass"] is False
    assert all(v == 0.0 for v in report["measured"].values())


def test_spec_from_obj_rejects_garbage():
    with pytest.raises(SpecInvalid):
        spec_from_obj({"name": "x"})
