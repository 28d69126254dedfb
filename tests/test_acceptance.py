"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Every tolerance and runtime bound is asserted here.
"""
from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

import pytest

from kforge.corpus import Record, estimate_tokens, record_to_json
from kforge.errors import PolicyViolation
from kforge.gateway import Gateway, RetryPolicy, mock_gateway
from kforge.generation import (VqaValidationPolicy, generate_caption,
                               grounding_fraction, synthesize_vqa)
from kforge.jsonx import JSON_LIST, JSON_OBJECT, extract_json
from kforge.knowledge import ProfileCounts, build_report, kd_score
from kforge.mixture import (builtin_spec, plan_mixture, pool_sizes,
                            resolve_pools, sample_mixture, verify_mixture)
from kforge.pairing import build_index, propose_pairs
from kforge.pipeline import run_all
from kforge.textnorm import tokenize

from conftest import random_descriptors, replay_gateway
from fixtures_text import (INTERLEAVE_CONSTITUENTS, INTERLEAVE_TEXT,
                           PAIR_JOINT, PAIR_SINGLE_A, PAIR_SINGLE_B,
                           SHIBA_CAPTION, SHIBA_QA)
from oracles import oracle_distinct_content_count, oracle_propose_pairs
from test_jsonx import random_json_value, wrap_in_noise
from test_pipeline import KillerBackend, _tree_bytes, make_workspace

# a journal or temp file left open on any exit path fails the test
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


@contextmanager
def criterion(name: str, max_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if max_seconds is not None:
        assert elapsed < max_seconds, f"{name} took {elapsed:.2f}s (limit {max_seconds}s)"
    print(f"[ACCEPTANCE] {name}: PASS ({elapsed:.2f}s)")


def _text_record(rid: str, text: str) -> Record:
    return Record(id=rid, kind="pure_text", image_uris=(), payload={"text": text},
                  source="pure_text", meta={})


def test_mixture_exactness_against_published_table():
    with criterion("mixture-exactness", max_seconds=1.0):
        ample = {c: 10**7 for c in ("caption", "vqa", "pure_text", "other")}

        plan = plan_mixture(builtin_spec("baseline", 100000, seed=1), ample)
        assert plan.targets == {"caption": 28000, "vqa": 17000,
                                "pure_text": 40000, "other": 15000}

        plan = plan_mixture(builtin_spec("caption_only", 100000, seed=1), ample)
        assert plan.targets == {"caption": 45000, "vqa": 0,
                                "pure_text": 40000, "other": 15000}

        spec = builtin_spec("synthetic_vqa", 100000, seed=1)
        plan = plan_mixture(spec, ample)
        assert plan.targets == {"caption": 28000, "vqa": 17000,
                                "pure_text": 40000, "other": 15000}
        assert spec.pool_bindings["vqa"] == ("vqa1",)


def test_mixture_determinism_and_verification():
    with criterion("mixture-determinism-verification", max_seconds=10.0):
        rng = random.Random(42)
        records = []
        for source in ("caption0", "vqa0", "pure_text", "other"):
            for i in range(2600):
                size = rng.randint(80, 320)
                records.append(Record(id=f"{source}-{i:05d}", kind="pure_text",
                                      image_uris=(), payload={"text": "z" * size},
                                      source=source, meta={}))
        assert len(records) >= 10000

        spec = builtin_spec("baseline", budget=2500, seed=17, unit="samples")
        pools = resolve_pools(records, spec)
        plan = plan_mixture(spec, pool_sizes(pools, "samples"))
        run_a = [(c, record_to_json(r)) for c, r in sample_mixture(plan, pools)]
        run_b = [(c, record_to_json(r)) for c, r in sample_mixture(plan, pools)]
        assert run_a == run_b

        sampled = sample_mixture(plan, pools)
        report = verify_mixture(sampled, spec)
        assert report["max_abs_error"] == 0

        spec_t = builtin_spec("baseline", budget=50000, seed=17, unit="tokens")
        pools_t = resolve_pools(records, spec_t)
        plan_t = plan_mixture(spec_t, pool_sizes(pools_t, "tokens"))
        report_t = verify_mixture(sample_mixture(plan_t, pools_t), spec_t)
        assert report_t["max_abs_error"] <= 0.01
        # budget dwarfs the largest record by >= 100x, bounding the overshoot
        assert max(estimate_tokens(r) for r in records) * 100 <= spec_t.budget


def test_pairing_matches_bruteforce_oracle():
    with criterion("pairing-oracle-equivalence", max_seconds=5.0):
        for seed in (11, 22, 33, 44, 55):
            rng = random.Random(seed)
            descriptors = random_descriptors(rng, rng.randint(10, 25))
            got = propose_pairs(build_index(descriptors), max_per_image=None,
                                min_contrast=0.0)
            got_ids = sorted((c.left_id, c.right_id, c.alignment_level,
                              c.shared_concepts, c.differing_keys, c.contrast_score)
                             for c in got)
            assert got_ids == oracle_propose_pairs(descriptors)


def test_vqa_policy_enforced_on_mock_batch():
    with criterion("vqa-policy-enforcement"):
        gw = mock_gateway()
        policy = VqaValidationPolicy()
        accepted = 0
        for i in range(200):
            caption = generate_caption(f"img-{i:04d}", f"file:///{i:04d}.jpg", gw)
            record = synthesize_vqa(caption, policy, gw)
            accepted += 1
            qa = record.payload["qa"]
            assert 5 <= len(qa) <= 15
            n_global = sum(1 for item in qa if item["scope"] == "global")
            assert n_global >= 1
            assert len(qa) - n_global >= 2 * n_global
            vocab = set(tokenize(caption.payload["caption"]))
            for item in qa:
                if item["scope"] == "detail":
                    assert grounding_fraction(item["answer"], vocab) >= 0.5
        assert accepted == 200

        three = json.dumps([{"question": f"q{i}?", "answer": "word"} for i in range(3)])
        stub = replay_gateway([three])
        source = Record(id="c", kind="caption", image_uris=("file:///c.jpg",),
                        payload={"caption": "A word on a page."}, source="caption1",
                        meta={})
        with pytest.raises(PolicyViolation) as err:
            synthesize_vqa(source, policy, stub)
        assert err.value.reason == "count_out_of_range"


def test_caption_to_vqa_reconstruction_fixture():
    with criterion("vqa-reconstruction-fixture"):
        gw = replay_gateway([json.dumps(SHIBA_QA)])
        source = Record(id="shiba", kind="caption", image_uris=("file:///shiba.jpg",),
                        payload={"caption": SHIBA_CAPTION}, source="caption1", meta={})
        record = synthesize_vqa(source, VqaValidationPolicy(), gw)
        kept = [item for item in record.payload["qa"]
                if item["question"] == "What animal is running along the grassland?"]
        assert len(kept) == 1 and kept[0]["answer"] == "Dog"
        assert grounding_fraction("Dog", set(tokenize(SHIBA_CAPTION))) >= 0.5


def test_kd_ordering_on_fixture_texts():
    with criterion("kd-ordering"):
        gw = mock_gateway()
        kd = {}
        for name, text in [("A", PAIR_SINGLE_A), ("B", PAIR_SINGLE_B),
                           ("joint", PAIR_JOINT), ("ilv", INTERLEAVE_TEXT)]:
            kd[name] = kd_score(_text_record(name, text), gw)["kd"]
            assert kd[name] == oracle_distinct_content_count(text)
        assert kd["joint"] > max(kd["A"], kd["B"])
        for i, constituent in enumerate(INTERLEAVE_CONSTITUENTS):
            kd_part = kd_score(_text_record(f"p{i}", constituent), gw)["kd"]
            assert kd_part == oracle_distinct_content_count(constituent)
            assert kd["ilv"] > kd_part


def test_report_percentage_arithmetic():
    with criterion("report-arithmetic"):
        profiles, source_of = [], {}
        for source, mean in (("pair_caption", 32), ("caption0", 22)):
            for i in range(50):
                rid = f"{source}-{i}"
                profiles.append(ProfileCounts(rid, mean, mean, 0))
                source_of[rid] = source
        report = build_report(profiles, source_of, [("pair_caption", "caption0")],
                              backend_id="mock")
        assert report["per_source"]["pair_caption"]["mean_kd"] == 32
        assert report["per_source"]["caption0"]["mean_kd"] == 22
        assert report["comparisons"][0]["pct_increase"] == pytest.approx(45.45, abs=0.01)


def test_json_recovery_thousand_of_thousand():
    with criterion("json-recovery", max_seconds=5.0):
        rng = random.Random(2024)
        recovered = 0
        for _ in range(1000):
            value = random_json_value(rng)
            if not isinstance(value, (list, dict)):
                value = [value] if rng.random() < 0.5 else {"v": value}
            expected = JSON_LIST if isinstance(value, list) else JSON_OBJECT
            raw = wrap_in_noise(rng, json.dumps(value))
            if extract_json(raw, expected) == value:
                recovered += 1
        assert recovered == 1000


def test_interleaved_marker_validity():
    with criterion("interleaved-markers"):
        import re

        from kforge.generation import GroupMember, generate_interleaved
        from conftest import make_descriptor

        gw = mock_gateway()
        accepted = 0
        for start in range(0, 30, 5):
            for n in (3, 4, 5):
                group = [GroupMember(f"img-{start + i}", f"file:///{start + i}.jpg",
                                     make_descriptor(f"img-{start + i}", f"s{start + i}",
                                                     "shared domain"))
                         for i in range(n)]
                record = generate_interleaved(group, gw)
                accepted += 1
                markers = [int(k) for k in
                           re.findall(r"<Image_(\d+)>", record.payload["text"])]
                assert sorted(markers) == list(range(1, n + 1))
        assert accepted == 18

        # five-image narrative fixture passes unchanged
        group5 = [GroupMember(f"dish-{i}", f"file:///d{i}.jpg",
                              make_descriptor(f"dish-{i}", f"dish {i}", "food"))
                  for i in range(5)]
        stub = replay_gateway([INTERLEAVE_TEXT])
        record = generate_interleaved(group5, stub)
        markers = [int(k) for k in
                   __import__("re").findall(r"<Image_(\d+)>", record.payload["text"])]
        assert sorted(markers) == [1, 2, 3, 4, 5]


def test_end_to_end_determinism_and_resume(tmp_path):
    with criterion("end-to-end-determinism-resume", max_seconds=60.0):
        config_a = make_workspace(tmp_path, "a")
        config_b = make_workspace(tmp_path, "b")
        assert run_all(config_a)[0] == 0
        assert run_all(config_b)[0] == 0
        tree_a = _tree_bytes(config_a.out_dir)
        assert tree_a == _tree_bytes(config_b.out_dir)
        assert len(tree_a) >= 12

        config_c = make_workspace(tmp_path, "c")
        killer = Gateway(KillerBackend(limit=9), retry=RetryPolicy(backoff_base=0.001))
        with pytest.raises(KeyboardInterrupt):
            run_all(config_c, gateway=killer)
        assert run_all(config_c)[0] == 0
        assert _tree_bytes(config_c.out_dir) == tree_a
