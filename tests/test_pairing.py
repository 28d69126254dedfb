from __future__ import annotations

import dataclasses
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kforge.errors import DuplicateImageId, MalformedOutput
from kforge.gateway import Gateway, mock_gateway
from kforge.pairing import (PairCandidate, PairVerdict,
                            build_index, candidate_from_obj, candidate_to_obj,
                            filter_pair, propose_pairs, read_candidates,
                            select_pairs, verdict_from_obj, verdict_to_obj,
                            write_candidates)
from kforge.prompts import REGISTRY, render_prompt

from conftest import ReplayBackend, make_descriptor, random_descriptors
from oracles import oracle_greedy_cap, oracle_propose_pairs


def _rows(candidates):
    return [(c.left_id, c.right_id, c.alignment_level, c.shared_concepts,
             c.differing_keys, c.contrast_score) for c in candidates]


def _as_oracle_shape(candidates):
    return sorted(_rows(candidates))


# --- index ---------------------------------------------------------------------

def test_build_index_buckets_sorted():
    ds = [
        make_descriptor("b", "reef", "geography"),
        make_descriptor("a", "reef", "geography"),
        make_descriptor("c", "glacier", "geography"),
    ]
    index = build_index(ds)
    assert index.by_subcategory["reef"] == ["a", "b"]
    assert index.by_domain["geography"] == ["a", "b", "c"]
    assert set(index.descriptors) == {"a", "b", "c"}


def test_build_index_empty():
    index = build_index([])
    assert index.by_subcategory == {} and index.by_domain == {}


def test_build_index_duplicate_id():
    ds = [make_descriptor("a", "reef", "geo"), make_descriptor("a", "reef", "geo")]
    with pytest.raises(DuplicateImageId):
        build_index(ds)


# --- proposal -------------------------------------------------------------------

def test_contrast_score_hand_example():
    # distinguishing sets {a,b} vs {b,c}: differing {a,c}, union {a,b,c} -> 2/3
    ds = [
        make_descriptor("x", "reef", "geo", concepts=("depth",), keys=("a", "b")),
        make_descriptor("y", "reef", "geo", concepts=("depth",), keys=("b", "c")),
    ]
    out = propose_pairs(build_index(ds), max_per_image=None, min_contrast=0.0)
    assert len(out) == 1
    c = out[0]
    assert c.differing_keys == ("a", "c")
    assert c.contrast_score == pytest.approx(2 / 3)
    assert c.alignment_level == "subcategory"


def test_identical_key_sets_no_candidate():
    ds = [
        make_descriptor("x", "reef", "geo", keys=("a", "b")),
        make_descriptor("y", "reef", "geo", keys=("a", "b")),
    ]
    assert propose_pairs(build_index(ds), None, 0.0) == []


def test_domain_fallback_only_for_subcategory_singletons():
    ds = [
        make_descriptor("a", "reef", "geo", concepts=("depth",), keys=("k1",)),
        make_descriptor("b", "reef", "geo", concepts=("depth",), keys=("k2",)),
        make_descriptor("c", "glacier", "geo", concepts=("depth",), keys=("k3",)),
        make_descriptor("d", "bakery", "geo", concepts=("depth",), keys=("k4",)),
    ]
    out = propose_pairs(build_index(ds), None, 0.0)
    pairs = {(c.left_id, c.right_id): c.alignment_level for c in out}
    assert pairs[("a", "b")] == "subcategory"
    assert pairs[("c", "d")] == "domain"
    # a and b have subcategory partners, so no domain pairs against c or d
    assert ("a", "c") not in pairs and ("b", "d") not in pairs


def test_domain_pair_requires_shared_concepts():
    ds = [
        make_descriptor("c", "glacier", "geo", concepts=("depth",), keys=("k3",)),
        make_descriptor("d", "bakery", "geo", concepts=("trade",), keys=("k4",)),
    ]
    assert propose_pairs(build_index(ds), None, 0.0) == []


def test_min_contrast_threshold():
    ds = [
        make_descriptor("x", "reef", "geo", keys=("a", "b", "c")),
        make_descriptor("y", "reef", "geo", keys=("a", "b", "d")),
    ]
    # differing {c,d} over union of 4 -> 0.5
    assert len(propose_pairs(build_index(ds), None, 0.5)) == 1
    assert propose_pairs(build_index(ds), None, 0.51) == []


def test_max_per_image_cap():
    ds = [make_descriptor(f"i{k}", "reef", "geo", concepts=("depth",),
                          keys=(f"k{k}", f"k{k+1}")) for k in range(6)]
    out = propose_pairs(build_index(ds), max_per_image=2, min_contrast=0.0)
    load: dict[str, int] = {}
    for c in out:
        load[c.left_id] = load.get(c.left_id, 0) + 1
        load[c.right_id] = load.get(c.right_id, 0) + 1
    assert max(load.values()) <= 2


def test_output_sorted_and_unique():
    rng = random.Random(21)
    ds = random_descriptors(rng, 20)
    out = propose_pairs(build_index(ds), None, 0.0)
    ids = [(c.left_id, c.right_id) for c in out]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    assert all(left < right for left, right in ids)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_oracle_equivalence_on_random_sets(seed):
    rng = random.Random(seed)
    ds = random_descriptors(rng, rng.randint(5, 25))
    out = propose_pairs(build_index(ds), max_per_image=None, min_contrast=0.0)
    assert _as_oracle_shape(out) == oracle_propose_pairs(ds)


def test_oracle_equivalence_with_min_contrast():
    rng = random.Random(77)
    ds = random_descriptors(rng, 22)
    out = propose_pairs(build_index(ds), max_per_image=None, min_contrast=0.4)
    assert _as_oracle_shape(out) == oracle_propose_pairs(ds, min_contrast=0.4)


@pytest.mark.parametrize("max_per_image", [1, 2, 3])
@pytest.mark.parametrize("seed", [11, 12, 13, 14, 15, 16])
def test_greedy_cap_matches_oracle(seed, max_per_image):
    rng = random.Random(seed)
    ds = random_descriptors(rng, rng.randint(4, 40))
    out = propose_pairs(build_index(ds), max_per_image=max_per_image, min_contrast=0.0)
    assert _rows(out) == oracle_greedy_cap(oracle_propose_pairs(ds), max_per_image)


@st.composite
def single_buckets(draw):
    """One subcategory bucket, or one domain bucket of subcategory loners,
    of up to 80 images over a 3-8 word key vocabulary: many scores tie and
    many are 1.0."""
    subcategory_aligned = draw(st.booleans())
    vocab = [f"k{v}" for v in range(draw(st.integers(3, 8)))]
    concepts = st.lists(st.sampled_from(["depth", "trade", "light"]), max_size=2,
                        unique=True)
    keys = st.lists(st.sampled_from(vocab), max_size=4, unique=True)
    return [make_descriptor(f"i{k:02d}", "reef" if subcategory_aligned else f"sub{k}",
                            "geo", concepts=draw(concepts), keys=draw(keys))
            for k in range(draw(st.integers(2, 80)))]


@settings(max_examples=300, deadline=None)
@given(single_buckets(), st.sampled_from([None, 1, 2, 3]),
       st.sampled_from([0.0, 0.25, 0.5, 1.0]))
def test_lazy_cap_matches_oracle_on_tied_buckets(ds, max_per_image, min_contrast):
    out = propose_pairs(build_index(ds), max_per_image, min_contrast)
    assert _rows(out) == oracle_greedy_cap(oracle_propose_pairs(ds, min_contrast),
                                           max_per_image)


def test_row_refills_once_every_buffered_partner_is_full():
    # At cap 1 a row buffers 4 partners. r0 scores 1/3 against each of r1-r5,
    # which score 1/2 against each other, so r1-r2 and r3-r4 fill r0's whole
    # buffer before r0 is used; only a refill of r0's row reaches r5.
    ds = [make_descriptor("r0", "reef", "geo", keys=("a", "b"))]
    ds += [make_descriptor(f"r{k}", "reef", "geo", keys=("a", "b", f"c{k}"))
           for k in range(1, 6)]
    out = propose_pairs(build_index(ds), max_per_image=1, min_contrast=0.0)
    assert [(c.left_id, c.right_id, c.contrast_score) for c in out] == [
        ("r0", "r5", pytest.approx(1 / 3)), ("r1", "r2", 0.5), ("r3", "r4", 0.5)]
    assert _rows(out) == oracle_greedy_cap(oracle_propose_pairs(ds), 1)


def test_row_refill_starts_after_the_pair_it_kept_last():
    # One domain bucket at cap 2: a row buffers 6 partners. b scores 1/3
    # against each of p1-p7. The 1/2 pairs (f with p4 and p5, and among
    # p1-p5, which share concept u) fill p1-p5 first, so b keeps p6, the
    # last of its buffer, and then refills to reach p7. Concepts v and w
    # keep p6 and p7 out of every other pair.
    def d(image_id, concepts, keys):
        return make_descriptor(image_id, f"sub-{image_id}", "geo", concepts=concepts,
                               keys=keys)

    ds = [d("b", ("u", "v", "w"), ("a", "b")), d("f", ("z",), ("a", "b", "cf"))]
    ds += [d(f"p{k}", ("u", "z") if k in (4, 5) else ("u",), ("a", "b", f"c{k}"))
           for k in range(1, 6)]
    ds += [d("p6", ("v",), ("a", "b", "c6")), d("p7", ("w",), ("a", "b", "c7"))]
    out = propose_pairs(build_index(ds), max_per_image=2, min_contrast=0.0)
    assert [c.pair_id for c in out] == [
        ("b", "p6"), ("b", "p7"), ("f", "p4"), ("f", "p5"), ("p1", "p2"), ("p1", "p3"),
        ("p2", "p3"), ("p4", "p5")]
    assert _rows(out) == oracle_greedy_cap(oracle_propose_pairs(ds), 2)


def test_propose_pairs_memory_stays_linear_in_the_bucket():
    # One 2,000-image bucket has 2.0 M pairs, nearly all above min_contrast.
    # Holding them all in one list takes over 100 MB; the capped proposal
    # buffers a few partners per image.
    rng = random.Random(3)
    vocab = [f"key{v}" for v in range(40)]
    ds = [make_descriptor(f"i{k:04d}", "reef", "geo", keys=rng.sample(vocab, 3))
          for k in range(2000)]
    index = build_index(ds)
    tracemalloc.start()
    try:
        out = propose_pairs(index, max_per_image=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    load: dict[str, int] = {}
    for c in out:
        load[c.left_id] = load.get(c.left_id, 0) + 1
        load[c.right_id] = load.get(c.right_id, 0) + 1
    assert max(load.values()) == 2


def test_low_value_surface_info_never_influences_pairing():
    rng = random.Random(13)
    ds = random_descriptors(rng, 15)
    mutated = [dataclasses.replace(d, low_value_surface_information=("x", "y", "z"))
               for d in ds]
    assert (_as_oracle_shape(propose_pairs(build_index(ds), 2, 0.25))
            == _as_oracle_shape(propose_pairs(build_index(mutated), 2, 0.25)))


# --- filter ---------------------------------------------------------------------

def _candidate():
    return PairCandidate("a", "b", "subcategory", ("depth",), ("k1", "k2"), 0.5)


_URIS = ("file:///img/a.jpg", "file:///img/b.jpg")


def _descs():
    return (make_descriptor("a", "reef", "geo", concepts=("depth",), keys=("k1",)),
            make_descriptor("b", "reef", "geo", concepts=("depth",), keys=("k2",)))


def test_filter_pair_mock_deterministic():
    gw = mock_gateway()
    left, right = _descs()
    v1 = filter_pair(_candidate(), left, right, gw, _URIS)
    v2 = filter_pair(_candidate(), left, right, gw, _URIS)
    assert v1 == v2
    assert v1.rationale


def test_filter_pair_mock_verdict_follows_digest_parity():
    import hashlib

    from kforge.prompts import REGISTRY, render_prompt

    gw = mock_gateway()
    left, right = _descs()
    verdict = filter_pair(_candidate(), left, right, gw, _URIS)
    prompt = render_prompt(REGISTRY["pair_filter"],
                           {"left": f"{left.image_id}: {left.summary()}",
                            "right": f"{right.image_id}: {right.summary()}"})
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    assert verdict.passed == (digest[0] % 2 == 0)


def _filter_prompt(left, right) -> str:
    return render_prompt(REGISTRY["pair_filter"],
                         {"left": f"{left.image_id}: {left.summary()}",
                          "right": f"{right.image_id}: {right.summary()}"})


_FILTER_SUFFIX = '\nAnswer with a single line starting with "PASS:" or "FAIL:".'


def test_filter_pair_fail_parsing():
    backend = ReplayBackend(["FAIL: relationship is incidental", "PASS: never asked"])
    gw = Gateway(backend)
    left, right = _descs()
    v = filter_pair(_candidate(), left, right, gw, _URIS)
    assert v.passed is False
    assert v.rationale == "relationship is incidental"
    assert backend.prompts == [_filter_prompt(left, right)]
    assert backend.image_uris == [_URIS]
    assert gw.stats.reasks == 0


def test_filter_pair_malformed_after_reask():
    left, right = _descs()
    prompt = _filter_prompt(left, right)
    backend = ReplayBackend(["maybe", "maybe", "PASS: never asked"])
    gw = Gateway(backend)
    with pytest.raises(MalformedOutput) as err:
        filter_pair(_candidate(), left, right, gw, _URIS)
    assert type(err.value) is MalformedOutput
    assert err.value.code == "malformed_output"
    assert str(err.value) == "pair_filter: reply did not answer PASS or FAIL"
    assert backend.prompts == [prompt, prompt + _FILTER_SUFFIX]
    assert gw.stats.snapshot() == {"llm_calls": 2, "retries": 0, "reasks": 1}


def test_filter_pair_recovers_on_reask():
    left, right = _descs()
    prompt = _filter_prompt(left, right)
    backend = ReplayBackend(["hmm let me think", "PASS: same theme, distinct details"])
    gw = Gateway(backend)
    v = filter_pair(_candidate(), left, right, gw, _URIS)
    assert v == PairVerdict(_candidate(), True, "same theme, distinct details")
    assert backend.prompts == [prompt, prompt + _FILTER_SUFFIX]
    assert gw.stats.snapshot() == {"llm_calls": 2, "retries": 0, "reasks": 1}


# --- selection -------------------------------------------------------------------

def test_select_pairs_keeps_passing_in_order():
    c1, c2, c3 = (_candidate(),
                  PairCandidate("c", "d", "domain", ("depth",), ("k",), 1.0),
                  PairCandidate("e", "f", "subcategory", (), ("k",), 1.0))
    verdicts = [PairVerdict(c1, True, "r"), PairVerdict(c2, False, "r"),
                PairVerdict(c3, True, "r")]
    assert select_pairs(verdicts) == [c1, c3]


def test_select_pairs_all_fail():
    assert select_pairs([PairVerdict(_candidate(), False, "r")]) == []


def test_select_pairs_dedupes():
    v = PairVerdict(_candidate(), True, "r")
    assert select_pairs([v, v]) == [_candidate()]


# --- persistence ------------------------------------------------------------------

def test_candidate_roundtrip(tmp_path):
    rng = random.Random(5)
    ds = random_descriptors(rng, 12)
    out = propose_pairs(build_index(ds), 2, 0.0)
    path = tmp_path / "c.jsonl"
    write_candidates(out, path)
    assert list(read_candidates(path)) == out


def test_verdict_obj_roundtrip():
    v = PairVerdict(_candidate(), True, "fine")
    assert verdict_from_obj(verdict_to_obj(v)) == v
    assert candidate_from_obj(candidate_to_obj(_candidate())) == _candidate()
