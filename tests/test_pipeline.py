from __future__ import annotations

import dataclasses
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

import kforge
from kforge import annotation, cli, corpus, gateway, jsonx, knowledge, mixture, pairing, pipeline
from kforge.cli import main as cli_main
from kforge.corpus import read_shard, write_shard
from kforge.errors import BackendError, ConfigInvalid, KforgeError, ParseError
from kforge.gateway import Gateway, LlmRequest, MockBackend, ReplyStore, RetryPolicy
from kforge.generation import VqaValidationPolicy
from kforge.pipeline import PipelineConfig, Quarantine, config_from_obj, run_all, run_stage
from kforge.prompts import REGISTRY

from conftest import make_corpus

# a reply store or temp file left open on any exit path fails the test
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


def _spec_doc():
    return {
        "name": "fixture_mix",
        "proportions": {"caption": 0.30, "vqa": 0.15, "pure_text": 0.40,
                        "other": 0.15},
        "unit": "samples",
        "budget": 20,
        "seed": 5,
        "pool_bindings": {"caption": ["caption0"], "vqa": ["vqa0"],
                          "pure_text": ["pure_text"], "other": ["other"]},
    }


def _config_doc(root: Path) -> dict:
    """The config document of the workspace under ``root``."""
    return {
        "io": {"in_dir": str(root / "in"), "out_dir": str(root / "out"),
               "quarantine_dir": str(root / "quarantine")},
        "backend": {"kind": "mock", "retry": {"backoff_base": 0.001}},
        "mixture": {"spec": str(root / "mixture_spec.json")},
        "seed": 5,
    }


def make_workspace(tmp_path: Path, name: str = "run", corpus=None) -> PipelineConfig:
    root = tmp_path / name
    (root / "in").mkdir(parents=True)
    write_shard(corpus if corpus is not None else make_corpus(), root / "in" / "corpus.jsonl")
    (root / "mixture_spec.json").write_text(json.dumps(_spec_doc()), encoding="utf-8")
    return config_from_obj(_config_doc(root))


def _tree_bytes(out_dir: str) -> dict[str, bytes]:
    root = Path(out_dir)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and ".work" not in p.parts}


class KillerBackend(MockBackend):
    """Mock backend that dies after a fixed number of successful calls."""

    def __init__(self, limit: int):
        self.limit = limit
        self.calls = 0

    def complete(self, request, prompt):
        self.calls += 1
        if self.calls > self.limit:
            raise KeyboardInterrupt
        return super().complete(request, prompt)


# --- config -----------------------------------------------------------------------

def test_config_requires_distinct_paths(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to(tmp_path / "data", target_is_directory=True)
    for in_dir, out_dir in [
        (str(tmp_path), str(tmp_path)),
        # one directory spelled absolute and relative: the stages read the
        # generated files as input shards and quarantined 79 items
        (str(tmp_path / "data"), "data"),
        (str(tmp_path / "link"), str(tmp_path / "data")),  # a symlink and its target
    ]:
        with pytest.raises(ConfigInvalid, match="must be distinct"):
            config_from_obj({"io": {"in_dir": in_dir, "out_dir": out_dir,
                                    "quarantine_dir": str(tmp_path / "q")}})


def test_interleave_min_group_below_three_is_refused(tmp_path):
    # an interleaved document needs 3 images, so groups of 2 would all be quarantined
    with pytest.raises(ConfigInvalid, match="interleave.min_group must be >= 3"):
        config_from_obj({**_config_doc(tmp_path), "interleave": {"min_group": 2}})


def test_http_backend_requires_endpoint(tmp_path, monkeypatch):
    monkeypatch.delenv("KF_LLM_ENDPOINT", raising=False)
    monkeypatch.delenv("KF_LLM_MODEL", raising=False)
    with pytest.raises(ConfigInvalid):
        config_from_obj({
            "io": {"in_dir": str(tmp_path / "a"), "out_dir": str(tmp_path / "b"),
                   "quarantine_dir": str(tmp_path / "c")},
            "backend": {"kind": "http"},
        })


def test_http_backend_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("KF_LLM_ENDPOINT", "http://example.test/v1")
    monkeypatch.setenv("KF_LLM_MODEL", "m")
    config = config_from_obj({
        "io": {"in_dir": str(tmp_path / "a"), "out_dir": str(tmp_path / "b"),
               "quarantine_dir": str(tmp_path / "c")},
        "backend": {"kind": "http"},
    })
    assert config.endpoint == "http://example.test/v1"


@pytest.mark.parametrize("extra, message", [
    ({"surprise": {}}, "unknown config sections: ['surprise']"),
    ({"backend": {"in_fligth": 2}}, "unknown keys in config section backend: ['in_fligth']"),
    ({"backend": {"retry": {"max_attempt": 5}}},
     "unknown keys in config section backend.retry: ['max_attempt']"),
    ({"vqa_policy": {"min_item": 3}}, "unknown keys in config section vqa_policy: ['min_item']"),
    ({"io": {"in_dir": "a", "out_dir": "b", "quarantine_dir": "c", "tmp_dir": "d"}},
     "unknown keys in config section io: ['tmp_dir']"),
    ({"backend": 5}, "config section backend must be an object"),
    ({"flush_every": 1}, "unknown config sections: ['flush_every']"),
    # every reply contract re-asks once; the switch is gone
    ({"backend": {"retry": {"reask_on_malformed": False}}},
     "unknown keys in config section backend.retry: ['reask_on_malformed']"),
    # only null stands for an absent section
    ({"backend": False}, "config section backend must be an object"),
    ({"pairing": 0}, "config section pairing must be an object"),
    ({"vqa_policy": ""}, "config section vqa_policy must be an object"),
    ({"backend": {"retry": []}}, "config section backend.retry must be an object"),
], ids=["section", "backend", "retry", "vqa_policy", "io", "not-an-object", "flush_every",
        "reask_on_malformed", "false-section", "zero-section", "empty-string-section",
        "empty-list-section"])
def test_unknown_config_section_rejected(tmp_path, extra, message):
    doc = {"io": {"in_dir": "a", "out_dir": "b", "quarantine_dir": "c"}, **extra}
    with pytest.raises(ConfigInvalid) as err:
        config_from_obj(doc)
    assert str(err.value) == message


def test_null_section_reads_as_absent(tmp_path):
    doc = _config_doc(tmp_path)
    assert config_from_obj({**doc, "pairing": None, "vqa_policy": None}) == config_from_obj(doc)


@pytest.mark.parametrize("backend, message", [
    ({"in_flight": 0}, "backend.in_flight must be >= 1"),
    ({"rps": 0}, "backend.rps must be null or a number > 0, got 0"),
    ({"rps": -1}, "backend.rps must be null or a number > 0, got -1"),
    ({"rps": "2.5"}, "backend.rps must be null or a number > 0, got '2.5'"),
    ({"rps": True}, "backend.rps must be null or a number > 0, got True"),
    ({"rps": float("inf")}, "backend.rps must be null or a number > 0, got inf"),
], ids=["in_flight-0", "rps-0", "rps-negative", "rps-string", "rps-bool", "rps-inf"])
def test_gateway_settings_out_of_range_rejected(backend, message):
    with pytest.raises(ConfigInvalid) as err:
        config_from_obj({"io": {"in_dir": "a", "out_dir": "b", "quarantine_dir": "c"},
                         "backend": backend})
    assert str(err.value) == message


def test_numeric_rps_kept_as_given():
    io = {"in_dir": "a", "out_dir": "b", "quarantine_dir": "c"}
    for rps in (2, 0.5, None):
        config = config_from_obj({"io": io, "backend": {"rps": rps, "in_flight": 1}})
        assert config.rps == rps and type(config.rps) is type(rps)


def test_minimal_config_takes_every_default(monkeypatch):
    for name in ("KF_LLM_ENDPOINT", "KF_LLM_MODEL", "KF_LLM_API_KEY"):
        monkeypatch.delenv(name, raising=False)
    config = config_from_obj({"io": {"in_dir": "a", "out_dir": "b", "quarantine_dir": "c"}})
    assert config == PipelineConfig("a", "b", "c")


def test_config_keys_are_converted():
    config = config_from_obj({
        "io": {"in_dir": "in", "out_dir": "out", "quarantine_dir": "q"},
        "backend": {"kind": "http", "endpoint": "http://localhost:9/v1", "model": "m",
                    "api_key": "k", "rps": 2.5, "in_flight": "3",
                    "retry": {"max_attempts": "4", "backoff_base": 1, "backoff_factor": 3}},
        "pairing": {"max_per_image": "1", "min_contrast": "0.5"},
        "vqa_policy": {"min_items": "2", "max_items": 9, "min_global": 2,
                       "detail_to_global_min_ratio": 1, "grounding_min_overlap": "0.75"},
        "interleave": {"min_group": 4, "max_group": "6"},
        "mixture": {"spec": "builtin:caption_only", "budget": "500", "unit": "tokens",
                    "rebalance": 1},
        "kd": {"comparisons": [["a", "b"], ["c", "d"]]},
        "seed": 7, "workers": "2",
    })
    assert config == PipelineConfig(
        "in", "out", "q", backend_kind="http", endpoint="http://localhost:9/v1", model="m",
        api_key="k", rps=2.5, in_flight=3,
        retry=RetryPolicy(max_attempts=4, backoff_base=1.0, backoff_factor=3.0),
        max_per_image=1, min_contrast=0.5,
        vqa_policy=VqaValidationPolicy(min_items=2, max_items=9, min_global=2,
                                       detail_to_global_min_ratio=1.0,
                                       grounding_min_overlap=0.75),
        interleave_min=4, interleave_max=6, mixture_spec="builtin:caption_only",
        mixture_budget=500, mixture_unit="tokens", rebalance=True,
        kd_comparisons=(("a", "b"), ("c", "d")), seed=7, workers=2)


@pytest.mark.parametrize("pairing", [None, {}, {"min_contrast": 0.1, "max_per_image": 1}])
def test_load_config_sets_patch_values_into_the_document(tmp_path, pairing):
    doc = _config_doc(tmp_path)
    if pairing is not None:
        doc["pairing"] = pairing
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    config = pipeline.load_config(path, {"pairing.min_contrast": 0.5, "seed": None})
    assert (config.min_contrast, config.seed) == (0.5, 5)  # None keeps the file's seed
    assert config.max_per_image == (pairing or {}).get("max_per_image", 2)


@pytest.mark.parametrize("doc, message", [
    ([], "config must be a JSON object, got list"),
    ({"pairing": 5}, "config section pairing must be an object"),
])
def test_load_config_patch_keeps_the_document_checks(tmp_path, doc, message):
    if doc:
        doc = {**_config_doc(tmp_path), **doc}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigInvalid, match=f"^{message}$"):
        pipeline.load_config(path, {"pairing.min_contrast": 0.5, "seed": 7})


def test_sampling_stages_require_seed(tmp_path):
    config = make_workspace(tmp_path)
    run_stage("annotate", config)
    run_stage("pair", config)
    run_stage("filter", config)
    config.seed = None
    with pytest.raises(ConfigInvalid):
        run_stage("interleave", config)
    config.mixture_spec = "builtin:baseline"  # a spec file carries its own seed
    with pytest.raises(ConfigInvalid):
        run_stage("mix", config)


# --- single stages -------------------------------------------------------------------

def test_annotate_ten_records_no_quarantine(tmp_path):
    corpus = make_corpus(n_caption=6, n_vqa=4, n_text=0, n_other=0)
    config = make_workspace(tmp_path, corpus=corpus)
    stats = run_stage("annotate", config)
    assert stats["in"] == 10 and stats["out"] == 10
    assert stats["quarantined"] == 0
    assert stats["llm_calls"] == 10
    descriptors = (Path(config.out_dir) / "descriptors.jsonl").read_text().splitlines()
    assert len(descriptors) == 10


def test_invalid_corpus_line_quarantined_with_code(tmp_path):
    config = make_workspace(tmp_path)
    shard = Path(config.in_dir) / "corpus.jsonl"
    with open(shard, "a", encoding="utf-8") as fh:
        fh.write("this is not json\n")
    stats = run_stage("annotate", config)
    assert stats["quarantined"] == 1
    row = json.loads((Path(config.quarantine_dir) / "annotate.jsonl").read_text())
    assert row["error_code"] == "parse"
    assert "corpus.jsonl:31" in row["work_id"]


def test_dirty_corpus_survives_full_run(tmp_path):
    config = make_workspace(tmp_path)
    shard = Path(config.in_dir) / "corpus.jsonl"
    with open(shard, "a", encoding="utf-8") as fh:
        fh.write("this is not json\n")
    code, all_stats = run_all(config)
    assert code == 0
    # the stage that first reads the shard reports the bad line, no other stage
    rows = [(path.name, json.loads(line))
            for path in sorted(Path(config.quarantine_dir).glob("*.jsonl"))
            for line in path.read_text(encoding="utf-8").splitlines()]
    assert [(name, row["work_id"], row["error_code"]) for name, row in rows] == [
        ("annotate.jsonl", "corpus.jsonl:31", "parse")]
    assert [s["stage"] for s in all_stats if s["quarantined"]] == ["annotate"]


def _quarantine_rows(config: PipelineConfig) -> list[tuple[str, dict]]:
    return [(path.name, json.loads(line))
            for path in sorted(Path(config.quarantine_dir).glob("*.jsonl"))
            for line in path.read_text(encoding="utf-8").splitlines()]


def test_too_deeply_nested_line_quarantined_in_full_run(tmp_path):
    config = make_workspace(tmp_path)
    with open(Path(config.in_dir) / "corpus.jsonl", "a", encoding="utf-8") as fh:
        fh.write("[" * 100000 + "]" * 100000 + "\n")
    code, _ = run_all(config)
    assert code == 0
    assert [(row["work_id"], row["error_code"]) for _, row in _quarantine_rows(config)] == [
        ("corpus.jsonl:31", "parse")]


def test_lone_surrogate_line_quarantined_in_full_run(tmp_path):
    config = make_workspace(tmp_path)
    line = {"id": "c0-100", "kind": "caption", "image_uris": ["file:///images/c0-100.jpg"],
            "payload": {"caption": "a harbor \ud800 view"}, "source": "caption0"}
    with open(Path(config.in_dir) / "corpus.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")
    code, _ = run_all(config)
    assert code == 0
    assert [(name, row["work_id"], row["error_code"])
            for name, row in _quarantine_rows(config)] == [
        ("annotate.jsonl", "corpus.jsonl:31", "validation")]


def test_image_without_source_record_is_quarantined_not_sent(tmp_path):
    config = make_workspace(tmp_path)
    assert run_all(config)[0] == 0
    # one unpaired image, and one in selected pairs and an interleave group
    dropped = ("c0-000", "c0-002")
    shard = Path(config.in_dir) / "corpus.jsonl"
    lines = shard.read_text(encoding="utf-8").splitlines(keepends=True)
    shard.write_text("".join(ln for ln in lines if json.loads(ln)["id"] not in dropped),
                     encoding="utf-8")
    (Path(config.out_dir) / ".work" / "replies.log").unlink()
    sent = []

    class Recording(MockBackend):
        def complete(self, request, prompt):
            sent.extend(request.image_uris)
            return super().complete(request, prompt)

    gw = Gateway(Recording())
    for stage in ("pair-caption", "caption", "interleave", "filter"):
        stats = run_stage(stage, config, gateway=gw)
        rows = [row for name, row in _quarantine_rows(config) if name == f"{stage}.jsonl"]
        assert rows and len(rows) == stats["quarantined"] == stats["in"] - stats["out"]
        for row in rows:
            assert row["error_code"] == "validation"
            assert row["error"] in [f"image: {image} has no source record"
                                    for image in dropped if image in row["work_id"]]
    assert sent and all(uri.startswith("file:///images/") for uri in sent)


def test_dropped_kd_comparison_is_logged(tmp_path, caplog):
    config = make_workspace(tmp_path)
    assert run_all(config)[0] == 0
    report_path = Path(config.out_dir) / "kd_report.json"
    config.kd_comparisons = (("caption0", "nope"),)
    with caplog.at_level("WARNING", logger="kforge.knowledge"):
        run_stage("kd-score", config)
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
        "kd.comparisons entry caption0:nope dropped: no profiles for source nope"]
    assert json.loads(report_path.read_text(encoding="utf-8"))["comparisons"] == []


def test_kd_comparison_with_zero_mean_source_is_left_out(tmp_path, caplog):
    # a source whose text is all stopwords scores 0; the report was never published
    config = make_workspace(tmp_path)
    blank = [corpus.Record(id=f"sw-{i}", kind="pure_text", image_uris=(),
                           payload={"text": "the of and to"}, source="stopwords", meta={})
             for i in range(3)]
    write_shard(blank, Path(config.in_dir) / "stopwords.jsonl")
    config.kd_comparisons = (("pure_text", "stopwords"), ("stopwords", "pure_text"))
    with caplog.at_level("WARNING", logger="kforge.knowledge"):
        stats = run_stage("kd-score", config)
    assert stats["quarantined"] == 0
    out = Path(config.out_dir)
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
        f"generated shard {out / name} not found; reading the shards that exist"
        for name in ("caption1.jsonl", "pair_caption.jsonl", "interleaved.jsonl",
                     "vqa1.jsonl")] + [
        "kd.comparisons entry pure_text:stopwords dropped: mean kd of source stopwords is 0"]
    report = json.loads((Path(config.out_dir) / "kd_report.json").read_text(encoding="utf-8"))
    assert report["per_source"]["stopwords"]["mean_kd"] == 0
    assert [(row["source_a"], row["source_b"], row["mean_ratio"])
            for row in report["comparisons"]] == [("stopwords", "pure_text", 0.0)]


def test_lone_stats_names_each_generated_shard_it_did_not_find(tmp_path, caplog):
    config = make_workspace(tmp_path)
    with caplog.at_level("WARNING", logger="kforge.pipeline"):
        assert run_stage("stats", config)["out"] == 30
    out = Path(config.out_dir)
    assert [r.getMessage() for r in caplog.records if r.name == "kforge.pipeline"] == [
        f"generated shard {out / name} not found; reading the shards that exist"
        for name in ("caption1.jsonl", "pair_caption.jsonl", "interleaved.jsonl",
                     "vqa1.jsonl")]
    caplog.clear()
    assert run_all(config)[0] == 0
    run_stage("stats", config)
    assert not [r for r in caplog.records if r.name == "kforge.pipeline"]


@pytest.mark.parametrize("workers", [1, 3])
def test_kd_report_is_built_from_the_published_profiles(tmp_path, workers):
    config = make_workspace(tmp_path)
    config.workers = workers
    code, stats = run_all(config)
    assert code == 0
    out = Path(config.out_dir)
    counts = list(corpus.read_jsonl(out / "kd_profiles.jsonl", lambda obj: knowledge.ProfileCounts(
        obj["sample_id"], obj["kd"], obj["n_facts"], obj["n_abstract"])))
    assert len(counts) == next(s["out"] for s in stats if s["stage"] == "kd-score")
    shards = [*Path(config.in_dir).glob("*.jsonl"), *(out / name for name in (
        "caption1.jsonl", "pair_caption.jsonl", "interleaved.jsonl", "vqa1.jsonl"))]
    source_of = {r.id: r.source for path in shards for r in read_shard(path)}
    report = knowledge.build_report(counts, source_of, config.kd_comparisons,
                                    Gateway(MockBackend()).backend_id)
    assert report["comparisons"]
    assert json.loads((out / "kd_report.json").read_text(encoding="utf-8")) == json.loads(
        json.dumps(report))


def test_cli_damaged_generated_file_exits_one(tmp_path):
    # a truncated descriptors.jsonl let a JSONDecodeError out as a traceback
    config = make_workspace(tmp_path)
    config_path = _write_config(tmp_path, config)
    runner = CliRunner()
    assert runner.invoke(cli_main, ["annotate", "--config", str(config_path)]).exit_code == 0
    descriptors = Path(config.out_dir) / "descriptors.jsonl"
    first = descriptors.read_text(encoding="utf-8").splitlines()[0]
    descriptors.write_text(first[:-1] + "\n", encoding="utf-8")
    result = runner.invoke(cli_main, ["pair", "--config", str(config_path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: line 1: invalid JSON in {descriptors}: ")
    assert "Traceback" not in result.stderr

    # a byte that is not UTF-8, a line that is no object and a candidate
    # without a key let a UnicodeDecodeError, an AttributeError and a
    # KeyError out as tracebacks
    for command in ("annotate", "pair"):
        assert runner.invoke(cli_main, [command, "--config", str(config_path)]).exit_code == 0
    lines = descriptors.read_bytes().splitlines(keepends=True)
    candidates = Path(config.out_dir) / "pair_candidates.jsonl"
    candidate = json.loads(candidates.read_text(encoding="utf-8").splitlines()[0])
    del candidate["alignment_level"]
    for stage, path, text, message in [
        ("pair", descriptors, lines[0] + lines[1].replace(b'":"', b'":"\xff', 1),
         f"error: line 2: invalid JSON in {descriptors}: not UTF-8: "),
        ("pair", descriptors, b"[1, 2]\n",
         f"error: line 1: unexpected value in {descriptors}: AttributeError: "),
        ("filter", candidates, json.dumps(candidate).encode("utf-8") + b"\n",
         f"error: line 1: unexpected value in {candidates}: KeyError: 'alignment_level'\n"),
    ]:
        assert runner.invoke(cli_main, ["annotate", "--config", str(config_path)]).exit_code == 0
        path.write_bytes(text)
        result = runner.invoke(cli_main, [stage, "--config", str(config_path)])
        assert result.exit_code == 1, message
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(message)
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("patch, message", [
    ({"mixture": {"rebalance": "false"}}, "mixture.rebalance must be true or false, got 'false'"),
    ({"pairing": {"max_per_image": 2.9}}, "pairing.max_per_image must be a whole number, got 2.9"),
    ({"workers": 1.7}, "workers must be a whole number, got 1.7"),
    ({"seed": "abc"}, "seed must be a whole number, got 'abc'"),
    ({"seed": 2.5}, "seed must be a whole number, got 2.5"),
], ids=["bool-string", "fractional-int", "fractional-workers", "seed-string",
        "fractional-seed"])
def test_cli_config_values_are_not_coerced(tmp_path, patch, message):
    # each of these was converted (to True, 2 and 1) or, for the seeds,
    # taken as given, and the run went on
    config = make_workspace(tmp_path)
    config_path = _write_config(tmp_path, config)
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    for key, value in patch.items():
        doc[key] = {**doc.get(key, {}), **value} if isinstance(value, dict) else value
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    result = CliRunner().invoke(cli_main, ["run-all", "--config", str(config_path)])
    assert result.exit_code == 2
    assert result.output == f"config error: {message}\n"
    assert not Path(config.out_dir).exists()


def test_missing_required_key_is_named():
    with pytest.raises(ConfigInvalid, match=r"^io\.out_dir is required$"):
        config_from_obj({"io": {"in_dir": "a"}})


def test_importing_the_pipeline_leaves_click_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(kforge.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", "import sys, kforge.pipeline; "
                          "print('click' in sys.modules)"],
                         env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "False\n"


def test_seed_converts_like_an_integer_key():
    io = {"in_dir": "a", "out_dir": "b", "quarantine_dir": "c"}
    assert [config_from_obj({"io": io, "seed": seed}).seed
            for seed in (None, 3, "3", 3.0)] == [None, 3, 3, 3]


@pytest.mark.parametrize("before, stage, missing", [
    *(((), stage, "descriptors.jsonl")
      for stage in ("pair", "filter", "pair-caption", "caption", "interleave")),
    # caption captioned every image and interleave published no group, as
    # if no pair were selected; vqa-synth published an empty vqa1.jsonl
    (("annotate", "pair"), "caption", "pairs_selected.jsonl"),
    (("annotate", "pair"), "pair-caption", "pair_verdicts.jsonl"),
    (("annotate", "pair"), "interleave", "pairs_selected.jsonl"),
    ((), "vqa-synth", "caption1.jsonl"),
], ids=["pair", "filter", "pair-caption", "caption", "interleave", "caption-after-pair",
        "pair-caption-after-pair", "interleave-after-pair", "vqa-synth"])
def test_cli_lone_stage_without_its_input_exits_one(tmp_path, monkeypatch, before, stage,
                                                    missing):
    # the first five died with a FileNotFoundError traceback from corpus.read_jsonl
    config = make_workspace(tmp_path)
    config_path = _write_config(tmp_path, config)
    runner = CliRunner()
    for command in before:
        assert runner.invoke(cli_main, [command, "--config", str(config_path)]).exit_code == 0
    calls = []
    complete = MockBackend.complete
    monkeypatch.setattr(MockBackend, "complete",
                        lambda self, *args: calls.append(args) or complete(self, *args))
    result = runner.invoke(cli_main, [stage, "--config", str(config_path)])
    assert calls == []  # it fails before any model call
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: cannot open {Path(config.out_dir) / missing}: ")
    assert "Traceback" not in result.stderr


class _NoCaptionFor(MockBackend):
    """Mock backend that returns an empty caption for one image."""

    def __init__(self, image_id: str):
        self.image_id = image_id

    def complete(self, request, prompt):
        if request.template_id == "single_caption" and self.image_id in prompt:
            return ""
        return super().complete(request, prompt)


def test_run_all_same_bytes_at_one_and_three_workers(tmp_path):
    trees = []
    for workers in (1, 3):
        config = make_workspace(tmp_path, f"workers{workers}")
        with open(Path(config.in_dir) / "corpus.jsonl", "a", encoding="utf-8") as fh:
            fh.write("this is not json\n")
        config.workers = workers
        gateway = Gateway(_NoCaptionFor("c0-001"), retry=RetryPolicy(backoff_base=0.001))
        assert run_all(config, gateway=gateway)[0] == 0
        trees.append((_tree_bytes(config.out_dir), _tree_bytes(config.quarantine_dir)))
    assert trees[0] == trees[1]
    # both the bad input line and the failed model item are quarantined
    assert set(trees[0][1]) == {"annotate.jsonl", "caption.jsonl"}


def test_run_all_decodes_each_file_once(tmp_path, monkeypatch):
    config = make_workspace(tmp_path)
    decoded: list[str] = []

    def counting(fn):
        def wrapper(path, *args, **kwargs):
            decoded.append(Path(path).name)
            return fn(path, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(corpus, "read_shard", counting(corpus.read_shard))
    monkeypatch.setattr(annotation, "read_descriptors",
                        counting(annotation.read_descriptors))
    monkeypatch.setattr(pairing, "read_candidates", counting(pairing.read_candidates))
    code, _ = run_all(config)
    assert code == 0
    assert sorted(decoded) == sorted([
        "corpus.jsonl", "descriptors.jsonl", "pair_candidates.jsonl",
        "pairs_selected.jsonl", "caption1.jsonl", "pair_caption.jsonl",
        "interleaved.jsonl", "vqa1.jsonl"])


def test_run_all_holds_a_published_file_only_while_a_later_stage_reads_it(tmp_path,
                                                                         monkeypatch):
    """Candidates and verdicts, each read by one stage, are not held through
    the later stages: holding them raised ``run_all``'s peak memory over
    6,000 mock records from about 44 to 50 MB."""
    config = make_workspace(tmp_path)
    held = {}
    run = pipeline.run_stage

    def wrapper(stage, *args, **kwargs):
        ingest = pipeline._runs.current[2]
        held[stage] = sorted(path.name for kind, path in ingest._files if kind != "shard")
        return run(stage, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_stage", wrapper)
    assert run_all(config)[0] == 0
    shared = ["descriptors.jsonl", "pairs_selected.jsonl"]
    assert held == {"annotate": [], "pair": [], "filter": shared[:1], "pair-caption": shared[:1],
                    "caption": shared, "interleave": shared, "vqa-synth": [], "kd-score": [],
                    "mix": [], "stats": []}


def test_run_all_runs_each_stage_through_the_module_run_stage(tmp_path, monkeypatch):
    """perfbench's per-stage spans wrap ``pipeline.run_stage`` as this test does."""
    config = make_workspace(tmp_path)
    stages = []
    run = pipeline.run_stage

    def wrapper(*args, **kwargs):
        stages.append(args[0] if args else kwargs["stage"])
        return run(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_stage", wrapper)
    assert run_all(config)[0] == 0
    assert stages == [s.name for s in pipeline.STAGES]


def test_stage_stores_replies_in_its_out_dir_whatever_store_the_gateway_holds(tmp_path):
    """Resume reads ``out_dir/.work/replies.log``, so a run stores its replies
    there, and then gives the gateway its own store back."""
    config = make_workspace(tmp_path)
    gateway = Gateway(MockBackend(), retry=RetryPolicy(backoff_base=0.001))
    with ReplyStore(tmp_path / "other.log") as other:
        gateway.store = other
        assert run_stage("annotate", config, gateway=gateway)["llm_calls"] > 0
        assert gateway.store is other
    assert not (tmp_path / "other.log").exists()
    assert (Path(config.out_dir) / ".work" / "replies.log").stat().st_size > 0
    assert run_stage("annotate", config)["llm_calls"] == 0


def test_run_all_parses_each_json_reply_once(tmp_path, monkeypatch):
    config = make_workspace(tmp_path)
    json_requests: list[str] = []
    parses: list[str] = []
    complete, extract_json = Gateway.complete, jsonx.extract_json

    def counting_complete(self, request, *args, **kwargs):
        if REGISTRY[request.template_id].expected_output in (jsonx.JSON_LIST,
                                                             jsonx.JSON_OBJECT):
            json_requests.append(request.template_id)
        return complete(self, request, *args, **kwargs)

    def counting_extract(text, expected):
        parses.append(expected)
        return extract_json(text, expected)

    monkeypatch.setattr(Gateway, "complete", counting_complete)
    monkeypatch.setattr(jsonx, "extract_json", counting_extract)
    code, stats = run_all(config)
    assert code == 0
    assert sum(s["quarantined"] for s in stats) == 0
    # every JSON reply is decoded once, by the gateway's check
    assert len(json_requests) == 62
    assert len(parses) == len(json_requests)


def test_ingest_rereads_republished_shard(tmp_path, monkeypatch):
    path = tmp_path / "shard.jsonl"
    corpus.write_shard(make_corpus(n_caption=3, n_vqa=0, n_text=0, n_other=0), path)
    calls = []
    read_shard = corpus.read_shard

    def counting(p, *args, **kwargs):
        calls.append(p)
        return read_shard(p, *args, **kwargs)

    monkeypatch.setattr(corpus, "read_shard", counting)
    ingest = pipeline.Ingest()
    first = ingest.shard(path)
    assert ingest.shard(path) is first and len(calls) == 1
    # same size and timestamps, new content: only the rename shows the change
    st = os.stat(path)
    changed = [dataclasses.replace(r, payload={"caption": r.payload["caption"].upper()})
               for r in first]
    corpus.write_shard(changed, path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.stat(path).st_size == st.st_size
    second = ingest.shard(path)
    assert len(calls) == 2
    assert [r.payload for r in second] == [r.payload for r in changed]
    assert [r.payload for r in second] != [r.payload for r in first]


def test_ingest_keeps_lines_not_object_graphs(tmp_path):
    """An ingested record keeps its line and the fields stages select on, not
    its decoded payload: about 570 bytes per record of this corpus, where
    records holding their payload objects took about 1,190."""
    path = tmp_path / "shard.jsonl"
    write_shard(make_corpus(n_caption=1000, n_vqa=1000, n_text=1000, n_other=1000, seed=3),
                path)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ingest = pipeline.Ingest()
        records = ingest.shard(path)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) == 4000
    assert retained / len(records) < 760


def test_ingest_rereads_a_shard_rewritten_in_place_with_its_mtime_restored(tmp_path):
    path = tmp_path / "shard.jsonl"
    write_shard(make_corpus(), path)
    ingest = pipeline.Ingest()
    before = ingest.shard(path)
    st = os.stat(path)
    data = path.read_bytes()
    time.sleep(0.02)  # past the file system's timestamp granularity
    with open(path, "r+b") as fh:  # in place, at the same size: the inode stays
        fh.write(data.replace(b"harbor", b"HARBOR"))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    after = ingest.shard(path)
    assert not any("HARBOR" in r._line for r in before)
    assert any("HARBOR" in r._line for r in after)
    assert [r._line for r in after] == [r._line for r in read_shard(path)]


def test_mix_writes_the_same_bytes_with_the_plain_bit_off(tmp_path, monkeypatch):
    """A spliced line is the line ``record_to_json`` writes: a pool whose every
    other line is not plain gives the mixture that no plain line gives."""
    calls = []
    write = corpus.record_to_json
    monkeypatch.setattr(corpus, "record_to_json",
                        lambda *args: calls.append(args) or write(*args))
    trees, written = {}, {}
    for name in ("plain", "forced_off"):
        config = make_workspace(tmp_path, name)
        shard = Path(config.in_dir) / "corpus.jsonl"
        lines = shard.read_text(encoding="utf-8").splitlines()
        shard.write_text("".join((json.dumps(json.loads(line)) if i % 2 else line) + "\n"
                                 for i, line in enumerate(lines)), encoding="utf-8")
        if name == "forced_off":
            monkeypatch.setattr(corpus, "_match_plain", lambda *args: False)
        calls.clear()
        assert run_stage("mix", config)["out"] == 20
        trees[name] = _tree_bytes(Path(config.out_dir) / "mixture")
        written[name] = len(calls)
    assert trees["plain"] == trees["forced_off"]
    assert 0 < written["plain"] < written["forced_off"] == 20


def test_second_mix_over_unchanged_workspace_reads_no_shard(tmp_path, monkeypatch):
    config = make_workspace(tmp_path)
    with open(Path(config.in_dir) / "corpus.jsonl", "a", encoding="utf-8") as fh:
        fh.write("this is not json\n")
    assert run_all(config)[0] == 0
    run_stage("mix", config)
    out, quarantine = _tree_bytes(config.out_dir), _tree_bytes(config.quarantine_dir)
    assert quarantine["mix.jsonl"]
    calls = []
    read = corpus.read_shard

    def counting(path, *args, **kwargs):
        calls.append(path)
        return read(path, *args, **kwargs)

    monkeypatch.setattr(corpus, "read_shard", counting)
    stats = run_stage("mix", config)
    assert calls == []
    assert stats["quarantined"] == 1
    assert _tree_bytes(config.out_dir) == out
    assert _tree_bytes(config.quarantine_dir) == quarantine


def test_mix_after_a_same_size_rewrite_with_restored_mtime_reads_the_new_bytes(tmp_path):
    """A run reuses the last run's shards only under the same stat identity,
    whose ctime ``os.utime`` cannot restore."""
    config = make_workspace(tmp_path)
    shard = Path(config.in_dir) / "corpus.jsonl"
    mixture_path = Path(config.out_dir) / "mixture" / "mixture.jsonl"
    run_stage("mix", config)
    before = mixture_path.read_bytes()
    assert b"overall?" in before and b"OVERALL?" not in before
    st = os.stat(shard)
    data = shard.read_bytes()
    time.sleep(0.02)  # past the file system's timestamp granularity
    with open(shard, "r+b") as fh:  # in place, at the same size: the inode stays
        fh.write(data.replace(b"overall?", b"OVERALL?"))
    os.utime(shard, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert (os.stat(shard).st_ino, os.stat(shard).st_size) == (st.st_ino, st.st_size)
    run_stage("mix", config)
    assert mixture_path.read_bytes() == before.replace(b"overall?", b"OVERALL?")


def test_a_run_reuses_the_shards_of_the_last_run_only(tmp_path, monkeypatch):
    configs = {name: make_workspace(tmp_path, name) for name in "ab"}
    calls = []
    read = corpus.read_shard

    def counting(path, *args, **kwargs):
        calls.append(Path(path).parent.parent.name)
        return read(path, *args, **kwargs)

    monkeypatch.setattr(corpus, "read_shard", counting)
    for name in "abaa":
        run_stage("mix", configs[name])
    # b's run held b's shards alone, so a is read again after it, then reused
    assert calls == ["a", "b", "a"]


def test_run_all_leaves_only_the_lock_and_the_reply_store_in_work(tmp_path):
    config = make_workspace(tmp_path)
    assert run_all(config)[0] == 0
    assert sorted(p.name for p in (Path(config.out_dir) / ".work").iterdir()) == [
        "lock", "replies.log"]


class _BadFirstReply(MockBackend):
    """Breaks the contract of the first reply it gives, then answers as the mock."""

    def __init__(self):
        self.calls = 0

    def complete(self, request, prompt):
        self.calls += 1
        return "no JSON here" if self.calls == 1 else super().complete(request, prompt)


def test_stage_stats_report_reasks(tmp_path):
    config = make_workspace(tmp_path, corpus=make_corpus(n_caption=1, n_vqa=0, n_text=0,
                                                         n_other=0))
    gateway = Gateway(_BadFirstReply(), retry=RetryPolicy(backoff_base=0.001))
    stats = run_stage("annotate", config, gateway=gateway)
    assert (stats["reasked"], stats["llm_calls"], stats["retried"]) == (1, 2, 0)
    assert (stats["in"], stats["out"], stats["quarantined"]) == (1, 1, 0)


def test_ingest_quarantines_a_bad_line_once(tmp_path):
    path = tmp_path / "shard.jsonl"
    corpus.write_shard(make_corpus(n_caption=2, n_vqa=0, n_text=0, n_other=0), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    ingest = pipeline.Ingest()
    with pytest.raises(ParseError):
        ingest.shard(path)  # no quarantine yet: the bad line raises
    first, second = (Quarantine(tmp_path / "q", name) for name in ("first", "second"))
    assert len(ingest.records([path], first)) == 2
    assert len(ingest.records([path], second)) == 2
    assert (len(first.rows), len(second.rows)) == (1, 0)
    first.publish()
    second.publish()
    assert sorted(p.name for p in (tmp_path / "q").iterdir()) == ["first.jsonl"]
    row = json.loads((tmp_path / "q" / "first.jsonl").read_text(encoding="utf-8"))
    assert (row["work_id"], row["error_code"]) == ("shard.jsonl:3", "parse")


def test_stage_sequence_produces_all_outputs(tmp_path):
    config = make_workspace(tmp_path)
    code, all_stats = run_all(config)
    assert code == 0
    out = Path(config.out_dir)
    for name in ("descriptors.jsonl", "pair_candidates.jsonl", "pair_verdicts.jsonl",
                 "pairs_selected.jsonl", "caption1.jsonl", "pair_caption.jsonl",
                 "interleaved.jsonl", "vqa1.jsonl", "kd_profiles.jsonl",
                 "kd_report.json", "mixture/mixture.jsonl", "corpus_stats.json"):
        assert (out / name).exists(), name
    verify = json.loads((out / "mixture" / "mixture_verify.json").read_text())
    assert verify["pass"] is True
    report = json.loads((out / "kd_report.json").read_text())
    assert report["metadata"]["backend_id"] == "mock"
    assert [s["stage"] for s in all_stats] == [stage.name for stage in pipeline.STAGES]


def test_generated_records_validate_and_mixture_has_no_dupes(tmp_path):
    config = make_workspace(tmp_path)
    run_all(config)
    out = Path(config.out_dir)
    for shard in ("caption1.jsonl", "pair_caption.jsonl", "interleaved.jsonl",
                  "vqa1.jsonl"):
        records = list(read_shard(out / shard))
        assert records, shard
    mix = list(read_shard(out / "mixture" / "mixture.jsonl"))
    assert len(mix) == 20
    assert len({r.id for r in mix}) == 20


def test_empty_input_dir_clean_exit(tmp_path):
    config = make_workspace(tmp_path, corpus=[])
    code, all_stats = run_all(config)
    assert code == 0
    for stats in all_stats:
        assert stats["in"] == 0 and stats["out"] == 0
        assert stats["quarantined"] == 0


def test_missing_input_dir_exits_one_and_publishes_nothing(tmp_path, monkeypatch):
    """A missing ``io.in_dir`` ran every stage over nothing and republished
    empty outputs over the last run's."""
    config = make_workspace(tmp_path)
    config_path = _write_config(tmp_path, config)
    assert run_all(config)[0] == 0
    out, quarantine = _tree_bytes(config.out_dir), _tree_bytes(config.quarantine_dir)
    Path(config.in_dir).rename(tmp_path / "moved")
    calls = []
    complete = MockBackend.complete
    monkeypatch.setattr(MockBackend, "complete",
                        lambda self, *args: calls.append(args) or complete(self, *args))
    result = CliRunner().invoke(cli_main, ["run-all", "--config", str(config_path)])
    assert result.exit_code == 1
    assert result.stderr == f"error: io.in_dir {config.in_dir} is not a directory\n"
    assert calls == []
    assert _tree_bytes(config.out_dir) == out
    assert _tree_bytes(config.quarantine_dir) == quarantine


@pytest.mark.parametrize("key", ["out_dir", "quarantine_dir"])
def test_unusable_directory_exits_one_without_a_traceback(tmp_path, key):
    """A directory below a regular file ended in a NotADirectoryError
    traceback: for io.out_dir when the run took its lock, for
    io.quarantine_dir when the stage published what it quarantined."""
    config = make_workspace(tmp_path)
    with open(Path(config.in_dir) / "corpus.jsonl", "a", encoding="utf-8") as fh:
        fh.write("not json\n")
    afile = tmp_path / "afile"
    afile.write_text("a file", encoding="utf-8")
    doc = _config_doc(Path(config.in_dir).parent)
    doc["io"][key] = str(afile / "dir")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    result = CliRunner().invoke(cli_main, ["stats", "--config", str(config_path)])
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    assert result.stderr.startswith(f"error: io.{key} {afile / 'dir'} is not usable: ")
    assert "Traceback" not in result.stderr
    assert afile.read_text(encoding="utf-8") == "a file"
    if key == "out_dir":  # the run stopped before its first stage
        assert not Path(config.quarantine_dir).exists()


# --- determinism and resume ------------------------------------------------------------

def test_run_all_twice_byte_identical(tmp_path):
    config_a = make_workspace(tmp_path, "a")
    config_b = make_workspace(tmp_path, "b")
    assert run_all(config_a)[0] == 0
    assert run_all(config_b)[0] == 0
    assert _tree_bytes(config_a.out_dir) == _tree_bytes(config_b.out_dir)


def test_rerun_makes_no_model_calls(tmp_path):
    config = make_workspace(tmp_path)
    assert run_all(config)[0] == 0
    tree = _tree_bytes(config.out_dir)
    code, all_stats = run_all(config)
    assert code == 0
    # every stage runs again from its inputs; every reply is read back
    assert [s["stage"] for s in all_stats] == [stage.name for stage in pipeline.STAGES]
    assert [s["llm_calls"] for s in all_stats] == [0] * len(pipeline.STAGES)
    assert _tree_bytes(config.out_dir) == tree


def _fresh_tree(tmp_path: Path, **settings) -> dict[str, bytes]:
    """The tree a fresh workspace publishes with ``settings``."""
    fresh = dataclasses.replace(make_workspace(tmp_path, "fresh"), **settings)
    assert run_all(fresh)[0] == 0
    return _tree_bytes(fresh.out_dir)


def test_changed_pairing_reruns_every_stage(tmp_path):
    config = make_workspace(tmp_path)
    assert run_all(config)[0] == 0
    before = _tree_bytes(config.out_dir)
    config.max_per_image, config.min_contrast = 1, 0.9
    code, all_stats = run_all(config)
    assert code == 0
    assert [s["stage"] for s in all_stats] == [stage.name for stage in pipeline.STAGES]
    assert all_stats[0]["llm_calls"] == 0  # annotate's replies are read back
    tree = _tree_bytes(config.out_dir)
    assert tree != before
    assert tree == _fresh_tree(tmp_path, max_per_image=1, min_contrast=0.9)


def test_kill_and_resume_matches_uninterrupted(tmp_path):
    pristine = make_workspace(tmp_path, "pristine")
    assert run_all(pristine)[0] == 0

    config = make_workspace(tmp_path, "killed")
    killer = Gateway(KillerBackend(limit=7), retry=RetryPolicy(backoff_base=0.001))
    with pytest.raises(KeyboardInterrupt):
        run_all(config, gateway=killer)
    assert killer.store is None  # the run's store was detached and closed

    code, all_stats = run_all(config)
    assert code == 0
    annotate = next(s for s in all_stats if s["stage"] == "annotate")
    assert annotate["llm_calls"] == 14 - 7  # the replies received were read back
    assert _tree_bytes(config.out_dir) == _tree_bytes(pristine.out_dir)


def test_kill_late_stage_and_resume(tmp_path):
    pristine = make_workspace(tmp_path, "pristine")
    assert run_all(pristine)[0] == 0

    config = make_workspace(tmp_path, "killed")
    killer = Gateway(KillerBackend(limit=40), retry=RetryPolicy(backoff_base=0.001))
    with pytest.raises(KeyboardInterrupt):
        run_all(config, gateway=killer)
    assert run_all(config)[0] == 0
    assert _tree_bytes(config.out_dir) == _tree_bytes(pristine.out_dir)


@pytest.mark.parametrize("module, step", [
    # filter: pair_verdicts.jsonl is published, pairs_selected.jsonl is not
    (pipeline.pairing, "select_pairs"),
    # kd-score: kd_profiles.jsonl is published, kd_report.json is not
    (pipeline.knowledge, "build_report"),
    # mix: mixture.jsonl and mixture_plan.json are published, the verify report is not
    (pipeline.mixture, "verify_mixture"),
])
def test_kill_between_stage_outputs_and_resume(tmp_path, monkeypatch, module, step):
    stage = {"select_pairs": "filter", "build_report": "kd-score",
             "verify_mixture": "mix"}[step]
    pristine = make_workspace(tmp_path, "pristine")
    assert run_all(pristine)[0] == 0

    config = make_workspace(tmp_path, "killed")

    def killed(*args, **kwargs):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(module, step, killed)
        with pytest.raises(KeyboardInterrupt):
            run_all(config)
    code, all_stats = run_all(config)
    assert code == 0
    # the stage's replies were stored: no model call is repeated
    resumed = next(s for s in all_stats if s["stage"] == stage)
    assert resumed["llm_calls"] == 0
    assert _tree_bytes(config.out_dir) == _tree_bytes(pristine.out_dir)


def test_resume_after_config_change_matches_fresh_run(tmp_path):
    config = make_workspace(tmp_path)
    killer = Gateway(KillerBackend(limit=5), retry=RetryPolicy(backoff_base=0.001))
    with pytest.raises(KeyboardInterrupt):
        run_all(config, gateway=killer)
    config.min_contrast = 0.9
    code, all_stats = run_all(config)
    assert code == 0
    assert all_stats[0]["llm_calls"] == 14 - 5
    assert _tree_bytes(config.out_dir) == _fresh_tree(tmp_path, min_contrast=0.9)


def test_killed_run_quarantines_a_bad_line_once(tmp_path):
    code, stats = run_all(make_workspace(tmp_path, "pristine"))
    assert code == 0
    # kill the run at the first model call of the caption stage
    stages = [s["stage"] for s in stats]
    limit = sum(s["llm_calls"] for s in stats[:stages.index("caption")])
    config = make_workspace(tmp_path, "killed")
    with open(Path(config.in_dir) / "corpus.jsonl", "a", encoding="utf-8") as fh:
        fh.write("this is not json\n")
    killer = Gateway(KillerBackend(limit=limit), retry=RetryPolicy(backoff_base=0.001))
    with pytest.raises(KeyboardInterrupt):
        run_all(config, gateway=killer)
    assert run_all(config)[0] == 0
    assert [(name, row["work_id"], row["error_code"])
            for name, row in _quarantine_rows(config)] == [
        ("annotate.jsonl", "corpus.jsonl:31", "parse")]


def test_fixed_input_leaves_no_quarantine_rows(tmp_path):
    config = make_workspace(tmp_path)
    shard = Path(config.in_dir) / "corpus.jsonl"
    clean = shard.read_bytes()
    shard.write_bytes(clean + b"this is not json\n")
    assert run_all(config)[0] == 0
    assert len(_quarantine_rows(config)) == 1
    shard.write_bytes(clean)
    assert run_all(config)[0] == 0
    assert list(Path(config.quarantine_dir).iterdir()) == []


class _FailsOnceFor(MockBackend):
    """Mock backend whose first caption request for one image fails in transport."""

    def __init__(self, image_id: str):
        self.image_id = image_id
        self.failed = False

    def complete(self, request, prompt):
        if (request.template_id == "single_caption" and self.image_id in prompt
                and not self.failed):
            self.failed = True
            raise BackendError("http_status", 400)
        return super().complete(request, prompt)


def test_transport_failure_is_asked_again_next_run(tmp_path):
    pristine = make_workspace(tmp_path, "pristine")
    assert run_all(pristine)[0] == 0
    config = make_workspace(tmp_path, "failed")
    gw = Gateway(_FailsOnceFor("c0-001"), retry=RetryPolicy(backoff_base=0.001))
    assert run_all(config, gateway=gw)[0] == 0
    assert [(name, row["work_id"]) for name, row in _quarantine_rows(config)] == [
        ("caption.jsonl", "c0-001")]
    code, all_stats = run_all(config, gateway=gw)
    assert code == 0
    # up to the caption stage only the failed request is sent again, and it succeeds
    assert [(s["stage"], s["llm_calls"]) for s in all_stats[:5]] == [
        ("annotate", 0), ("pair", 0), ("filter", 0), ("pair-caption", 0), ("caption", 1)]
    assert _quarantine_rows(config) == []
    assert _tree_bytes(config.out_dir) == _tree_bytes(pristine.out_dir)


def test_new_comparison_costs_no_model_call(tmp_path):
    config = make_workspace(tmp_path)
    assert run_all(config)[0] == 0
    config.kd_comparisons += (("caption0", "vqa0"),)
    stats = run_stage("kd-score", config)
    assert stats["llm_calls"] == 0
    report = json.loads((Path(config.out_dir) / "kd_report.json").read_text())
    assert [(c["source_a"], c["source_b"]) for c in report["comparisons"]] == [
        ("pair_caption", "caption0"), ("caption0", "vqa0")]


# a run_all that dies at the given backend call, without running any handler
_DIE_AT_CALL = """
import os, sys
from kforge import pipeline
from kforge.gateway import Gateway, MockBackend

class Dying(MockBackend):
    calls = 0

    def complete(self, request, prompt):
        Dying.calls += 1
        if Dying.calls == int(sys.argv[2]):
            os._exit(137)
        return super().complete(request, prompt)

config = pipeline.load_config(sys.argv[1])
pipeline.run_all(config, gateway=Gateway(Dying(), retry=config.retry))
"""


@pytest.mark.parametrize("call", [6, 40])
def test_process_death_in_a_backend_call_resumes_to_the_same_tree(tmp_path, call):
    pristine = make_workspace(tmp_path, "pristine")
    code, stats = run_all(pristine)
    assert code == 0
    config = make_workspace(tmp_path, "killed")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(kforge.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    died = subprocess.run([sys.executable, "-c", _DIE_AT_CALL,
                           str(_write_config(tmp_path, config)), str(call)],
                          env=env, timeout=120)
    assert died.returncode == 137
    code, resumed = run_all(config)
    assert code == 0
    # every reply received before the death reached the store
    assert (sum(s["llm_calls"] for s in resumed)
            == sum(s["llm_calls"] for s in stats) - (call - 1))
    assert _tree_bytes(config.out_dir) == _tree_bytes(pristine.out_dir)


class _Sampling(MockBackend):
    """A backend whose every reply differs, like a sampling model's; ``seen``
    holds the bytes of the store at ``path`` at each call."""

    def __init__(self, path: Path):
        self.path = path
        self.calls: list[str] = []
        self.seen: list[bytes] = []

    def complete(self, request, prompt):
        self.calls.append(request.bindings["image"])
        self.seen.append(self.path.read_bytes() if self.path.exists() else b"")
        return f"reply {len(self.calls)} to {request.bindings['image']}"


def _caption(image: str) -> LlmRequest:
    return LlmRequest("single_caption", {"image": image}, (f"file:///{image}.jpg",))


@pytest.mark.parametrize("tail", [
    '+{"id":"c","v',  # torn half line
    "\0" * 64 + "\n",  # zero-filled block left by an OS crash
])
def test_resume_reprocesses_uncommitted_item_once(tmp_path, tail):
    path = tmp_path / ".work" / "replies.log"
    backend = _Sampling(path)
    with Gateway(backend) as gw, ReplyStore(path) as gw.store:
        assert gw.complete(_caption("a")) == "reply 1 to a"
        committed = path.read_bytes()
        gw.complete(_caption("b"))
    b_line = path.read_bytes()[len(committed):]
    # killed while b's reply was reaching the disk
    path.write_bytes(committed + b_line[:len(b_line) // 2] + tail.encode("utf-8"))
    with Gateway(backend) as gw, ReplyStore(path) as gw.store:
        assert [gw.complete(_caption(i)) for i in "ab"] == ["reply 1 to a", "reply 3 to b"]
    assert backend.calls == ["a", "b", "b"]  # b is asked for again, once
    assert backend.seen[2] == committed  # the torn tail was cut off first
    with Gateway(backend) as gw, ReplyStore(path) as gw.store:
        assert gw.complete(_caption("b")) == "reply 3 to b"
    assert backend.calls == ["a", "b", "b"]


def test_empty_journal_starts_stage_afresh(tmp_path):
    # killed before the first reply reached the store: the file exists but is empty
    config = make_workspace(tmp_path)
    work = Path(config.out_dir) / ".work"
    work.mkdir(parents=True)
    (work / "replies.log").write_bytes(b"")
    stats = run_stage("annotate", config)
    assert stats["llm_calls"] == 14 and stats["out"] == 14
    assert len((work / "replies.log").read_bytes().splitlines()) == 14


class _Clock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def _record_durability_calls(monkeypatch) -> list[tuple]:
    """Log os.fsync (by inode), os.replace and Path.unlink in call order."""
    events: list[tuple] = []
    real_fsync, real_replace, real_unlink = os.fsync, os.replace, Path.unlink

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", Path(dst)))
        real_replace(src, dst)

    def unlink(self, *args, **kwargs):
        events.append(("unlink", Path(self)))
        real_unlink(self, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(Path, "unlink", unlink)
    return events


def test_journal_fsynced_at_most_once_per_interval(tmp_path, monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(gateway.time, "monotonic", clock)
    events = _record_durability_calls(monkeypatch)
    path = tmp_path / ".work" / "replies.log"
    with Gateway(_Sampling(path)) as gw, ReplyStore(path) as gw.store:
        for step, image, fsyncs in ((0, "a", 0), (0.5, "b", 0), (0.5, "c", 1),
                                    (0.75, "d", 1), (0.25, "e", 2)):
            clock.now += gateway.SYNC_INTERVAL_S * step
            gw.complete(_caption(image))
            # each reply reaches the kernel at once, so a killed process keeps it
            assert path.read_text(encoding="utf-8").endswith(f' to {image}"\n')
            assert events == [("fsync", path.stat().st_ino)] * fsyncs


def test_stage_publishes_each_output_durably(tmp_path, monkeypatch):
    config = make_workspace(tmp_path)
    run_stage("annotate", config)
    run_stage("pair", config)
    monkeypatch.setattr(gateway.time, "monotonic", _Clock())
    events = _record_durability_calls(monkeypatch)
    stats = run_stage("filter", config)
    out = Path(config.out_dir)
    directory = out.stat().st_ino
    expected = []
    for name in ("pair_verdicts.jsonl", "pairs_selected.jsonl"):
        # the temp file's inode, renamed into place
        expected += [("fsync", (out / name).stat().st_ino), ("replace", out / name),
                     ("fsync", directory)]
    # the stage quarantined nothing, so no quarantine file is left
    assert events == expected + [("unlink", Path(config.quarantine_dir) / "filter.jsonl")]
    verdicts = (out / "pair_verdicts.jsonl").read_text(encoding="utf-8").splitlines()
    assert stats["out"] == len(verdicts) > 0


# --- cli --------------------------------------------------------------------------------

def _write_config(tmp_path: Path, config: PipelineConfig) -> Path:
    """Write the config document of ``make_workspace``'s workspace."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config_doc(Path(config.in_dir).parent)), encoding="utf-8")
    return path


# holds a lock file until its stdin closes
_HOLD_LOCK = """
import fcntl, sys
with open(sys.argv[1], "ab") as fh:
    fcntl.flock(fh, fcntl.LOCK_EX)
    print("held", flush=True)
    sys.stdin.read()
"""


def test_second_process_on_one_out_dir_exits_1_naming_the_lock(tmp_path):
    config = make_workspace(tmp_path)
    config_path = str(_write_config(tmp_path, config))
    lock = Path(config.out_dir) / ".work" / "lock"
    lock.parent.mkdir(parents=True)
    holder = subprocess.Popen([sys.executable, "-c", _HOLD_LOCK, str(lock)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline() == "held\n"
        for command in ("run-all", "annotate", "mix"):
            result = CliRunner().invoke(cli_main, [command, "--config", config_path])
            assert result.exit_code == 1
            assert result.stderr.startswith("error: ")
            assert str(lock) in result.stderr
    finally:
        holder.communicate("", timeout=60)
    assert sorted(p.name for p in Path(config.out_dir).rglob("*")) == [".work", "lock"]
    assert run_all(config)[0] == 0


def test_cli_annotate_emits_stats(tmp_path):
    config = make_workspace(tmp_path)
    config_path = _write_config(tmp_path, config)
    result = CliRunner().invoke(cli_main, ["annotate", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    stats = json.loads(result.output.strip().splitlines()[-1])
    assert stats["stage"] == "annotate"
    assert stats["out"] == 14


def test_cli_run_all_and_exit_codes(tmp_path):
    config = make_workspace(tmp_path)
    config_path = _write_config(tmp_path, config)
    result = CliRunner().invoke(cli_main, ["run-all", "--config", str(config_path)])
    assert result.exit_code == 0, result.output


def test_cli_strict_failure_exit_one(tmp_path):
    config = make_workspace(tmp_path)
    shard = Path(config.in_dir) / "corpus.jsonl"
    with open(shard, "a", encoding="utf-8") as fh:
        fh.write("broken line\n")
    config_path = _write_config(tmp_path, config)
    result = CliRunner().invoke(cli_main, ["annotate", "--config", str(config_path),
                                           "--strict"])
    assert result.exit_code == 1


def test_cli_config_error_exit_two(tmp_path, monkeypatch):
    monkeypatch.delenv("KF_LLM_ENDPOINT", raising=False)
    monkeypatch.delenv("KF_LLM_MODEL", raising=False)
    config = make_workspace(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "io": {"in_dir": config.in_dir, "out_dir": config.out_dir,
               "quarantine_dir": config.quarantine_dir},
        "backend": {"kind": "http"},
    }), encoding="utf-8")
    result = CliRunner().invoke(cli_main, ["run-all", "--config", str(bad)])
    assert result.exit_code == 2


def _run_all_rejected_up_front(tmp_path, config, message):
    """``run_all`` raises before any model call, and ``kforge run-all`` exits 2
    with nothing published and no stats line."""
    gateway = Gateway(MockBackend())
    with pytest.raises(KforgeError) as err:
        run_all(config, gateway=gateway)
    assert str(err.value) == message
    assert gateway.stats.snapshot() == {"llm_calls": 0, "retries": 0, "reasks": 0}
    doc = json.loads(_write_config(tmp_path, config).read_text(encoding="utf-8"))
    doc["seed"], doc["mixture"]["spec"] = config.seed, config.mixture_spec
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    result = CliRunner().invoke(cli_main, ["run-all", "--config", str(config_path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"config error: {message}\n"
    assert [p for p in Path(config.out_dir).rglob("*") if p.is_file()] == []


def test_run_all_without_seed_fails_before_any_stage(tmp_path):
    config = make_workspace(tmp_path)
    config.seed = None
    _run_all_rejected_up_front(tmp_path, config,
                               "interleave grouping samples; config needs a seed")


@pytest.mark.parametrize("spec, content, message", [
    ("builtin:nope", None,
     "unknown builtin mixture 'nope'; known: " + ", ".join(mixture.BUILTIN_NAMES)),
    # a spec file that is missing or not JSON crashed with a traceback
    ("missing.json", None,
     "cannot read mixture spec {path}: [Errno 2] No such file or directory: '{path}'"),
    ("bad.json", "not json",
     "cannot read mixture spec {path}: Expecting value: line 1 column 1 (char 0)"),
], ids=["builtin-nope", "missing-file", "not-json"])
def test_run_all_with_bad_mixture_spec_fails_before_any_stage(tmp_path, spec, content,
                                                             message):
    config = make_workspace(tmp_path)
    path = spec if spec.startswith("builtin:") else str(tmp_path / spec)
    if content is not None:
        Path(path).write_text(content, encoding="utf-8")
    config.mixture_spec = path
    _run_all_rejected_up_front(tmp_path, config, message.format(path=path))


@pytest.mark.parametrize("patch, key", [
    ({"backend": {"in_flight": 0}}, "backend.in_flight"),
    ({"backend": {"rps": 0}}, "backend.rps"),
    ({"backend": {"rps": -1}}, "backend.rps"),
    ({"backend": {"rps": "2.5"}}, "backend.rps"),
    ({"backend": {"in_fligth": 2}}, "in_fligth"),
    # each value below crashed with a traceback, some after model calls and publishes
    (None, "config must be a JSON object"),  # the document is []
    ({"io": {"in_dir": 5}}, "io.in_dir"),
    ({"mixture": {"spec": 5}}, "mixture.spec"),
    ({"backend": {"kind": "http", "endpoint": 5, "model": "m"}}, "backend.endpoint"),
    ({"pairing": {"min_contrast": 2}}, "pairing.min_contrast"),
    ({"pairing": {"max_per_image": 0}}, "pairing.max_per_image"),
    ({"interleave": {"min_group": 1}}, "interleave.min_group"),
    ({"kd": {"comparisons": [["caption0"]]}}, "kd.comparisons"),
], ids=["in_flight-0", "rps-0", "rps-negative", "rps-string", "unknown-key", "not-an-object",
        "in_dir", "mixture-spec", "endpoint", "min_contrast", "max_per_image",
        "min_group", "kd-comparisons"])
def test_cli_gateway_config_errors_exit_two(tmp_path, patch, key):
    config = make_workspace(tmp_path)
    config_path = _write_config(tmp_path, config)
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    for section, values in (patch or {}).items():
        doc.setdefault(section, {}).update(values)
    config_path.write_text(json.dumps(doc if patch else []), encoding="utf-8")
    result = CliRunner().invoke(cli_main, ["run-all", "--config", str(config_path)])
    assert result.exit_code == 2
    assert result.output.startswith("config error: ")
    assert key in result.output
    assert not Path(config.out_dir).exists()


def _shard_config(tmp_path: Path, shard_dir: Path) -> Path:
    """A minimal config that reads ``shard_dir`` and publishes under ``tmp_path/out``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"io": {
        "in_dir": str(shard_dir), "out_dir": str(tmp_path / "out"),
        "quarantine_dir": str(tmp_path / "quarantine")}}), encoding="utf-8")
    return path


def test_cli_mix_standalone(tmp_path, shard_dir):
    """`kforge mix` run on its own, the spec and its sizing set by flags."""
    result = CliRunner().invoke(cli_main, [
        "mix", "--config", str(_shard_config(tmp_path, shard_dir)),
        "--spec", "builtin:baseline", "--budget", "20", "--seed", "3"])
    assert result.exit_code == 0, result.output
    out = tmp_path / "out" / "mixture"
    assert (out / "mixture.jsonl").exists()
    plan = json.loads((out / "mixture_plan.json").read_text())
    assert plan["targets"] == {"caption": 6, "vqa": 3, "pure_text": 8, "other": 3}


def test_cli_mix_spec_file_needs_no_config_seed(tmp_path, shard_dir):
    """A spec file carries its own seed, budget and unit, so a config
    without a seed runs it."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec_doc()), encoding="utf-8")
    result = CliRunner().invoke(cli_main, [
        "mix", "--config", str(_shard_config(tmp_path, shard_dir)), "--spec", str(spec_path)])
    assert result.exit_code == 0, result.output
    out = tmp_path / "out" / "mixture"
    plan = json.loads((out / "mixture_plan.json").read_text())
    assert (plan["spec"], plan["budget"], plan["unit"]) == ("fixture_mix", 20, "samples")
    lines = (out / "mixture.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 20
    assert {json.loads(line)["meta"]["mixture_spec"] for line in lines} == {"fixture_mix"}


@pytest.mark.parametrize("args, mixture_keys, key", [
    (["--budget", "999"], {}, "mixture.budget"),
    (["--unit", "tokens"], {}, "mixture.unit"),
    ([], {"budget": 20}, "mixture.budget"),
    ([], {"unit": "samples"}, "mixture.unit"),
], ids=["budget-flag", "unit-flag", "budget-key", "unit-key"])
def test_cli_mix_spec_file_rejects_budget_and_unit(tmp_path, args, mixture_keys, key):
    """A budget or unit set beside a spec file, by flag or by config key,
    exits 2 naming the key instead of being ignored, even when it equals
    the file's own value."""
    config = make_workspace(tmp_path)
    config_path = _write_config(tmp_path, config)
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    doc["mixture"].update(mixture_keys)
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    result = CliRunner().invoke(cli_main, ["mix", "--config", str(config_path), *args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (f"config error: {key} applies to builtin: specs only; "
                             f"the spec file {config.mixture_spec} sets its own\n")
    assert not Path(config.out_dir).exists()


@pytest.mark.parametrize("policy, message", [
    ({"min_items": 0}, "vqa_policy.min_items must be >= 1 and <= max_items"),
    ({"min_items": 6, "max_items": 5}, "vqa_policy.min_items must be >= 1 and <= max_items"),
    ({"detail_to_global_min_ratio": 0}, "vqa_policy.detail_to_global_min_ratio must be > 0"),
    ({"grounding_min_overlap": -0.5}, "vqa_policy.grounding_min_overlap must be > 0"),
], ids=["min_items", "min_above_max", "ratio", "grounding"])
def test_vqa_policy_range_error_names_its_key(tmp_path, policy, message):
    config = make_workspace(tmp_path)
    doc = json.loads(_write_config(tmp_path, config).read_text(encoding="utf-8"))
    doc["vqa_policy"] = policy
    with pytest.raises(ConfigInvalid, match=f"^{message}$"):
        config_from_obj(doc)


# one value each setting refuses, and the exact message; written out, not
# built from pipeline.SETTINGS, so that it checks the table
_BAD_VALUES = [
    ("io.in_dir", 5, "io.in_dir must be a string"),
    ("io.out_dir", None, "io.out_dir must be a string"),
    ("io.quarantine_dir", ["q"], "io.quarantine_dir must be a string"),
    ("backend.kind", "grpc", "unknown backend kind 'grpc'"),
    ("backend.endpoint", 5, "backend.endpoint must be a string or null"),
    ("backend.model", ["m"], "backend.model must be a string or null"),
    ("backend.api_key", 5, "backend.api_key must be a string or null"),
    ("backend.rps", "2.5", "backend.rps must be null or a number > 0, got '2.5'"),
    ("backend.in_flight", 0, "backend.in_flight must be >= 1"),
    ("backend.retry.max_attempts", 0, "backend.retry.max_attempts must be >= 1"),
    ("backend.retry.backoff_base", -1,
     "backend.retry.backoff_base must be a finite number >= 0, got -1.0"),
    ("backend.retry.backoff_base", float("nan"),
     "backend.retry.backoff_base must be a finite number >= 0, got nan"),
    ("backend.retry.backoff_factor", float("inf"),
     "backend.retry.backoff_factor must be a finite number >= 0, got inf"),
    ("pairing.max_per_image", 0, "pairing.max_per_image must be >= 1"),
    ("pairing.min_contrast", 2, "pairing.min_contrast must be within [0, 1]"),
    ("vqa_policy.min_items", 0, "vqa_policy.min_items must be >= 1 and <= max_items"),
    ("vqa_policy.max_items", 2.5, "vqa_policy.max_items must be a whole number, got 2.5"),
    ("vqa_policy.max_items", 4, "vqa_policy.min_items must be >= 1 and <= max_items"),
    ("vqa_policy.min_global", 99, "vqa_policy.min_global must be >= 0 and <= max_items"),
    ("vqa_policy.min_global", -1, "vqa_policy.min_global must be >= 0 and <= max_items"),
    ("vqa_policy.detail_to_global_min_ratio", 0,
     "vqa_policy.detail_to_global_min_ratio must be > 0"),
    ("vqa_policy.grounding_min_overlap", -0.5, "vqa_policy.grounding_min_overlap must be > 0"),
    ("interleave.min_group", 1, "interleave.min_group must be >= 3 and <= max_group"),
    ("interleave.max_group", "x", "interleave.max_group must be a whole number, got 'x'"),
    ("mixture.spec", 5, "mixture.spec must be a string"),
    ("mixture.budget", 0, "mixture.budget must be >= 1"),
    ("mixture.unit", "bytes", "mixture.unit must be samples or tokens, got 'bytes'"),
    ("mixture.rebalance", "yes", "mixture.rebalance must be true or false, got 'yes'"),
    ("kd.comparisons", 5, "kd.comparisons must be a list of source-name pairs, got 5"),
    ("kd.comparisons", [["a"]], "kd.comparisons entries must be two source names, got ['a']"),
    ("kd.comparisons", ["ab"], "kd.comparisons entries must be two source names, got 'ab'"),
    ("seed", "abc", "seed must be a whole number, got 'abc'"),
    ("workers", 0, "workers must be >= 1"),
    # true and false are no numbers
    ("workers", True, "workers must be a whole number, got True"),
    ("seed", False, "seed must be a whole number, got False"),
    ("pairing.min_contrast", True, "pairing.min_contrast must be a number, got True"),
]


def test_bad_values_cover_every_setting():
    assert {key for key, _, _ in _BAD_VALUES} == {s.key for s in pipeline.SETTINGS}


@pytest.mark.parametrize("key, value, message", _BAD_VALUES)
def test_every_setting_refuses_its_bad_value(tmp_path, monkeypatch, key, value, message):
    """A value outside its setting's row exits 2 naming the key, before any
    model call and with nothing published."""
    config = make_workspace(tmp_path)
    config_path = _write_config(tmp_path, config)
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    *sections, name = key.split(".")
    section = doc
    for part in sections:
        section = section.setdefault(part, {})
    section[name] = value
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    calls = []
    monkeypatch.setattr(MockBackend, "complete", lambda self, *a: calls.append(a))
    result = CliRunner().invoke(cli_main, ["run-all", "--config", str(config_path)])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"config error: {message}\n"
    assert calls == []
    assert not Path(config.out_dir).exists()
    assert not Path(config.quarantine_dir).exists()


def test_cli_kd_score_standalone(tmp_path, shard_dir):
    """`kforge kd-score` run on its own, the comparison set by a flag."""
    result = CliRunner().invoke(cli_main, [
        "kd-score", "--config", str(_shard_config(tmp_path, shard_dir)),
        "--compare", "caption0:vqa0"])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "out" / "kd_report.json").read_text())
    assert report["comparisons"][0]["source_a"] == "caption0"
    assert set(report["per_source"]) == {"caption0", "vqa0", "pure_text"}


def test_cli_surface():
    result = CliRunner().invoke(cli_main, ["--help"])
    assert result.exit_code == 0
    listed = [line.split()[0] for line in result.output.split("Commands:")[1].splitlines()
              if line.strip()]
    assert listed == ["annotate", "caption", "filter", "interleave", "kd-score", "mix",
                      "pair", "pair-caption", "run-all", "stats", "vqa-synth"]
    common = {"--config", "--strict", "--seed"}
    expected = {
        "annotate": common, "filter": common, "caption": common, "pair-caption": common,
        "interleave": common, "stats": common, "run-all": common,
        "pair": common | {"--max-per-image", "--min-contrast"},
        "vqa-synth": common | {"--min-items", "--max-items", "--ratio", "--grounding"},
        "kd-score": common | {"--compare"},
        "mix": common | {"--spec", "--budget", "--unit", "--rebalance"},
    }
    assert {name: {opt for param in command.params for opt in param.opts}
            for name, command in cli_main.commands.items()} == expected
    assert all(param.required for command in cli_main.commands.values()
               for param in command.params if param.name == "config_path")


def test_stage_commands_publish_the_run_all_tree(tmp_path):
    """The ten stage commands run one by one in ``STAGES`` order publish the
    bytes and print the stats lines that ``run-all`` does."""
    whole = make_workspace(tmp_path, "whole")
    staged = make_workspace(tmp_path, "staged")
    runner = CliRunner()
    result = runner.invoke(cli_main, ["run-all", "--config",
                                      str(_write_config(tmp_path / "whole", whole))])
    assert result.exit_code == 0, result.output
    expected_stats = [json.loads(line) for line in result.stdout.splitlines()]
    config_path = str(_write_config(tmp_path / "staged", staged))
    stats = []
    for stage in pipeline.STAGES:
        result = runner.invoke(cli_main, [stage.name, "--config", config_path])
        assert result.exit_code == 0, result.output
        stats.append(json.loads(result.stdout))
    assert stats == expected_stats
    assert _tree_bytes(staged.out_dir) == _tree_bytes(whole.out_dir)


@pytest.mark.parametrize("args, key", [
    # these two crashed with a traceback, the first after all its model calls
    (["kd-score", "--compare", "caption0"], "kd.comparisons"),
    (["vqa-synth", "--min-items", "0"], "vqa_policy.min_items must be >= 1 and <= max_items\n"),
    (["pair", "--min-contrast", "2"], "pairing.min_contrast"),
    (["pair", "--max-per-image", "0"], "pairing.max_per_image"),
    (["mix", "--spec", "builtin:nope"], "'nope'"),
    (["mix", "--spec", "{tmp}/missing.json"], "missing.json"),
], ids=["compare", "min-items", "min-contrast", "max-per-image", "builtin-spec",
        "missing-spec"])
def test_cli_stage_flag_errors_exit_two(tmp_path, monkeypatch, args, key):
    """A bad flag value exits 2 naming its key, before any model call and
    with nothing published."""
    config = make_workspace(tmp_path)
    config_path = _write_config(tmp_path, config)
    calls = []
    monkeypatch.setattr(MockBackend, "complete", lambda self, *a: calls.append(a))
    result = CliRunner().invoke(cli_main, [
        args[0], "--config", str(config_path),
        *(arg.format(tmp=tmp_path) for arg in args[1:])])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("config error: ")
    assert key in result.stderr
    assert calls == []
    assert not Path(config.out_dir).exists()


# a command line for each stage flag, and the value it gives its config field
_FLAG_CASES = [
    ("annotate", ["--seed", "7"], "seed", 7),
    ("pair", ["--max-per-image", "1"], "max_per_image", 1),
    ("pair", ["--min-contrast", "0.9"], "min_contrast", 0.9),
    ("vqa-synth", ["--min-items", "6"], "vqa_policy.min_items", 6),
    ("vqa-synth", ["--max-items", "14"], "vqa_policy.max_items", 14),
    ("vqa-synth", ["--ratio", "3"], "vqa_policy.detail_to_global_min_ratio", 3.0),
    ("vqa-synth", ["--grounding", "0.6"], "vqa_policy.grounding_min_overlap", 0.6),
    ("kd-score", ["--compare", "caption0:vqa0", "--compare", "a:b"], "kd_comparisons",
     (("caption0", "vqa0"), ("a", "b"))),
    ("mix", ["--spec", "builtin:caption_only"], "mixture_spec", "builtin:caption_only"),
    ("mix", ["--budget", "20"], "mixture_budget", 20),
    ("mix", ["--unit", "tokens"], "mixture_unit", "tokens"),
    ("mix", ["--rebalance"], "rebalance", True),
]


def test_every_flag_patches_its_config_key(tmp_path, monkeypatch):
    """Each flag sets a key that ``config_from_obj`` accepts, and the parsed
    config differs from the file's in that key's field alone."""
    flags = {opt for options in cli._OVERRIDES.values() for option in options.values()
             for opt in option.opts}
    assert {args[0] for _, args, _, _ in _FLAG_CASES} == flags | {"--seed"}
    config_path = _write_config(tmp_path, make_workspace(tmp_path))
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    doc["mixture"]["spec"] = "builtin:baseline"  # --budget and --unit size builtin specs only
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    base = pipeline.load_config(config_path)
    configs = []
    monkeypatch.setattr(pipeline, "run_stage", lambda stage, config, strict:
                        configs.append(config) or {"strict_failure": False})
    for stage, args, field, value in _FLAG_CASES:
        result = CliRunner().invoke(cli_main, [stage, "--config", str(config_path), *args])
        assert result.exit_code == 0, result.output
        section, _, name = field.rpartition(".")
        expected = (dataclasses.replace(base, **{name: value}) if not section else
                    dataclasses.replace(base, **{section: dataclasses.replace(
                        getattr(base, section), **{name: value})}))
        assert configs.pop() == expected != base, args


def test_readme_commands_match_the_cli():
    """Every ``kforge <command> ...`` line in README.md's code blocks names a
    registered command and only options of that command."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [line.strip() for block in blocks
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [line.split() for line in lines if line.startswith("kforge ")]
    assert len(commands) >= 3
    for _, name, *args in commands:
        assert name in cli_main.commands, name
        options = {opt for param in cli_main.commands[name].params for opt in param.opts}
        for arg in (arg.strip("[]") for arg in args):
            assert not arg.startswith("-") or arg in options, (name, arg)


def test_readme_config_example_parses(monkeypatch):
    """README's config example is a valid document showing the defaults,
    except the mixture budget and the seed, as its text says."""
    for name in ("KF_LLM_ENDPOINT", "KF_LLM_MODEL", "KF_LLM_API_KEY"):
        monkeypatch.delenv(name, raising=False)
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^### Config\n\n```json\n(.*?)^```", readme, flags=re.M | re.S)
    config = config_from_obj(json.loads(example.group(1)))
    assert config == dataclasses.replace(
        PipelineConfig("corpus/in", "corpus/out", "corpus/quarantine"),
        mixture_budget=100000, seed=5)


def test_readme_config_table_matches_the_settings():
    """README's config table names the keys of ``pipeline.SETTINGS`` in its
    order, each with its default and its flag, and nothing else."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([\w.]+)` \| (.*?) \| .*? \|(.*?)\|$", readme, flags=re.M)
    assert [key for key, _, _ in rows] == [s.key for s in pipeline.SETTINGS]
    required = {f.name for f in dataclasses.fields(PipelineConfig)
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING}
    defaults = PipelineConfig("a", "b", "c")
    for (key, default, flag), setting in zip(rows, pipeline.SETTINGS):
        if setting.attr in required:
            assert default == "required", key
        else:
            assert json.loads(default.strip("`")) == json.loads(
                json.dumps(setting.get(defaults))), key
        command, option = re.fullmatch(r"(?:`(?:([\w-]+) )?(--[\w-]+)[^`]*`.*)?",
                                       flag.strip()).groups()
        assert ((command, option) if option else None) == (
            setting.flag and setting.flag[:2]), key


def test_readme_stage_table_matches_the_stages():
    """README's stage table names the stages of ``pipeline.STAGES`` in their
    order, and its "needs" and "writes" columns are each row's ``reads`` and
    ``writes``."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Pipeline"):readme.index("### Config")]
    rows = re.findall(r"^\| `([\w-]+)` +\|[^|]*\|([^|]*)\|([^|]*)\|$", section, flags=re.M)
    assert [(name, tuple(re.findall(r"`([^`]+)`", needs)), tuple(re.findall(r"`([^`]+)`", writes)))
            for name, needs, writes in rows] == [(s.name, s.reads, s.writes)
                                                 for s in pipeline.STAGES]


def test_each_stage_alone_needs_only_the_files_its_row_reads(tmp_path):
    """A stage run alone in a copy of ``run_all``'s workspace that keeps only
    ``.work``, the row's ``reads`` and, for the stages that read them, the
    generated shards publishes its ``writes`` byte for byte as ``run_all``
    did: the rows name every file a stage needs."""
    config = make_workspace(tmp_path)
    assert run_all(config)[0] == 0
    out = Path(config.out_dir)

    def read(path: Path):
        return _tree_bytes(path) if path.is_dir() else path.read_bytes()

    for stage in pipeline.STAGES:
        keep = {".work", *stage.reads}
        if stage.name in ("kd-score", "mix", "stats"):
            keep.update(pipeline.GENERATED_SHARDS)
        alone = dataclasses.replace(config, out_dir=str(tmp_path / stage.name / "out"),
                                    quarantine_dir=str(tmp_path / stage.name / "quarantine"))
        shutil.copytree(out, alone.out_dir, ignore=lambda directory, names: [
            n for n in names if Path(directory) == out and n not in keep])
        assert set(os.listdir(alone.out_dir)) == keep, stage.name
        assert run_stage(stage.name, alone)["quarantined"] == 0, stage.name
        for name in stage.writes:
            assert read(Path(alone.out_dir) / name) == read(out / name), (stage.name, name)


def test_input_shard_whose_name_is_not_utf8_is_quarantined(tmp_path):
    """The work id of a bad line names its shard; a name that is not UTF-8
    is named with its bytes escaped, where publishing the quarantine raised
    ``UnicodeEncodeError``."""
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    try:
        with open(os.path.join(os.fsencode(in_dir), b"\xff.jsonl"), "wb") as fh:
            fh.write(b"not json\n")
    except OSError:
        pytest.skip("the file system refuses a file name that is not UTF-8")
    config = config_from_obj({"io": {"in_dir": str(in_dir), "out_dir": str(tmp_path / "out"),
                                     "quarantine_dir": str(tmp_path / "q")}})
    stats = run_stage("annotate", config)
    assert (stats["in"], stats["out"], stats["quarantined"]) == (0, 0, 1)
    row = json.loads((tmp_path / "q" / "annotate.jsonl").read_text(encoding="utf-8"))
    assert (row["work_id"], row["error_code"]) == ("\\xff.jsonl:1", "parse")


def test_cli_pair_flag_overrides(tmp_path):
    config = make_workspace(tmp_path)
    config_path = _write_config(tmp_path, config)
    runner = CliRunner()
    assert runner.invoke(cli_main, ["annotate", "--config", str(config_path)]).exit_code == 0
    result = runner.invoke(cli_main, ["pair", "--config", str(config_path),
                                      "--max-per-image", "1", "--min-contrast", "0.9"])
    assert result.exit_code == 0
    stats = json.loads(result.output.strip().splitlines()[-1])
    assert stats["stage"] == "pair"
