from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from kforge import pipeline
from kforge.cli import main as cli_main
from kforge.corpus import read_shard, write_shard
from kforge.errors import ConfigInvalid
from kforge.gateway import Gateway, MockBackend, RetryPolicy
from kforge.pipeline import (PipelineConfig, Quarantine, StageIO, config_from_obj,
                             run_all, run_stage)

from conftest import make_corpus

# a journal or temp file left open on any exit path fails the test
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


def make_workspace(tmp_path: Path, name: str = "run", corpus=None) -> PipelineConfig:
    root = tmp_path / name
    in_dir, out_dir, qdir = root / "in", root / "out", root / "quarantine"
    in_dir.mkdir(parents=True)
    write_shard(corpus if corpus is not None else make_corpus(), in_dir / "corpus.jsonl")
    spec_path = root / "mixture_spec.json"
    spec_path.write_text(json.dumps(_spec_doc()), encoding="utf-8")
    return config_from_obj({
        "io": {"in_dir": str(in_dir), "out_dir": str(out_dir),
               "quarantine_dir": str(qdir)},
        "backend": {"kind": "mock", "retry": {"backoff_base": 0.001}},
        "mixture": {"spec": str(spec_path)},
        "seed": 5,
        "flush_every": 1,
    })


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

def test_config_requires_distinct_paths(tmp_path):
    with pytest.raises(ConfigInvalid):
        config_from_obj({"io": {"in_dir": str(tmp_path), "out_dir": str(tmp_path),
                                "quarantine_dir": str(tmp_path / "q")}})


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


def test_unknown_config_section_rejected(tmp_path):
    with pytest.raises(ConfigInvalid):
        config_from_obj({"io": {"in_dir": "a", "out_dir": "b", "quarantine_dir": "c"},
                         "surprise": {}})


def test_digest_changes_with_settings(tmp_path):
    config = make_workspace(tmp_path)
    d1 = config.digest()
    config.seed = 6
    assert config.digest() != d1


def test_sampling_stages_require_seed(tmp_path):
    config = make_workspace(tmp_path)
    run_stage("annotate", config)
    run_stage("pair", config)
    run_stage("filter", config)
    config.seed = None
    with pytest.raises(ConfigInvalid):
        run_stage("interleave", config)
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
    assert all(s["quarantined"] >= 1 or s["stage"] in ("pair", "vqa-synth")
               for s in all_stats)


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
    assert {s["stage"] for s in all_stats} == set(pipeline.RUN_ALL_ORDER)


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


# --- determinism and resume ------------------------------------------------------------

def test_run_all_twice_byte_identical(tmp_path):
    config_a = make_workspace(tmp_path, "a")
    config_b = make_workspace(tmp_path, "b")
    assert run_all(config_a)[0] == 0
    assert run_all(config_b)[0] == 0
    assert _tree_bytes(config_a.out_dir) == _tree_bytes(config_b.out_dir)


def test_rerun_skips_completed_stages(tmp_path):
    config = make_workspace(tmp_path)
    assert run_all(config)[0] == 0
    code, all_stats = run_all(config)
    assert code == 0
    assert all_stats == []  # everything already complete


def test_kill_and_resume_matches_uninterrupted(tmp_path):
    pristine = make_workspace(tmp_path, "pristine")
    assert run_all(pristine)[0] == 0

    config = make_workspace(tmp_path, "killed")
    killer = Gateway(KillerBackend(limit=7), retry=RetryPolicy(backoff_base=0.001))
    with pytest.raises(KeyboardInterrupt):
        run_all(config, gateway=killer)
    # mid-annotate crash left a part file and checkpoint behind
    work = Path(config.out_dir) / ".work"
    assert (work / "annotate.ckpt").exists()

    code, all_stats = run_all(config)
    assert code == 0
    annotate = next(s for s in all_stats if s["stage"] == "annotate")
    assert annotate["llm_calls"] == 14 - 7  # processed ids were honored
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
    # the journal outlived the first publish: no model call is repeated
    resumed = next(s for s in all_stats if s["stage"] == stage)
    assert resumed["llm_calls"] == 0
    assert _tree_bytes(config.out_dir) == _tree_bytes(pristine.out_dir)


def test_resume_with_altered_config_refused(tmp_path):
    config = make_workspace(tmp_path)
    killer = Gateway(KillerBackend(limit=7), retry=RetryPolicy(backoff_base=0.001))
    with pytest.raises(KeyboardInterrupt):
        run_all(config, gateway=killer)
    config.seed = 99  # different digest
    with pytest.raises(ConfigInvalid):
        run_stage("annotate", config)


@pytest.mark.parametrize("tail", [
    '+{"id":"c","v',  # torn half line
    "\0" * 64 + "\n",  # zero-filled block left by an OS crash
])
def test_resume_reprocesses_uncommitted_item_once(tmp_path, tail):
    config = make_workspace(tmp_path)
    work = Path(config.out_dir) / ".work"
    final = Path(config.out_dir) / "demo.jsonl"
    replies = iter(range(1, 100))

    def process(work_id):
        # like a real model: a second call for the same item answers differently
        return [json.dumps({"id": work_id, "v": next(replies)}, separators=(",", ":"))]

    with StageIO(final, work, "demo", config.digest()) as io:
        io.append("a", process("a"))
    committed = io.ckpt_path.read_bytes()
    # killed after b's output reached the journal but before its commit
    with open(io.ckpt_path, "a", encoding="utf-8") as fh:
        fh.write("+" + process("b")[0] + "\n" + tail)

    calls, journal_at_first_call = [], []

    def tracked(work_id):
        if not calls:
            journal_at_first_call.append((work / "demo.ckpt").read_bytes())
        calls.append(work_id)
        return process(work_id)

    items = [(w, w) for w in ("a", "b", "c")]
    quarantine = Quarantine(Path(config.quarantine_dir), "demo")
    assert pipeline._run_llm_items(config, "demo", items, tracked, final,
                                   quarantine) == (3, 3)
    assert calls == ["b", "c"]
    assert journal_at_first_call == [committed]  # the uncommitted tail was cut off
    published = [json.loads(line) for line in final.read_text().splitlines()]
    assert [p["id"] for p in published] == ["a", "b", "c"]
    assert published[0]["v"] == 1 and published[1]["v"] == 3
    assert not (work / "demo.ckpt").exists()


@pytest.mark.parametrize("header", [
    {"stage": "annotate"},  # the old ``.part`` + ``.ckpt`` format had no marker
    {"stage": "annotate", "format": "journal/0"},
])
def test_checkpoint_without_journal_format_refused(tmp_path, header):
    config = make_workspace(tmp_path)
    work = Path(config.out_dir) / ".work"
    work.mkdir(parents=True)
    header = dict(header, config_digest=config.digest())
    (work / "annotate.ckpt").write_text(json.dumps(header) + "\nc0-000\n",
                                        encoding="utf-8")
    with pytest.raises(ConfigInvalid):
        run_stage("annotate", config)


def test_empty_journal_starts_stage_afresh(tmp_path):
    # killed before the first flush: the journal exists but holds no header
    config = make_workspace(tmp_path)
    work = Path(config.out_dir) / ".work"
    work.mkdir(parents=True)
    (work / "annotate.ckpt").write_bytes(b"")
    stats = run_stage("annotate", config)
    assert stats["llm_calls"] == 14 and stats["out"] == 14
    assert not (work / "annotate.ckpt").exists()


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
    monkeypatch.setattr(pipeline.time, "monotonic", clock)
    events = _record_durability_calls(monkeypatch)
    with StageIO(tmp_path / "demo.jsonl", tmp_path / ".work", "demo", "d",
                 flush_every=1) as io:
        journal = io.ckpt_path.stat().st_ino
        io.append("a", ['{"id":"a"}'])
        # flushed to the kernel, so a killed process keeps it, but not synced
        assert io.ckpt_path.read_text(encoding="utf-8").endswith('+{"id":"a"}\n=a\n')
        clock.now += pipeline.SYNC_INTERVAL_S / 2
        io.append("b", ['{"id":"b"}'])
        assert events == []
        clock.now += pipeline.SYNC_INTERVAL_S / 2
        io.append("c", ['{"id":"c"}'])
        assert events == [("fsync", journal)]
        clock.now += pipeline.SYNC_INTERVAL_S * 0.75
        io.append("d", ['{"id":"d"}'])
        assert events == [("fsync", journal)]
        clock.now += pipeline.SYNC_INTERVAL_S * 0.25
        io.append("e", ['{"id":"e"}'])
        assert events == [("fsync", journal)] * 2


def test_finalize_publishes_durably_before_removing_journal(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline.time, "monotonic", _Clock())
    events = _record_durability_calls(monkeypatch)
    final = tmp_path / "out" / "demo.jsonl"
    final.parent.mkdir()
    with StageIO(final, final.parent / ".work", "demo", "d") as io:
        io.append("a", ['{"id":"a"}'])
        journal = io.ckpt_path
        io.finalize()
    published = final.stat().st_ino  # the temp file's inode, renamed into place
    directory = final.parent.stat().st_ino
    assert events == [("fsync", published), ("replace", final),
                      ("fsync", directory), ("unlink", journal)]
    assert final.read_text(encoding="utf-8") == '{"id":"a"}\n'


# --- cli --------------------------------------------------------------------------------

def _write_config(tmp_path: Path, config: PipelineConfig) -> Path:
    path = tmp_path / "config.json"
    spec_path = Path(config.in_dir).parent / "mixture_spec.json"
    path.write_text(json.dumps({
        "io": {"in_dir": config.in_dir, "out_dir": config.out_dir,
               "quarantine_dir": config.quarantine_dir},
        "backend": {"kind": "mock", "retry": {"backoff_base": 0.001}},
        "mixture": {"spec": str(spec_path)},
        "seed": 5,
        "flush_every": 1,
    }), encoding="utf-8")
    return path


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


def test_cli_mix_standalone(tmp_path, shard_dir):
    out = tmp_path / "mixout"
    result = CliRunner().invoke(cli_main, [
        "mix", "--spec", "builtin:baseline", "--pools", str(shard_dir),
        "--out", str(out), "--budget", "20", "--seed", "3"])
    assert result.exit_code == 0, result.output
    assert (out / "mixture.jsonl").exists()
    plan = json.loads((out / "mixture_plan.json").read_text())
    assert plan["targets"] == {"caption": 6, "vqa": 3, "pure_text": 8, "other": 3}


def test_cli_kd_score_standalone(tmp_path, shard_dir):
    report_path = tmp_path / "kd.json"
    result = CliRunner().invoke(cli_main, [
        "kd-score", "--in", str(shard_dir), "--report", str(report_path),
        "--compare", "caption0:vqa0"])
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    assert report["comparisons"][0]["source_a"] == "caption0"
    assert set(report["per_source"]) == {"caption0", "vqa0", "pure_text"}


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
