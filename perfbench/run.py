"""kforge benchmark: end-to-end and per-module metrics on three workloads.

Usage, from the root of a kforge checkout::

    python3 perfbench/run.py --workload mock-full --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py            # every workload in turn

Workloads (fixed parameters below, reasons in BENCHMARK.json and README.md):

* ``mock-full``: ``run_all`` from an empty output directory on the mock
  backend; CPU-bound.
* ``http-latency``: ``run_all`` through ``HttpBackend`` against a loopback
  stub with 10 ms latency and deterministic 429/503 faults; latency-bound.
* ``mix-large``: the ``mix`` stage over a ~120k-record pool for three
  specs; data-volume-bound, no model calls.

Inputs come from ``--seed`` alone. Set-up (input generation, the mock
reference run and the stub start for ``http-latency``) is repeated and
timed. Then each measured run is one child process (``child.py``) calling
kforge's public entry points, repeated while another repetition fits in
``--seconds`` of pipeline time (at least once); the child's peak RSS and
CPU come from ``os.wait4``. Every run's published output tree is hashed
(``.work/`` excluded, ``backend_id`` blanked) and must match the digest
recorded for the seed in ``expected_digests.json``; for ``http-latency``
it must also match the mock reference of the same corpus. A child that
exits non-zero, or is killed at the workload's deadline, fails its run
like a failed check: the result is printed with ``correct`` false and the
exit code is 1. Exit code 2, with no result, is kept for a benchmark that
could not run at all.

With ``--trace 1`` the benchmark makes one untraced and one traced run
and reports per-module metrics instead. The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import inputs
import stub

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "expected_digests.json"

# set-up is repeated at least SETUPS times and until SETUP_MIN_S have passed
SETUPS = 3
SETUP_MIN_S = 1.0
# a child still running this long after its workload started is killed, so
# a hung run fails within 180 s of the start
DEADLINE_S = 165

STUB_MODEL = "stub"

STAGES = ("annotate", "pair", "filter", "caption", "pair-caption", "interleave",
          "vqa-synth", "kd-score", "mix", "stats")
MODULES = ("pipeline", "corpus", "gateway", "backend", "jsonx", "prompts", "pairing",
           "annotation", "generation", "knowledge", "mixture")


@dataclass(frozen=True)
class Workload:
    name: str
    # caption0, vqa0, pure_text, other
    sources: tuple[int, int, int, int]
    backend: str
    workers: int
    in_flight: int
    backoff_base: float
    # run_all's mixture settings; None runs only the mix stage, once per mix_specs entry
    mixture: dict | None = None
    # caption1, vqa1, pair_caption, interleaved pools placed in the output directory
    generated: tuple[int, int, int, int] | None = None
    mix_specs: tuple[dict, ...] = ()


WORKLOADS = {w.name: w for w in (
    Workload("mock-full", sources=(2000, 1000, 2000, 1000), backend="mock", workers=1,
             in_flight=8, backoff_base=0.5,
             mixture={"spec": "builtin:baseline", "budget": 2000, "unit": "samples"}),
    Workload("http-latency", sources=(300, 150, 300, 150), backend="http", workers=2,
             in_flight=2, backoff_base=0.01,
             mixture={"spec": "builtin:baseline", "budget": 300, "unit": "samples"}),
    Workload("mix-large", sources=(30000, 20000, 44000, 16000), backend="mock", workers=1,
             in_flight=8, backoff_base=0.5, generated=(3000, 3000, 3000, 1000),
             mix_specs=(
                 {"spec": "builtin:baseline", "budget": 100000, "unit": "samples"},
                 {"spec": "builtin:baseline", "budget": 3000000, "unit": "tokens"},
                 {"spec": "builtin:synthetic_vqa", "budget": 15000, "unit": "samples"},
             )),
)}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# --- child processes ---------------------------------------------------------

@dataclass
class ChildRun:
    # the child's result document; None when it exited non-zero or was killed
    result: dict | None
    status: str
    wall_s: float
    peak_rss_mb: float
    cpu_s: float


def run_child(root: Path, task: dict, task_path: Path, deadline: float) -> ChildRun:
    """Run one child to completion, killing it at ``deadline`` (perf_counter).

    RSS and CPU come from ``os.wait4`` on this child alone: RUSAGE_CHILDREN
    keeps the maximum over every child ever reaped.
    """
    task_path.write_text(json.dumps(task), encoding="utf-8")
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), str(task_path)],
                            cwd=root, stdin=subprocess.DEVNULL)
    timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall_s = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss, cpu = usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime
    if proc.returncode != 0:
        why = "was killed" if proc.returncode < 0 else f"exited with {proc.returncode}"
        return ChildRun(None, f"child {why} after {wall_s:.1f} s", wall_s, rss, cpu)
    try:
        result = json.loads(Path(task["result"]).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"result of {task_path} unreadable: {exc}") from exc
    return ChildRun(result, "ok", wall_s, rss, cpu)


class Stub:
    """The loopback chat-completions stub, in its own process."""

    def __init__(self, table_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--table", str(table_path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.close()
            raise BenchError("stub did not start")
        self.base = f"http://127.0.0.1:{int(line)}"
        self.endpoint = f"{self.base}/v1/chat/completions"

    def reset(self) -> dict:
        """Clear attempt counters; returns the counters of the closed period."""
        request = urllib.request.Request(f"{self.base}/reset", data=b"", method="POST")
        with urllib.request.urlopen(request, timeout=10) as resp:
            return json.load(resp)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# --- set-up -----------------------------------------------------------------

@dataclass
class Env:
    workload: Workload
    seed: int
    root: Path
    src: Path
    directory: Path
    in_dir: Path
    deadline: float
    gen_dir: Path | None = None
    reference_digest: str | None = None
    # the mock reference run when it failed: the program under test is at fault
    reference_failure: RunResult | None = None
    stub: Stub | None = None
    tasks: int = 0

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None
        shutil.rmtree(self.directory, ignore_errors=True)

    def task(self, out_dir: Path, q_dir: Path, trace: bool, backend: dict) -> dict:
        w = self.workload
        self.tasks += 1
        return {
            "src": str(self.src), "in_dir": str(self.in_dir), "out_dir": str(out_dir),
            "quarantine_dir": str(q_dir), "seed": self.seed, "backend": backend,
            "workers": w.workers, "in_flight": w.in_flight,
            "backoff_base": w.backoff_base, "mixture": w.mixture,
            "mix_specs": list(w.mix_specs), "trace": trace,
            "result": str(self.directory / f"result{self.tasks}.json"),
        }


def set_up(workload: Workload, seed: int, root: Path, directory: Path,
           deadline: float) -> Env:
    directory.mkdir(parents=True)
    env = Env(workload, seed, root, root / "src", directory, directory / "in", deadline)
    try:
        env.in_dir.mkdir()
        for source, rows in inputs.source_records(seed, *workload.sources).items():
            inputs.write_jsonl(rows, env.in_dir / f"{source}.jsonl")
        if workload.generated:
            env.gen_dir = directory / "generated"
            env.gen_dir.mkdir()
            for source, rows in inputs.generated_records(seed, *workload.generated).items():
                inputs.write_jsonl(rows, env.gen_dir / f"{source}.jsonl")
        if workload.backend == "http":
            # record the reply table with the code under test, so a prompt
            # change can never turn into a stub miss
            out_dir, q_dir = directory / "ref-out", directory / "ref-q"
            task = env.task(out_dir, q_dir, False, {"kind": "mock"})
            task["record_table"] = str(directory / "table.json")
            task["workers"] = 1  # same bytes; threads only add GIL contention to set-up
            ref = run_child(root, task, directory / "ref-task.json", deadline)
            if ref.result is None or ref.result["exit_code"] != 0:
                status = ref.status if ref.result is None else \
                    f"pipeline exit code {ref.result['exit_code']}"
                env.reference_failure = failed_run(workload, "mock reference", ref, status)
                return env
            env.reference_digest = tree_digest(out_dir)
            env.stub = Stub(directory / "table.json")
    except BaseException:
        env.close()
        raise
    return env


# --- output checks -------------------------------------------------------------

def _blank_backend_id(data: bytes) -> bytes:
    try:
        doc = json.loads(data)
        doc["metadata"]["backend_id"] = ""
    except (ValueError, KeyError, TypeError):
        return data
    return json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True).encode("utf-8")


def tree_digest(out_dir: Path) -> str:
    """SHA-256 over the published output tree: relative paths and contents.

    ``.work/`` holds resume state, not output. ``kd_report.json`` names the
    backend, so its ``backend_id`` is blanked: the HTTP run must equal the
    mock reference in everything else.
    """
    h = hashlib.sha256()
    files = sorted((p.relative_to(out_dir).as_posix(), p)
                   for p in out_dir.rglob("*") if p.is_file())
    for rel, path in files:
        if rel.split("/", 1)[0] == ".work":
            continue
        data = path.read_bytes()
        if path.name == "kd_report.json":
            data = _blank_backend_id(data)
        h.update(rel.encode("utf-8") + b"\0" + len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def _jsonl_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def output_problems(workload: Workload, out_dir: Path) -> list[str]:
    """Checks that hold whatever the digest: every output published, mixtures exact."""
    problems = []
    if workload.mix_specs:
        mix_dirs = [out_dir / f"mixture.{k}" for k in range(len(workload.mix_specs))]
    else:
        mix_dirs = [out_dir / "mixture"]
        for name in ("descriptors.jsonl", "pair_candidates.jsonl", "pairs_selected.jsonl",
                     "pair_caption.jsonl", "caption1.jsonl", "interleaved.jsonl",
                     "vqa1.jsonl", "kd_profiles.jsonl", "kd_report.json",
                     "corpus_stats.json"):
            if not (out_dir / name).is_file():
                problems.append(f"{name} not published")
        images = workload.sources[0] + workload.sources[1]
        if (out_dir / "descriptors.jsonl").is_file() and \
                _jsonl_count(out_dir / "descriptors.jsonl") != images:
            problems.append(f"descriptors.jsonl does not hold {images} descriptors")
    for mix_dir in mix_dirs:
        try:
            verify = json.loads((mix_dir / "mixture_verify.json").read_text("utf-8"))
            plan = json.loads((mix_dir / "mixture_plan.json").read_text("utf-8"))
            lines = _jsonl_count(mix_dir / "mixture.jsonl")
        except (OSError, ValueError) as exc:
            problems.append(f"{mix_dir.name}: {exc}")
            continue
        if not verify.get("pass") or plan.get("shortfalls"):
            problems.append(f"{mix_dir.name}: mixture failed verification or fell short")
        if plan.get("unit") == "samples" and lines != plan.get("budget"):
            problems.append(f"{mix_dir.name}: {lines} records for a budget of {plan.get('budget')}")
    return problems


def recorded_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS_PATH.is_file():
        return None
    table = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


# --- measured runs -------------------------------------------------------------

@dataclass
class RunResult:
    run_s: float
    peak_rss_mb: float
    cpu_s: float
    attempted: int
    failed: int
    correct: bool
    digest: str
    child: dict


def failed_run(w: Workload, what: str, c: ChildRun, status: str) -> RunResult:
    """A run whose child failed: every input record counts as attempted and failed.

    ``run_s`` is the child's wall time and it completed no calls.
    """
    print(f"[perfbench] {w.name} {what}: {status}", file=sys.stderr)
    attempted = sum(w.sources) + sum(w.generated or ())
    child = {"run_s": c.wall_s, "stats": [],
             "gateway": {"llm_calls": 0, "retries": 0, "reasks": 0}}
    return RunResult(run_s=c.wall_s, peak_rss_mb=c.peak_rss_mb, cpu_s=c.cpu_s,
                     attempted=attempted, failed=attempted, correct=False, digest="",
                     child=child)


def measured_run(env: Env, index: int, trace: bool, expected: str | None) -> RunResult:
    w = env.workload
    run_dir = env.directory / f"run{index}"
    out_dir, q_dir = run_dir / "out", run_dir / "q"
    out_dir.mkdir(parents=True)
    if env.gen_dir is not None:
        for shard in sorted(env.gen_dir.iterdir()):
            shutil.copyfile(shard, out_dir / shard.name)
    if env.stub is not None:
        env.stub.reset()
        backend = {"kind": "http", "endpoint": env.stub.endpoint, "model": STUB_MODEL}
    else:
        backend = {"kind": "mock"}
    task = env.task(out_dir, q_dir, trace, backend)
    c = run_child(env.root, task, run_dir / "task.json", env.deadline)
    stub_counters = env.stub.reset() if env.stub is not None else None
    if c.result is None:
        shutil.rmtree(run_dir)
        return failed_run(w, f"run {index}", c, c.status)

    child = c.result
    digest = tree_digest(out_dir)
    problems = output_problems(w, out_dir)
    if child["exit_code"] != 0:
        problems.append(f"pipeline exit code {child['exit_code']}")
    if expected is not None and digest != expected:
        problems.append(f"output digest {digest[:16]} differs from expected {expected[:16]}")
    if stub_counters and stub_counters["misses"]:
        problems.append(f"{stub_counters['misses']} prompts missing from the stub table")
    print(f"[perfbench] {w.name} run {index}: run_s {child['run_s']:.3f}, "
          f"peak RSS {c.peak_rss_mb:.1f} MB", file=sys.stderr)
    for problem in problems:
        print(f"[perfbench] {w.name} run {index}: {problem}", file=sys.stderr)
    attempted = sum(s["in"] for s in child["stats"])
    quarantined = sum(s["quarantined"] for s in child["stats"])
    result = RunResult(
        run_s=child["run_s"], peak_rss_mb=c.peak_rss_mb, cpu_s=c.cpu_s, attempted=attempted,
        failed=attempted if problems else quarantined, correct=not problems,
        digest=digest, child=child)
    shutil.rmtree(run_dir)
    return result


def _throughput(w: Workload, run: RunResult) -> float:
    """Backend calls per second; mixture records per second where there are none."""
    if w.mix_specs:
        done = sum(s["out"] for s in run.child["stats"])
    else:
        done = run.child["gateway"]["llm_calls"]
    return done / run.run_s


def end_to_end(w: Workload, setups: list[float], runs: list[RunResult]) -> dict:
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    return {
        "run_s": (statistics.median(r.run_s for r in runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
        "items_per_s": (statistics.median(_throughput(w, r) for r in runs), "1/s"),
        "ok_share": ((attempted - failed) / attempted, "share"),
    }


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(w: Workload, plain: RunResult, traced: RunResult) -> dict:
    # a failed child left no trace and no pairing counts; they read as 0
    tr = traced.child.get("trace") or {"spans": {}, "samples": {}, "counters": {},
                                        "missing": []}
    spans = tr["spans"]

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    m: dict[str, tuple[float, str]] = {}
    stage_sum = 0.0
    for stage in STAGES:
        m[f"pipeline.stage.{stage}.s"] = (total(f"pipeline.stage.{stage}"), "s")
        stage_sum += total(f"pipeline.stage.{stage}")
    m["pipeline.unaccounted_s"] = (traced.run_s - stage_sum, "s")
    m["pipeline.source_records.calls"] = (calls("pipeline.source_records"), "count")
    m["pipeline.source_records.s"] = (total("pipeline.source_records"), "s")
    m["pipeline.stageio.flushes"] = (calls("pipeline.stageio.flush"), "count")
    m["pipeline.stageio.flush_s"] = (total("pipeline.stageio.flush"), "s")

    m["corpus.read_shard.records"] = (spans.get("corpus.read_shard", {}).get("items", 0),
                                      "count")
    m["corpus.read_shard.s"] = (total("corpus.read_shard"), "s")
    m["corpus.record_to_json.s"] = (total("corpus.record_to_json"), "s")

    gw = traced.child["gateway"]
    call_samples = tr["samples"].get("backend.call", [])
    backend_attempts = calls("backend.call")
    backend_errors = spans.get("backend.call", {}).get("errors", 0)
    calls_per_s = plain.child["gateway"]["llm_calls"] / plain.run_s
    m["gateway.backend_calls"] = (gw["llm_calls"], "count")
    m["gateway.retries"] = (gw["retries"], "count")
    m["gateway.reasks"] = (gw["reasks"], "count")
    m["gateway.useful_ratio"] = (
        (backend_attempts - backend_errors) / backend_attempts if backend_attempts else 0.0,
        "ratio")
    m["gateway.call_p50_ms"] = (_percentile(call_samples, 0.50) * 1000, "ms")
    m["gateway.call_p99_ms"] = (_percentile(call_samples, 0.99) * 1000, "ms")
    m["gateway.call_samples"] = (len(call_samples), "count")
    m["gateway.wait_s"] = (self_s("gateway.attempt"), "s")
    m["gateway.calls_per_s"] = (calls_per_s, "1/s")
    ideal = w.in_flight / stub.LATENCY_S if w.backend == "http" else None
    m["gateway.latency_efficiency"] = (calls_per_s / ideal if ideal else 0.0, "ratio")

    json_requests = tr["counters"].get("gateway.json_requests", 0)
    m["jsonx.extract_json.calls"] = (calls("jsonx.extract_json"), "count")
    m["jsonx.extract_json.s"] = (total("jsonx.extract_json"), "s")
    m["jsonx.parses_per_json_request"] = (
        calls("jsonx.extract_json") / json_requests if json_requests else 0.0, "ratio")
    m["prompts.render_prompt.calls"] = (calls("prompts.render_prompt"), "count")
    m["prompts.render_prompt.s"] = (total("prompts.render_prompt"), "s")

    pc = traced.child.get("pairing") or {"pairs_scored": 0, "candidates_kept": 0,
                                         "max_bucket": 0}
    m["pairing.build_index.s"] = (total("pairing.build_index"), "s")
    m["pairing.propose_pairs.s"] = (total("pairing.propose_pairs"), "s")
    m["pairing.pairs_scored"] = (pc["pairs_scored"], "count")
    m["pairing.candidates_kept"] = (pc["candidates_kept"], "count")
    m["pairing.kept_ratio"] = (
        pc["candidates_kept"] / pc["pairs_scored"] if pc["pairs_scored"] else 0.0, "ratio")
    m["pairing.max_bucket"] = (pc["max_bucket"], "count")

    for name in ("annotation.annotate_image", "generation.generate_caption",
                 "generation.generate_pair_caption", "generation.generate_interleaved",
                 "generation.synthesize_vqa", "knowledge.kd_score"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["knowledge.build_report.s"] = (total("knowledge.build_report"), "s")

    for name in ("resolve_pools", "plan_mixture", "sample_mixture", "verify_mixture"):
        m[f"mixture.{name}.s"] = (total(f"mixture.{name}"), "s")
    m["mixture.records_out"] = (
        sum(s["out"] for s in traced.child["stats"] if s["stage"] == "mix"), "count")

    for module in MODULES:
        m[f"{module}.self_s"] = (
            sum(s["self_s"] for name, s in spans.items() if name.split(".", 1)[0] == module),
            "s")
    m["process.cpu_s"] = (plain.cpu_s, "s")
    m["trace.overhead_s"] = (traced.run_s - plain.run_s, "s")
    m["trace.missing_targets"] = (len(tr["missing"]), "count")
    for target in tr["missing"]:
        print(f"[perfbench] traced target missing: {target}", file=sys.stderr)
    return m


# --- driver ----------------------------------------------------------------------

def declared_metrics(root: Path, trace: bool) -> dict[str, str] | None:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def bench(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    deadline = perf_counter() + DEADLINE_S
    work = root / ".perfbench-work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    expected = recorded_digest(workload.name, seed)
    setups: list[float] = []
    env = None
    try:
        while len(setups) < SETUPS or sum(setups) < SETUP_MIN_S:
            if env is not None:
                env.close()
            t0 = perf_counter()
            env = set_up(workload, seed, root, work / f"setup{len(setups)}", deadline)
            setups.append(perf_counter() - t0)
            if env.reference_failure is not None:
                break
        if env.reference_digest is not None:
            # runs must match both; a reference that differs from the
            # recorded digest fails every run against the recorded one
            if expected is not None and env.reference_digest != expected:
                print(f"[perfbench] {workload.name}: mock reference differs from the "
                      "recorded digest", file=sys.stderr)
            expected = expected or env.reference_digest
        elif expected is None and env.reference_failure is None:
            print(f"[perfbench] {workload.name}: no digest recorded for seed {seed}; "
                  "runs are checked against each other", file=sys.stderr)

        runs: list[RunResult] = []
        if env.reference_failure is not None:
            # the reference is a run of the code under test: it stands for the runs
            runs.append(env.reference_failure)
        elif trace:
            runs.append(measured_run(env, 0, False, expected))
            runs.append(measured_run(env, 1, True, expected or runs[0].digest or None))
        else:
            runs.append(measured_run(env, 0, False, expected))
            # repeat while the runs pass and another repetition, as long as
            # the last, fits in --seconds
            while runs[-1].correct and sum(r.run_s for r in runs) + runs[-1].run_s <= seconds:
                runs.append(measured_run(env, len(runs), False, expected or runs[0].digest))
    finally:
        if env is not None:
            env.close()
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(workload, runs[0], runs[-1]) if trace else \
        end_to_end(workload, setups, runs)
    for name, (value, unit) in metrics.items():
        print(f"[perfbench] {workload.name} {name} = {value:.6g} {unit}", file=sys.stderr)
    return {
        "correct": all(r.correct for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="kforge end-to-end benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated benchmark still stops its children and the stub
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "kforge" / "pipeline.py").is_file():
        print("perfbench: run from the root of a kforge checkout (src/kforge not found)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    declared = declared_metrics(root, bool(args.trace))
    all_correct = True
    for name in names:
        try:
            result = bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), root)
        except (BenchError, OSError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        produced = {k: v["unit"] for k, v in result["metrics"].items()}
        if declared is not None and produced != declared:
            print(f"perfbench: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(produced.items()) ^ set(declared.items()))}", file=sys.stderr)
            return 2
        print(json.dumps(result))
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
