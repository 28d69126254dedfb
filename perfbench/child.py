"""One measured pipeline run, in a process of its own.

Run as ``python3 child.py TASK.json``. The task names the source tree, the
input/output directories, the backend and the work: ``run_all`` over the
inputs, or the ``mix`` stage once per mixture spec. The child times only
the pipeline calls and writes a result document to the task's ``result``
path. With ``record_table`` set it also records every prompt->reply pair
the mock backend produced, for the loopback stub. With ``trace`` set it
wraps kforge's public functions first (see ``spans.py``).
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter

from spans import Target, Tracer


def _stage_span(args, kwargs) -> str:
    return f"pipeline.stage.{args[0] if args else kwargs['stage']}"


def _targets(tracer: Tracer) -> list[Target]:
    def complete_span(args, kwargs) -> str:
        # count requests whose template expects JSON, the base of
        # jsonx.parses_per_json_request
        from kforge import prompts
        request = args[1] if len(args) > 1 else kwargs["request"]
        template = prompts.REGISTRY.get(request.template_id)
        if template is not None and template.expected_output in (prompts.JSON_LIST,
                                                                  prompts.JSON_OBJECT):
            tracer.bump("gateway.json_requests")
        return "gateway.complete"

    def t(module: str, attr: str, span: str | None = None, **kw) -> Target:
        return Target(f"kforge.{module}", attr, span or f"{module}.{attr}", **kw)

    return [
        t("pipeline", "run_stage", "pipeline.stage", name_from_args=_stage_span),
        t("pipeline", "_source_records", "pipeline.source_records"),
        t("pipeline", "StageIO.flush", "pipeline.stageio.flush"),
        t("corpus", "read_shard"),
        t("corpus", "record_to_json"),
        t("gateway", "Gateway.complete", name_from_args=complete_span),
        t("gateway", "Gateway.complete_json", "gateway.complete_json"),
        t("gateway", "Gateway.reask", "gateway.reask"),
        t("gateway", "Gateway._attempt", "gateway.attempt"),
        t("gateway", "MockBackend.complete", "backend.call", keep_samples=True),
        t("gateway", "HttpBackend.complete", "backend.call", keep_samples=True),
        t("jsonx", "extract_json"),
        t("prompts", "render_prompt"),
        t("pairing", "build_index"),
        t("pairing", "propose_pairs"),
        t("annotation", "annotate_image"),
        t("generation", "generate_caption"),
        t("generation", "generate_pair_caption"),
        t("generation", "generate_interleaved"),
        t("generation", "synthesize_vqa"),
        t("knowledge", "kd_score"),
        t("knowledge", "build_report"),
        t("mixture", "resolve_pools"),
        t("mixture", "plan_mixture"),
        t("mixture", "sample_mixture"),
        t("mixture", "verify_mixture"),
    ]


def pairing_counts(out_dir: Path) -> dict:
    """Pair-scoring work, from kforge's own index over the published descriptors.

    ``propose_pairs`` scores every pair inside a subcategory bucket and
    every pair of subcategory loners inside a domain bucket.
    """
    from kforge import annotation, pairing
    descriptors = out_dir / "descriptors.jsonl"
    if not descriptors.is_file():
        return {"pairs_scored": 0, "candidates_kept": 0, "max_bucket": 0}
    index = pairing.build_index(annotation.read_descriptors(descriptors))
    loners = {b[0] for b in index.by_subcategory.values() if len(b) == 1}
    sizes = [len(b) for b in index.by_subcategory.values() if len(b) > 1]
    sizes += [sum(1 for m in b if m in loners) for b in index.by_domain.values()]
    candidates = out_dir / "pair_candidates.jsonl"
    kept = 0
    if candidates.is_file():
        with open(candidates, "rb") as fh:
            kept = sum(1 for line in fh if line.strip())
    return {"pairs_scored": sum(n * (n - 1) // 2 for n in sizes),
            "candidates_kept": kept, "max_bucket": max(sizes, default=0)}


def run(task: dict) -> dict:
    sys.path.insert(0, task["src"])
    tracer = None
    if task.get("trace"):
        import kforge.pipeline  # noqa: F401 - loads every module the targets live in
        tracer = Tracer()
        tracer.install(_targets(tracer))
    from kforge import pipeline
    from kforge.gateway import Gateway, HttpBackend, MockBackend, RetryPolicy

    table: dict[str, str] = {}
    backend_cfg = task["backend"]
    if backend_cfg["kind"] == "http":
        backend = HttpBackend(backend_cfg["endpoint"], backend_cfg["model"])
    elif task.get("record_table"):
        class RecordingMock(MockBackend):
            def complete(self, request, prompt):
                reply = super().complete(request, prompt)
                table[hashlib.sha256(prompt.encode("utf-8")).hexdigest()] = reply
                return reply
        backend = RecordingMock()
    else:
        backend = MockBackend()
    retry = RetryPolicy(backoff_base=task["backoff_base"])
    gateway = Gateway(backend, retry=retry, in_flight=task["in_flight"])
    config = pipeline.PipelineConfig(
        in_dir=task["in_dir"], out_dir=task["out_dir"],
        quarantine_dir=task["quarantine_dir"],
        backend_kind=backend_cfg["kind"], endpoint=backend_cfg.get("endpoint"),
        model=backend_cfg.get("model"), in_flight=task["in_flight"], retry=retry,
        seed=task["seed"], workers=task["workers"])

    stats: list[dict] = []
    exit_code = 0
    run_s = 0.0
    if task.get("mix_specs"):
        out_dir = Path(task["out_dir"])
        for k, spec in enumerate(task["mix_specs"]):
            spec_config = dataclasses.replace(
                config, mixture_spec=spec["spec"], mixture_budget=spec["budget"],
                mixture_unit=spec["unit"])
            t0 = perf_counter()
            stats.append(pipeline.run_stage("mix", spec_config, gateway=gateway))
            run_s += perf_counter() - t0
            # keep each spec's outputs for the digest; the next spec writes afresh
            os.replace(out_dir / "mixture", out_dir / f"mixture.{k}")
    else:
        config = dataclasses.replace(
            config, mixture_spec=task["mixture"]["spec"],
            mixture_budget=task["mixture"]["budget"], mixture_unit=task["mixture"]["unit"])
        t0 = perf_counter()
        exit_code, stats = pipeline.run_all(config, gateway=gateway)
        run_s = perf_counter() - t0

    result = {"run_s": run_s, "exit_code": exit_code, "stats": stats,
              "gateway": gateway.stats.snapshot()}
    if tracer is not None:
        result["trace"] = {
            "spans": {name: dataclasses.asdict(s) for name, s in tracer.spans.items()},
            "samples": tracer.samples,
            "counters": tracer.counters,
            "missing": tracer.missing,
        }
        # after the spans are copied: this calls the wrapped build_index again
        result["pairing"] = pairing_counts(Path(task["out_dir"]))
    if task.get("record_table"):
        with open(task["record_table"], "w", encoding="utf-8") as fh:
            json.dump(table, fh, ensure_ascii=False)
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        task = json.load(fh)
    result = run(task)
    with open(task["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
