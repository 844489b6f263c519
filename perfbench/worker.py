"""One repetition of one workload, in a fresh process.

Usage (the benchmark's parent process runs this; it is not a user entry):
    python3 perfbench/worker.py SPEC.json {0|1}

Runs the workload's entry point once, untraced (0) or traced (1), then
its output checks, and prints one JSON object on the last stdout line:
timings, peak RSS, counters, per-layer figures when traced, the checks
that passed, or the error that stopped it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from iterkg import axioms, cli, embedding, evaluation, injection, kernels, kg, pipeline  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# the calls that end setup: the first pool, epoch or ranking call
FIRST_WORK = ("axioms.generate_pool", "embedding.train_epoch", "evaluation.link_prediction")


def _count(key: str, f):
    def after(tr, result, args, kwargs):
        tr.counts[key] += f(result, args)
    return after


def install_probes(tr: Tracer, captured: dict) -> None:
    """The few wrappers every run needs: where setup ends, epoch and
    ranking time, and how many examples and test triples they covered."""
    def keep_pool(t, result, args, kwargs):
        captured["pool"] = result
        t.counts["axioms.pool_size"] = len(result)

    for mod in (pipeline, cli):
        tr.patch(mod, "generate_pool", "axioms.generate_pool", keep_pool)
        tr.patch(mod, "link_prediction", "evaluation.link_prediction")
    tr.patch(pipeline, "train_epoch", "embedding.train_epoch")
    tr.patch(evaluation, "link_prediction", "evaluation.link_prediction")
    tr.patch(embedding, "compute_loss_and_gradients", "embedding.compute_loss_and_gradients",
             _count("embedding.examples", lambda r, a: len(a[1])))
    tr.patch(evaluation, "rank_entity_side", "evaluation.rank_entity_side", span=False)


def install_layers(tr: Tracer) -> None:
    """Spans and counters on every public call between the layers."""
    heads_per_axiom: list[int] = []

    def after_ground(t, result, args, kwargs):
        t.counts["injection.groundings"] += len(result)
        heads_per_axiom.append(len({g.head for g in result}))

    def after_inject(t, result, args, kwargs):
        cap = args[3].max_inferred_per_axiom
        t.counts["injection.axioms_over_cap"] += sum(h > cap for h in heads_per_axiom)
        heads_per_axiom.clear()
        t.counts["injection.injected"] += len(result)

    def after_scatter(t, result, args, kwargs):
        # computed from shapes: one add per gradient value, subject and
        # object rows of width dim, scalar and two rotation rows per example
        vs, msc, ma = args[0], args[2], args[3]
        t.counts["kernels.rows"] += vs.shape[0]
        t.counts["kernels.scatter_ops"] += vs.shape[0] * (2 * vs.shape[1] + msc.shape[1] + 2 * ma.shape[1])

    saved_bytes = _count("pipeline.checkpoint_bytes", lambda r, a: os.path.getsize(a[1]))
    loaded_bytes = _count("pipeline.checkpoint_bytes", lambda r, a: os.path.getsize(a[0]))

    for mod in (pipeline, cli):
        tr.patch(mod, "load_dataset", "kg.load_dataset")
        tr.patch(mod, "entity_sparsity", "kg.entity_sparsity")
        tr.patch(mod, "induce_axioms", "axioms.induce_axioms")
        tr.patch(mod, "head_coverage", "evaluation.head_coverage")
        tr.patch(mod, "write_axioms", "axioms.write_axioms")
        tr.patch(mod, "load_checkpoint", "pipeline.load_checkpoint", loaded_bytes)
    tr.patch(pipeline, "sparse_entities", "kg.sparse_entities")
    tr.patch(pipeline, "init_model", "embedding.init_model")
    tr.patch(pipeline, "inject_triples", "injection.inject_triples", after_inject)
    tr.patch(pipeline, "write_injected_tsv", "injection.write_injected_tsv")
    tr.patch(pipeline, "summarize_rules", "evaluation.summarize_rules")
    tr.patch(pipeline, "save_checkpoint", "pipeline.save_checkpoint", saved_bytes)
    tr.patch(kg.KnowledgeGraph, "__init__", "kg.KnowledgeGraph")
    tr.patch(kg.KnowledgeGraph, "contains", "kg.contains", span=False)
    tr.patch(embedding, "sample_negatives", "embedding.sample_negatives",
             _count("embedding.negatives_exhausted", lambda r, a: int(r[1])))
    tr.patch(embedding, "adam_update", "embedding.adam_update")
    tr.patch(kernels, "bilinear_scores", "kernels.bilinear_scores",
             _count("kernels.rows", lambda r, a: a[0].shape[0]))
    tr.patch(kernels, "accumulate_grads", "kernels.accumulate_grads", after_scatter)
    tr.patch(axioms, "count_support_and_head", "axioms.count_support_and_head")
    tr.patch(axioms, "score_axiom_raw", "axioms.score_axiom_raw")
    tr.patch(injection, "ground_axiom", "injection.ground_axiom", after_ground)
    tr.patch(evaluation, "head_coverage", "evaluation.head_coverage")
    tr.patch(evaluation, "candidate_scores", "evaluation.candidate_scores", span=False)


def layer_metrics(tr: Tracer, lo: float, hi: float) -> dict:
    c, total = tr.counts, tr.total
    groundings = c["injection.groundings"]
    candidates = c["axioms.count_support_and_head.calls"]
    out = {
        "kg.load_s": total("kg.load_dataset"),
        "kg.index_s": total("kg.KnowledgeGraph"),
        "kg.sparsity_s": total("kg.entity_sparsity") + total("kg.sparse_entities"),
        "kg.contains_calls": c["kg.contains.calls"],
        "embedding.epoch_s": total("embedding.train_epoch"),
        "embedding.negatives_s": total("embedding.sample_negatives"),
        "embedding.negatives_calls": c["embedding.sample_negatives.calls"],
        "embedding.negatives_exhausted": c["embedding.negatives_exhausted"],
        "embedding.loss_grad_s": total("embedding.compute_loss_and_gradients"),
        "embedding.adam_s": total("embedding.adam_update"),
        "embedding.batches": c["embedding.compute_loss_and_gradients.calls"],
        "embedding.examples": c["embedding.examples"],
        "kernels.bilinear_s": total("kernels.bilinear_scores"),
        "kernels.scatter_s": total("kernels.accumulate_grads"),
        "kernels.rows": c["kernels.rows"],
        "kernels.scatter_ops": c["kernels.scatter_ops"],
        "kernels.scatter_bytes": 8 * c["kernels.scatter_ops"],
        "axioms.pool_s": total("axioms.generate_pool"),
        "axioms.candidates": candidates,
        "axioms.support_s": total("axioms.count_support_and_head"),
        "axioms.pool_size": c["axioms.pool_size"],
        "axioms.pool_admit_ratio": c["axioms.pool_size"] / candidates if candidates else 0.0,
        "axioms.induce_s": total("axioms.induce_axioms"),
        "injection.inject_s": total("injection.inject_triples"),
        "injection.ground_s": total("injection.ground_axiom"),
        "injection.axioms_grounded": c["injection.ground_axiom.calls"],
        "injection.groundings": groundings,
        "injection.axioms_over_cap": c["injection.axioms_over_cap"],
        "injection.injected": c["injection.injected"],
        "injection.useful_ratio": c["injection.injected"] / groundings if groundings else 0.0,
        "evaluation.rank_s": total("evaluation.link_prediction"),
        "evaluation.rank_side_calls": c["evaluation.rank_entity_side.calls"],
        "evaluation.candidate_score_calls": c["evaluation.candidate_scores.calls"],
        "evaluation.head_coverage_s": total("evaluation.head_coverage"),
        "evaluation.head_coverage_calls": c["evaluation.head_coverage.calls"],
        "evaluation.summarize_s": total("evaluation.summarize_rules"),
        "pipeline.checkpoint_s": total("pipeline.save_checkpoint") + total("pipeline.load_checkpoint"),
        "pipeline.checkpoint_bytes": c["pipeline.checkpoint_bytes"],
        "pipeline.dump_s": total("axioms.write_axioms") + total("injection.write_injected_tsv"),
    }
    for layer, seconds in tr.self_times(lo, hi).items():
        out[f"self.{layer}_s"] = seconds
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this program, in MB.  Linux carries
    ``ru_maxrss`` across exec, so it would report the launching process's
    size whenever that is the larger; ``VmHWM`` starts afresh at exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    spec_path, traced = argv[0], argv[1] == "1"
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tr = Tracer(f"{spec['workload']}-seed{spec['seed']}-pid{os.getpid()}")
    captured: dict = {}
    out: dict = {"ok": False, "traced": traced}
    try:
        install_probes(tr, captured)
        if traced:
            install_layers(tr)
        root = "pipeline.run_iterations" if spec["path"] == "train" else "cli.main"
        unit = tr.wrap(workloads.run_unit, root)
        workloads.clear_outputs(spec)
        start = time.perf_counter()
        result = unit(spec)
        end = time.perf_counter()
        out["peak_rss_mb"] = peak_rss_mb()
        tr.unpatch()
        setup_end = tr.first_start(FIRST_WORK)
        out["setup_s"] = setup_end - start
        out["run_s"] = end - setup_end
        out["epoch_s"] = tr.total("embedding.train_epoch")
        out["examples"] = tr.counts["embedding.examples"]
        out["rank_s"] = tr.total("evaluation.link_prediction")
        out["rank_triples"] = tr.counts["evaluation.rank_entity_side.calls"] / 4
        if traced:
            out["layers"] = layer_metrics(tr, setup_end, end)
            tr.dump(os.path.join(spec["work"], "spans.jsonl"))
        out["checks"], out["quality"] = workloads.check(spec, result, captured)
        out["ok"] = True
    except Exception as exc:  # a failed repetition is reported, not fatal
        out["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    print(json.dumps(out))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
