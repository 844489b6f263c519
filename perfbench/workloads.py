"""The four workloads: inputs, the entry point each one drives, its checks.

Each workload names one of iterkg's public entry points (``run_iterations``
for ``train``, ``iterkg.cli.main`` for ``rules`` and ``eval``) and the
inputs it gets.  ``prepare`` runs in the benchmark's parent process and
writes every input file; ``run_unit`` and ``check`` run in a fresh worker
process per repetition.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

from graphs import GraphShape, cached_dataset

FB237 = GraphShape(14541, 237, 272115, 17535, 20466)
# The small Zipf graphs use a steeper entity exponent: at a few hundred
# entities, 0.85 puts 18-21% of edge ends on the top 1% of entities, near
# the FB shape's 24% at 0.75; 0.75 would put 14-16% there.
ZIPF_ENTITY_EXPONENT = 0.85


@dataclass(frozen=True)
class Workload:
    path: str                   # "train", "rules" or "eval"
    why: str
    shape: GraphShape | None    # None: iterkg.synthetic's planted graph
    config: dict = field(default_factory=dict)  # train config keys / CLI flags
    rank_sample: int = 0        # eval: test triples ranked per run


WORKLOADS = {
    "planted-demo": Workload(
        path="train",
        why="README demo config on the planted graph: training (negatives, kernels, "
            "kg lookups) is ~95% of the time, pool/injection/ranking tiny",
        shape=None,
        config=dict(dim=32, n_scalars=32, iterations=10, epochs_per_iteration=3,
                    learning_rate=0.02, l1_weight=0, batch_size=512,
                    max_inferred_per_axiom=2000, sparsity_threshold=0.9),
    ),
    "zipf-inject": Workload(
        path="train",
        why="Zipf graph at dim 200, 2 rounds x 1 epoch, every pooled axiom grounded: "
            "grounding and kg joins lead, a dim-200 epoch follows",
        shape=GraphShape(600, 237, 3000, 200, 150, entity_exponent=ZIPF_ENTITY_EXPONENT),
        config=dict(dim=200, iterations=2, epochs_per_iteration=1,
                    samples_per_relation=1_000_000, score_threshold=0.0),
    ),
    "zipf-rules": Workload(
        path="rules",
        why="iterkg rules on a Zipf graph: pool generation, support counting, axiom "
            "scoring and head coverage, no training or ranking",
        shape=GraphShape(1000, 237, 5500, 200, 200, entity_exponent=ZIPF_ENTITY_EXPONENT),
        config={"--min-axiom-prob": "0.001"},
    ),
    "fb237-rank": Workload(
        path="eval",
        why="iterkg eval on an FB15k-237-shaped graph: bulk load and index in setup, "
            "filtered ranking of a seeded test sample over 14,541 entities",
        shape=FB237,
        config=dict(dim=200),
        rank_sample=100,
    ),
}

# small enough that all four run in seconds; used by the smoke test
TINY = {
    "planted-demo": dict(config=dict(WORKLOADS["planted-demo"].config, iterations=2,
                                     epochs_per_iteration=1)),
    "zipf-inject": dict(shape=GraphShape(120, 12, 600, 40, 40, ZIPF_ENTITY_EXPONENT)),
    "zipf-rules": dict(shape=GraphShape(150, 12, 800, 40, 40, ZIPF_ENTITY_EXPONENT)),
    "fb237-rank": dict(shape=GraphShape(300, 20, 3000, 100, 100), rank_sample=10),
}


def workload(name: str, tiny: bool) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **TINY[name]) if tiny else w


# ---------------------------------------------------------------------------
# preparation (parent process)
# ---------------------------------------------------------------------------


def prepare(name: str, seed: int, state_dir: str, tiny: bool) -> tuple[dict, float]:
    """Write the inputs of one run; returns (spec for the workers, seconds
    spent generating graphs).  Graphs are cached, checkpoints are not."""
    w = workload(name, tiny)
    cache = os.path.join(state_dir, "cache")
    work = os.path.join(state_dir, "work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(cache, exist_ok=True)
    spec = {"workload": name, "path": w.path, "seed": seed, "work": work}

    if w.shape is None:
        data, gen_s = _planted(cache, seed)
    else:
        data, gen_s = cached_dataset(cache, w.shape, seed)

    if w.path == "train":
        spec["config"] = dict(w.config, data_dir=data, out_dir=os.path.join(work, "out"), seed=seed)
        spec["data"] = data
        return spec, gen_s

    from iterkg.embedding import TrainConfig, init_model
    from iterkg.pipeline import save_checkpoint

    ckpt = os.path.join(work, "model.bin")
    dim = w.config.get("dim", 200)
    save_checkpoint(init_model(w.shape.n_entities, w.shape.n_relations,
                               TrainConfig(dim=dim, seed=seed)), ckpt)
    if w.path == "rules":
        out = os.path.join(work, "rules.jsonl")
        flags = [x for kv in w.config.items() for x in kv]
        spec["argv"] = ["rules", "--ckpt", ckpt, "--data", data, "--out", out,
                        "--seed", str(seed), *flags]
        spec.update(data=data, out=out)
    else:
        sample_dir = _rank_sample(data, w.rank_sample, seed)
        out = os.path.join(work, "report.json")
        spec["argv"] = ["eval", "--ckpt", ckpt, "--data", sample_dir, "--out", out]
        spec.update(data=sample_dir, out=out)
    return spec, gen_s


def _planted(cache: str, seed: int) -> tuple[str, float]:
    from iterkg.synthetic import make_planted_dataset, write_dataset

    path = os.path.join(cache, f"planted-s{seed}")
    if os.path.exists(os.path.join(path, "done")):
        return path, 0.0
    start = time.perf_counter()
    write_dataset(make_planted_dataset(seed=seed), path)
    open(os.path.join(path, "done"), "w").close()
    return path, time.perf_counter() - start


def _rank_sample(data: str, size: int, seed: int) -> str:
    """Dataset whose test split is a seeded sample of ``data``'s.

    The rest of the test split joins valid, so the filter set (train, valid
    and test together) is the full dataset's.
    """
    path = os.path.join(data, f"rank-sample-{size}")
    if os.path.exists(os.path.join(path, "done")):
        return path
    with open(os.path.join(data, "test.txt"), encoding="utf-8") as fh:
        test = fh.readlines()
    rng = np.random.default_rng(seed)
    picked = set(rng.choice(len(test), size=min(size, len(test)), replace=False).tolist())
    os.makedirs(path, exist_ok=True)
    shutil.copyfile(os.path.join(data, "train.txt"), os.path.join(path, "train.txt"))
    with open(os.path.join(data, "valid.txt"), encoding="utf-8") as fh:
        valid = fh.readlines()
    with open(os.path.join(path, "valid.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(valid + [line for i, line in enumerate(test) if i not in picked])
    with open(os.path.join(path, "test.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(line for i, line in enumerate(test) if i in picked)
    open(os.path.join(path, "done"), "w").close()
    return path


# ---------------------------------------------------------------------------
# one unit of work and its checks (worker process)
# ---------------------------------------------------------------------------


def clear_outputs(spec: dict) -> None:
    """Remove what an earlier repetition wrote, before the clock starts."""
    if spec["path"] == "train":
        shutil.rmtree(spec["config"]["out_dir"], ignore_errors=True)
    elif os.path.exists(spec["out"]):
        os.remove(spec["out"])


def run_unit(spec: dict):
    """Drive the workload's entry point once; returns what the checks need."""
    if spec["path"] == "train":
        from iterkg.pipeline import build_config, run_iterations

        return run_iterations(build_config(dict(spec["config"])))
    import contextlib
    import io

    from iterkg import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(spec["argv"])
    if code != 0:
        raise RuntimeError(f"iterkg {spec['argv'][0]} exited with {code}")
    return None


def check(spec: dict, result, captured: dict) -> tuple[list[str], dict]:
    """Run the workload's output checks; returns (checks passed, quality
    numbers).  Raises ``checks.CheckFailed`` on a mismatch."""
    from iterkg.kg import load_dataset

    data = load_dataset(spec["data"])
    by_path = {"train": _check_train, "rules": _check_rules, "eval": _check_eval}
    return by_path[spec["path"]](spec, data, result, captured)


def _check_train(spec, data, result, captured):
    import checks

    train, valid, test, entities, relations = data
    cfg, seed = spec["config"], spec["seed"]
    out = cfg["out_dir"]
    losses = checks.check_records(os.path.join(out, "records.jsonl"), cfg["iterations"])
    passed = ["records"]
    quality = {"final_loss": losses[-1], "injected_final": len(result.injected),
               "pool_size": len(result.pool)}
    report = result.report
    if test:
        ranks = checks.oracle_ranks(result.model, set(train) | set(valid) | set(test), test)
        checks.check_report(report["link_prediction"], ranks, test)
        rank_one = {tuple(it.triple) for it in result.injected}
        checks.check_report(report["link_prediction_with_axioms"], ranks, test, rank_one)
        passed.append(f"ranks:{len(test)}")
        quality["mrr_filter"] = report["link_prediction"]["mrr_filter"]
        quality["mrr_filter_axioms"] = report["link_prediction_with_axioms"]["mrr_filter"]
    index = checks.TripleIndex(train)
    n, excluded = checks.check_pool(index, result.kg, result.pool, seed)
    passed += [f"pool:{n}", f"pool-over-budget:{excluded}"]
    sparse = checks.sparse_set(train, len(entities), cfg.get("sparsity_threshold", 0.995))
    checks.check_injected(result.injected, result.scored, index.triples, sparse)
    names = {(entities.name_of(s), relations.name_of(r), entities.name_of(o))
             for s, r, o in index.triples}
    checks.check_injected_dumps(
        [os.path.join(out, f"injected_iter{i}.tsv") for i in range(1, cfg["iterations"] + 1)],
        names, {entities.name_of(e) for e in sparse})
    passed.append("injected")
    if spec["workload"] == "planted-demo":
        quality["planted_ranks"] = _planted_ranks(result.scored, relations, seed)
    return passed, quality


def _check_rules(spec, data, result, captured):
    """The written axiom rows, not the in-memory pool, meet the oracle."""
    import checks
    from iterkg.axioms import Axiom, AxiomType, PooledAxiom
    from iterkg.kg import KnowledgeGraph

    train, _, _, entities, relations = data
    with open(spec["out"], encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    pool = captured["pool"]
    checks.require(len(rows) == len(pool), f"{len(rows)} axiom rows for a pool of {len(pool)}")
    written, hc_of = [], {}
    for row in rows:
        axiom = Axiom(AxiomType(row["type"]), [relations.id_of(r) for r in row["relations"]])
        written.append(PooledAxiom(axiom, row["support"], row["head_size"]))
        hc_of[axiom] = row["hc"]
    written.sort(key=lambda pa: pa.axiom.sort_key())
    kg = KnowledgeGraph(train, entities, relations)
    n, excluded = checks.check_pool(checks.TripleIndex(train), kg, written, spec["seed"], hc_of)
    return (["rows", f"pool:{n}", f"pool-over-budget:{excluded}", "head_coverage"],
            {"pool_size": len(pool)})


def _check_eval(spec, data, result, captured):
    import checks
    from iterkg.pipeline import load_checkpoint

    train, valid, test, _, _ = data
    with open(spec["out"], encoding="utf-8") as fh:
        report = json.load(fh)
    model = load_checkpoint(spec["argv"][spec["argv"].index("--ckpt") + 1])
    ranks = checks.oracle_ranks(model, set(train) | set(valid) | set(test), test)
    checks.check_report(report, ranks, test)
    return [f"ranks:{len(test)}"], {"mrr_filter": report["mrr_filter"]}


def _planted_ranks(scored, relations, seed: int) -> dict:
    """Rank of each planted axiom within its type (1 = best scored)."""
    from iterkg.synthetic import make_planted_dataset

    out = {}
    for kind, names in make_planted_dataset(seed=seed).planted:
        same = [sa for sa in scored if sa.axiom.type.value == kind]
        want = tuple(relations.id_of(n) for n in names)
        hits = [i for i, sa in enumerate(same, start=1) if sa.axiom.relations == want]
        out[kind] = hits[0] if hits else None
    return out
