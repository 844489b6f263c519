"""Iteration loop orchestration, configuration, and checkpoints.

Each round trains the embedding for a fixed number of epochs on the graph
triples plus the current injected set, re-scores the (fixed) axiom pool
against the fresh relation matrices, and re-derives the injected set from
scratch.  Per-phase RNG streams are derived from (seed, iteration, phase)
so a run resumed from any iteration checkpoint replays the uninterrupted
trajectory exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .axioms import (
    AxiomType, PoolConfig, PooledAxiom, ScoredAxiom, generate_pool, induce_axioms, write_axioms,
)
from .embedding import AdamState, EmbeddingModel, LabeledTriple, TrainConfig, init_model, train_epoch
from .evaluation import head_coverage, link_prediction, link_prediction_with_axioms, summarize_rules
from .injection import InferredTriple, InjectionConfig, inject_triples, write_injected_tsv
from .kg import KnowledgeGraph, Triple, entity_sparsity, load_dataset, sparse_entities

CKPT_MAGIC = "ITERE-CKPT v1"

_PHASES = {"init": 0, "pool": 1, "train": 2}


class CheckpointError(RuntimeError):
    pass


def phase_rng(seed: int, iteration: int, phase: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, iteration, _PHASES[phase])))


@dataclass
class PipelineConfig:
    data_dir: str
    out_dir: str
    iterations: int = 10
    eval_every: int = 0  # 0: evaluate after the final iteration only
    seed: int = 0
    axioms_union: bool = False  # evaluate +axioms on the union over iterations
    train: TrainConfig = field(default_factory=TrainConfig)
    pool: PoolConfig = field(default_factory=PoolConfig)
    injection: InjectionConfig = field(default_factory=InjectionConfig)

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0")


# keys accepted in flat key=value config files and as CLI overrides
_CONFIG_KEYS = {
    "data_dir": str, "out_dir": str, "iterations": int, "eval_every": int,
    "seed": int, "axioms_union": lambda v: v.lower() in ("1", "true", "yes"),
    "dim": int, "n_scalars": int, "negatives": int, "l1_weight": float,
    "learning_rate": float, "batch_size": int, "epochs_per_iteration": int,
    "min_axiom_prob": float, "include_prob": float, "samples_per_relation": int,
    "score_threshold": float, "max_inferred_per_axiom": int, "sparsity_threshold": float,
}


def coerce_config_value(key: str, raw: str):
    if key not in _CONFIG_KEYS:
        raise ValueError(f"unknown config key {key!r}")
    return _CONFIG_KEYS[key](raw)


def read_config_file(path: str) -> dict:
    """Parse a flat key=value config file ('#' starts a comment)."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _CONFIG_KEYS[key](raw)
    return values


def build_config(values: dict) -> PipelineConfig:
    if "data_dir" not in values or "out_dir" not in values:
        raise ValueError("config needs data_dir and out_dir")
    seed = values.get("seed", 0)
    train = TrainConfig(
        dim=values.get("dim", 200),
        n_negatives=values.get("negatives", 6),
        l1_weight=values.get("l1_weight", 1e-5),
        learning_rate=values.get("learning_rate", 0.001),
        batch_size=values.get("batch_size", 1024),
        epochs_per_iteration=values.get("epochs_per_iteration", 10),
        seed=seed,
        n_scalars=values.get("n_scalars"),
    )
    pool = PoolConfig(
        min_axiom_prob=values.get("min_axiom_prob", 0.5),
        include_prob=values.get("include_prob", 0.95),
        samples_per_relation=values.get("samples_per_relation"),
        seed=seed,
    )
    injection = InjectionConfig(
        score_threshold=values.get("score_threshold", 0.9),
        max_inferred_per_axiom=values.get("max_inferred_per_axiom", 1000),
        sparsity_threshold=values.get("sparsity_threshold", 0.995),
    )
    return PipelineConfig(
        data_dir=values["data_dir"],
        out_dir=values["out_dir"],
        iterations=values.get("iterations", 10),
        eval_every=values.get("eval_every", 0),
        seed=seed,
        axioms_union=values.get("axioms_union", False),
        train=train,
        pool=pool,
        injection=injection,
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _param_blocks(model: EmbeddingModel) -> list[np.ndarray]:
    blocks = [model.ent]
    for r in range(model.n_relations):
        blocks.append(model.rel_scalars[r])
        blocks.append(model.rel_rot[r])
    return blocks


def save_checkpoint(model: EmbeddingModel, path: str) -> None:
    """Header line, then little-endian float64: parameters, Adam first and
    second moments in the same layout, and the step counter."""
    header = (
        f"{CKPT_MAGIC} {model.dim} {model.n_scalars} {model.n_blocks} "
        f"{model.n_entities} {model.n_relations}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for arr in _param_blocks(model):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        opt = model.opt
        for group in ((opt.m_ent, opt.m_sc, opt.m_rot), (opt.v_ent, opt.v_sc, opt.v_rot)):
            m_ent, m_sc, m_rot = group
            fh.write(np.ascontiguousarray(m_ent, dtype="<f8").tobytes())
            for r in range(model.n_relations):
                fh.write(np.ascontiguousarray(m_sc[r], dtype="<f8").tobytes())
                fh.write(np.ascontiguousarray(m_rot[r], dtype="<f8").tobytes())
        fh.write(np.array([opt.step], dtype="<f8").tobytes())


def load_checkpoint(path: str, expect_layout: Optional[tuple[int, int]] = None) -> EmbeddingModel:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        fields = header.split(" ")
        if len(fields) != 7 or " ".join(fields[:2]) != CKPT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (header {header!r})")
        try:
            dim, n_sc, n_bl, n_ent, n_rel = (int(x) for x in fields[2:])
        except ValueError:
            raise CheckpointError(f"{path}: malformed header {header!r}") from None
        if dim != n_sc + 2 * n_bl:
            raise CheckpointError(f"{path}: inconsistent layout in header")
        if expect_layout is not None and (n_sc, n_bl) != tuple(expect_layout):
            raise CheckpointError(
                f"{path}: layout {(n_sc, n_bl)} does not match configured {tuple(expect_layout)}"
            )
        payload = fh.read()
    n_params = n_ent * dim + n_rel * (n_sc + 2 * n_bl)
    expected = (3 * n_params + 1) * 8
    if len(payload) != expected:
        raise CheckpointError(f"{path}: expected {expected} payload bytes, found {len(payload)}")
    flat = np.frombuffer(payload, dtype="<f8")

    def take(off: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        ent = flat[off : off + n_ent * dim].reshape(n_ent, dim).copy()
        off += n_ent * dim
        sc = np.empty((n_rel, n_sc))
        rot = np.empty((n_rel, n_bl, 2))
        for r in range(n_rel):
            sc[r] = flat[off : off + n_sc]
            off += n_sc
            rot[r] = flat[off : off + 2 * n_bl].reshape(n_bl, 2)
            off += 2 * n_bl
        return ent, sc, rot, off

    ent, sc, rot, off = take(0)
    m_ent, m_sc, m_rot, off = take(off)
    v_ent, v_sc, v_rot, off = take(off)
    step = int(flat[off])
    return EmbeddingModel(ent, sc, rot, AdamState(m_ent, v_ent, m_sc, v_sc, m_rot, v_rot, step))


# ---------------------------------------------------------------------------
# iteration loop
# ---------------------------------------------------------------------------


@dataclass
class IterationRecord:
    iteration: int
    mean_loss: float
    axioms_above_threshold: dict[str, int]
    injected_per_type: dict[str, int]
    injected_total: int
    metrics: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "mean_loss": self.mean_loss,
            "axioms_above_threshold": self.axioms_above_threshold,
            "injected_per_type": self.injected_per_type,
            "injected_total": self.injected_total,
            "metrics": self.metrics,
        }


@dataclass
class PipelineResult:
    model: EmbeddingModel
    records: list[IterationRecord]
    injected: list[InferredTriple]
    injected_union: dict[Triple, float]
    pool: list[PooledAxiom]
    scored: list[ScoredAxiom]
    report: dict
    kg: KnowledgeGraph


def _per_type_counts(scored: list[ScoredAxiom], threshold: float) -> dict[str, int]:
    counts = {t.value: 0 for t in AxiomType}
    for sa in scored:
        if sa.score > threshold:
            counts[sa.axiom.type.value] += 1
    return counts


def _injected_per_type(injected: list[InferredTriple]) -> dict[str, int]:
    counts = {t.value: 0 for t in AxiomType}
    for it in injected:
        for t in {ax.type for ax in it.sources}:
            counts[t.value] += 1
    return counts


def run_iterations(config: PipelineConfig, resume: Optional[str] = None) -> PipelineResult:
    """Run the full loop and write all artifacts under ``config.out_dir``.

    ``resume`` names a checkpoint written by a previous run of the same
    config (ckpt_iter<N>.bin); training restarts at iteration N+1 after
    re-deriving the injected set from the loaded model.
    """
    train, valid, test, entities, relations = load_dataset(config.data_dir)
    kg = KnowledgeGraph(train, entities, relations)
    table = entity_sparsity(kg)
    sparse = sparse_entities(table, config.injection.sparsity_threshold)
    known = set(kg.triples) | set(valid) | set(test)

    os.makedirs(config.out_dir, exist_ok=True)

    pool = generate_pool(kg, config.pool, phase_rng(config.seed, 0, "pool"))

    start_iter = 1
    if resume is None:
        model = init_model(kg.n_entities, kg.n_relations, config.train)
        injected: list[InferredTriple] = []
        injected_union: dict[Triple, float] = {}
    else:
        model = load_checkpoint(resume, (config.train.n_scalars, config.train.n_blocks))
        if model.n_entities != kg.n_entities or model.n_relations != kg.n_relations:
            raise CheckpointError(
                f"{resume}: checkpoint covers {model.n_entities} entities / "
                f"{model.n_relations} relations, dataset has {kg.n_entities} / {kg.n_relations}"
            )
        base = os.path.basename(resume)
        try:
            done = int(base.replace("ckpt_iter", "").replace(".bin", ""))
        except ValueError:
            raise CheckpointError(
                f"cannot infer iteration from {base!r}; expected ckpt_iter<N>.bin"
            ) from None
        start_iter = done + 1
        scored = induce_axioms(model, pool)
        injected = inject_triples(kg, scored, sparse, config.injection)
        injected_union = {it.triple: it.truth for it in injected}
        if start_iter > config.iterations:
            raise ValueError(f"checkpoint already covers all {config.iterations} iterations")

    base_inputs = [LabeledTriple(t, 1.0) for t in kg.triples]
    records: list[IterationRecord] = []
    scored: list[ScoredAxiom] = []

    for it in range(start_iter, config.iterations + 1):
        rng = phase_rng(config.seed, it, "train")
        inputs = base_inputs + [LabeledTriple(inj.triple, inj.truth) for inj in injected]
        losses = [
            train_epoch(model, inputs, kg, config.train, rng)
            for _ in range(config.train.epochs_per_iteration)
        ]
        scored = induce_axioms(model, pool)
        injected = inject_triples(kg, scored, sparse, config.injection)
        for inj in injected:
            prev = injected_union.get(inj.triple, -1.0)
            if inj.truth > prev:
                injected_union[inj.triple] = inj.truth

        metrics = None
        if config.eval_every and it % config.eval_every == 0 and test:
            metrics = link_prediction(model, known, test, table.freq).to_dict()
        record = IterationRecord(
            iteration=it,
            mean_loss=float(np.mean(losses)),
            axioms_above_threshold=_per_type_counts(scored, config.injection.score_threshold),
            injected_per_type=_injected_per_type(injected),
            injected_total=len(injected),
            metrics=metrics,
        )
        records.append(record)
        save_checkpoint(model, os.path.join(config.out_dir, f"ckpt_iter{it}.bin"))
        write_injected_tsv(
            os.path.join(config.out_dir, f"injected_iter{it}.tsv"), injected, entities, relations
        )

    # final artifacts
    with open(os.path.join(config.out_dir, "records.jsonl"), "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
    hc_values = [head_coverage(kg, sa.axiom) for sa in scored]
    write_axioms(os.path.join(config.out_dir, "axioms.jsonl"), scored, relations, hc_values)

    report: dict = {
        "config": {
            "iterations": config.iterations,
            "seed": config.seed,
            "dim": config.train.dim,
            "score_threshold": config.injection.score_threshold,
            "sparsity_threshold": config.injection.sparsity_threshold,
        },
        "n_train": len(kg.triples),
        "n_valid": len(valid),
        "n_test": len(test),
        "n_sparse_entities": len(sparse),
        "pool_size": len(pool),
        "injected_final": len(injected),
        "injected_union": len(injected_union),
    }
    if test:
        plain = link_prediction(model, known, test, table.freq)
        axiom_set: Iterable = injected_union.keys() if config.axioms_union else injected
        hybrid = link_prediction_with_axioms(model, known, test, axiom_set, table.freq)
        report["link_prediction"] = plain.to_dict()
        report["link_prediction_with_axioms"] = hybrid.to_dict()
    report["rules"] = summarize_rules(hc_values, scored)
    with open(os.path.join(config.out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(config.out_dir, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write("key,value\n")
        for key, value in _flatten(report):
            fh.write(f"{key},{value}\n")

    return PipelineResult(model, records, injected, injected_union, pool, scored, report, kg)


def _flatten(obj, prefix=""):
    """Depth-first (key path, scalar) pairs for the plotting-friendly CSV."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _flatten(item, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj
