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
import logging
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .axioms import TYPES, Pool, PoolConfig, ScoredPool, generate_pool, induce_axioms, write_axioms
from .embedding import AdamState, EmbeddingModel, TrainConfig, TripleBatch, init_model, train_epoch
from .evaluation import (  # noqa: F401 (head_coverage: perfbench wraps this module's name)
    head_coverage, link_prediction, summarize_rules,
)
from .injection import Injection, InjectionConfig, inject_triples, read_injected_tsv, write_injected_tsv
from .kg import KnowledgeGraph, distinct_rows, entity_sparsity, load_splits, sparse_entities
from .kg import load_dataset  # noqa: F401 (perfbench wraps this module's name)

log = logging.getLogger(__name__)

CKPT_MAGIC = "ITERE-CKPT v1"

_PHASES = {"pool": 1, "train": 2}


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


def _parse_axioms_union(raw: str) -> bool:
    if raw.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected true/false, 1/0 or yes/no, got {raw!r}")
    return raw.lower() in ("1", "true", "yes")


# keys accepted in flat key=value config files and as CLI overrides, each as
# (section of PipelineConfig, None for its own fields; field; parser)
_CONFIG_KEYS = {
    "data_dir": (None, "data_dir", str), "out_dir": (None, "out_dir", str),
    "iterations": (None, "iterations", int), "eval_every": (None, "eval_every", int),
    "seed": (None, "seed", int),
    "axioms_union": (None, "axioms_union", _parse_axioms_union),
    "dim": ("train", "dim", int), "n_scalars": ("train", "n_scalars", int),
    "negatives": ("train", "n_negatives", int), "l1_weight": ("train", "l1_weight", float),
    "learning_rate": ("train", "learning_rate", float), "batch_size": ("train", "batch_size", int),
    "epochs_per_iteration": ("train", "epochs_per_iteration", int),
    "min_axiom_prob": ("pool", "min_axiom_prob", float), "include_prob": ("pool", "include_prob", float),
    "samples_per_relation": ("pool", "samples_per_relation", int),
    "score_threshold": ("injection", "score_threshold", float),
    "max_inferred_per_axiom": ("injection", "max_inferred_per_axiom", int),
    "sparsity_threshold": ("injection", "sparsity_threshold", float),
}


def coerce_config_value(key: str, raw: str):
    """``raw`` parsed as the value of config key ``key``; an unknown key or a
    value its parser rejects raises a ValueError that names the key."""
    if key not in _CONFIG_KEYS:
        raise ValueError(f"unknown config key {key!r}")
    try:
        return _CONFIG_KEYS[key][2](raw)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


def read_config_file(path: str) -> dict:
    """Parse a flat key=value config file ('#' starts a comment).  An error,
    such as a key set twice, names the file and line."""
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
            if key in values:
                raise ValueError(f"{path}:{lineno}: config key {key!r} repeated")
            try:
                values[key] = coerce_config_value(key, raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def build_config(values: dict) -> PipelineConfig:
    """The config the given keys set, other fields at their defaults; ``seed``
    also seeds training and the pool."""
    if "data_dir" not in values or "out_dir" not in values:
        raise ValueError("config needs data_dir and out_dir")
    sections: dict = {None: {}, "train": {}, "pool": {}, "injection": {}}
    for key, value in values.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        section, name, _ = _CONFIG_KEYS[key]
        sections[section][name] = value
    if "seed" in values:
        sections["train"]["seed"] = sections["pool"]["seed"] = values["seed"]
    return PipelineConfig(
        **sections[None],
        train=TrainConfig(**sections["train"]),
        pool=PoolConfig(**sections["pool"]),
        injection=InjectionConfig(**sections["injection"]),
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


CKPT_BLOCK_ROWS = 1024  # rows of a table written or read at a time


def save_checkpoint(model: EmbeddingModel, path: str) -> None:
    """Header line, then little-endian float64: parameters (entity rows, then
    per relation the scalar diagonal and the rotation pairs), Adam first and
    second moments in the same layout, and the step counter.  Each table
    is written ``CKPT_BLOCK_ROWS`` rows at a time, each block as a
    row-ordered copy of the Fortran-ordered table, so a save holds at most
    one block beside the model."""
    header = (
        f"{CKPT_MAGIC} {model.dim} {model.n_scalars} {model.n_blocks} "
        f"{model.n_entities} {model.n_relations}\n"
    )
    opt = model.opt
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for table in (model.ent, model.rel, opt.m_ent, opt.m_rel, opt.v_ent, opt.v_rel):
            for start in range(0, len(table), CKPT_BLOCK_ROWS):
                fh.write(np.ascontiguousarray(table[start : start + CKPT_BLOCK_ROWS], dtype="<f8"))
        fh.write(np.array([opt.step], dtype="<f8"))


def load_checkpoint(path: str, expect_layout: Optional[tuple[int, int]] = None) -> EmbeddingModel:
    """The model ``save_checkpoint`` wrote, every table Fortran-ordered as
    ``init_model`` makes them; a malformed file (among them a header with a
    negative scalar or block count, or no dimensions, entities or
    relations, or a payload of another size than the header implies), or
    a layout other than ``expect_layout``, raises ``CheckpointError``.  The
    payload's size is checked before any of it is read.  Each table is read
    ``CKPT_BLOCK_ROWS`` rows at a time into one row-ordered block and
    copied from there into its array, so a load holds the model plus that
    block."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        fields = header.split(" ")
        if len(fields) != 7 or " ".join(fields[:2]) != CKPT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (header {header!r})")
        try:
            dim, n_sc, n_bl, n_ent, n_rel = (int(x) for x in fields[2:])
        except ValueError:
            raise CheckpointError(f"{path}: malformed header {header!r}") from None
        if min(n_sc, n_bl) < 0 or min(dim, n_ent, n_rel) < 1 or dim != n_sc + 2 * n_bl:
            raise CheckpointError(f"{path}: invalid layout or size in header {header!r}")
        if expect_layout is not None and (n_sc, n_bl) != tuple(expect_layout):
            raise CheckpointError(
                f"{path}: layout {(n_sc, n_bl)} does not match configured {tuple(expect_layout)}"
            )
        expected = (3 * (n_ent + n_rel) * dim + 1) * 8
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != expected:
            raise CheckpointError(f"{path}: expected {expected} payload bytes, found {found}")
        block = np.empty((min(max(n_ent, n_rel), CKPT_BLOCK_ROWS), dim), dtype="<f8")

        def table(rows: int) -> np.ndarray:
            out = np.empty((rows, dim), dtype="<f8", order="F")
            for start in range(0, rows, len(block)):
                part = block[: rows - start]
                if fh.readinto(part) != part.nbytes:
                    raise CheckpointError(f"{path}: payload shrank while it was read")
                out[start : start + len(part)] = part
            return out

        # parameters, first moments, second moments: each entity rows, then relation rows
        ent, rel, m_ent, m_rel, v_ent, v_rel = (table(n) for n in (n_ent, n_rel) * 3)
        step = int(np.frombuffer(fh.read(8), dtype="<f8")[0])
    return EmbeddingModel(ent, rel, n_sc, AdamState(m_ent, v_ent, m_rel, v_rel, step))


def check_graph_size(model: EmbeddingModel, kg: KnowledgeGraph, path: str) -> None:
    """Raise CheckpointError unless the model has one row per entity and relation of ``kg``."""
    if model.n_entities != kg.n_entities or model.n_relations != kg.n_relations:
        raise CheckpointError(
            f"{path}: checkpoint covers {model.n_entities} entities / "
            f"{model.n_relations} relations, dataset has {kg.n_entities} / {kg.n_relations}"
        )


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
        return asdict(self)


@dataclass
class PipelineResult:
    model: EmbeddingModel
    records: list[IterationRecord]
    injected: Injection
    injected_union: np.ndarray  # the distinct (n, 3) ids injected in any iteration, sorted
    pool: Pool
    scored: ScoredPool
    report: dict
    kg: KnowledgeGraph


def _per_type_counts(scored: ScoredPool, threshold: float) -> dict[str, int]:
    """Per axiom type, the pooled axioms scoring above ``threshold``."""
    counts = np.bincount(scored.table[scored.score > threshold, 0], minlength=len(TYPES))
    return dict(zip([t.value for t in TYPES], counts.tolist()))


def _injected_per_type(injected: Injection) -> dict[str, int]:
    """Per axiom type, the injected triples with a source of that type."""
    has_type = np.zeros((len(injected), len(TYPES)), dtype=bool)
    has_type[np.repeat(np.arange(len(injected)), np.diff(injected.source_start)),
             injected.table[injected.sources, 0]] = True
    return dict(zip([t.value for t in TYPES], has_type.sum(axis=0).tolist()))


def _inject(kg: KnowledgeGraph, scored: ScoredPool, sparse: np.ndarray,
            config: InjectionConfig) -> Injection:
    """``inject_triples``, with a WARNING when the injected triples outnumber
    the graph's: the next epoch trains on every one of them."""
    injected = inject_triples(kg, scored, sparse, config)
    if len(injected) > len(kg):
        log.warning("injected %d triples, more than the graph's %d; the next epoch trains on all of them",
                    len(injected), len(kg))
    return injected


def _read_earlier(kg: KnowledgeGraph, out_dir: str, iterations: int):
    """Records 1..N of ``records.jsonl`` in ``out_dir``, and the distinct rows
    of its ``injected_iter1..N.tsv``, sorted; none for N = 0."""
    if iterations == 0:
        return [], np.empty((0, 3), dtype=np.int64)
    names = ["records.jsonl"] + [f"injected_iter{it}.tsv" for it in range(1, iterations + 1)]
    paths = [os.path.join(out_dir, name) for name in names]
    for path in paths:
        if not os.path.exists(path):
            raise CheckpointError(f"{path} is missing; resuming needs what every earlier iteration wrote")
    records = []
    with open(paths[0], encoding="utf-8") as fh:
        for lineno, line in enumerate(fh.readlines()[:iterations], start=1):
            try:
                records.append(IterationRecord(**json.loads(line)))
            except (ValueError, TypeError) as exc:  # bad JSON, or not the record's fields
                raise CheckpointError(f"{paths[0]}:{lineno}: not an iteration record ({exc})") from None
    if [rec.iteration for rec in records] != list(range(1, iterations + 1)):
        raise CheckpointError(f"{paths[0]} does not hold the records of iterations 1..{iterations}")
    rows = [read_injected_tsv(path, kg.entities, kg.relations) for path in paths[1:]]
    return records, distinct_rows(np.concatenate(rows))


def run_iterations(config: PipelineConfig, resume: Optional[str] = None) -> PipelineResult:
    """Run the full loop and write all artifacts under ``config.out_dir``.

    Each iteration appends its record to ``records.jsonl``, dumps its
    injected set and then writes its checkpoint.  ``resume`` names a
    checkpoint written by a previous run of the same config
    (ckpt_iter<N>.bin); training restarts at iteration N+1 after
    re-deriving the injected set from the loaded model, with the records
    and the union taken from ``records.jsonl`` and the
    ``injected_iter1..N.tsv`` dumps beside the checkpoint.  A checkpoint
    that already covers every iteration is refused first.
    """
    done = 0
    if resume is not None:
        base = os.path.basename(resume)
        try:
            done = int(base.replace("ckpt_iter", "").replace(".bin", ""))
        except ValueError:
            raise CheckpointError(f"cannot infer iteration from {base!r}; expected ckpt_iter<N>.bin") from None
        if done < 1:
            raise CheckpointError(f"{base!r} names iteration {done}; checkpoints start at iteration 1")
    if done >= config.iterations:
        raise ValueError(f"checkpoint already covers all {config.iterations} iterations")
    train, valid, test, entities, relations = load_splits(config.data_dir)
    kg = KnowledgeGraph(train, entities, relations)
    records, injected_union = _read_earlier(kg, os.path.dirname(resume or ""), done)
    table = entity_sparsity(kg)
    sparse = sparse_entities(table, config.injection.sparsity_threshold)
    known = np.concatenate([kg.ids, valid, test])

    os.makedirs(config.out_dir, exist_ok=True)

    pool = generate_pool(kg, config.pool, phase_rng(config.seed, 0, "pool"))

    injected: Optional[Injection] = None
    if resume is None:
        model = init_model(kg.n_entities, kg.n_relations, config.train)
    else:
        model = load_checkpoint(resume, (config.train.n_scalars, config.train.n_blocks))
        check_graph_size(model, kg, resume)
        injected = _inject(kg, induce_axioms(model, pool), sparse, config.injection)

    graph_batch = TripleBatch(kg.ids, np.ones(len(kg)))
    records_path = os.path.join(config.out_dir, "records.jsonl")
    with open(records_path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec.to_dict(), sort_keys=True) + "\n" for rec in records)

    for it in range(done + 1, config.iterations + 1):
        rng = phase_rng(config.seed, it, "train")
        inputs = graph_batch + TripleBatch(injected.ids, injected.truth) if injected else graph_batch
        losses = [train_epoch(model, inputs, kg, config.train, rng)
                  for _ in range(config.train.epochs_per_iteration)]
        scored = induce_axioms(model, pool)
        injected = _inject(kg, scored, sparse, config.injection)
        injected_union = distinct_rows(np.concatenate([injected_union, injected.ids]))

        ranked = None
        if config.eval_every and it % config.eval_every == 0 and len(test):
            ranked = link_prediction(model, known, test, table.freq)
        record = IterationRecord(
            iteration=it,
            mean_loss=float(np.mean(losses)),
            axioms_above_threshold=_per_type_counts(scored, config.injection.score_threshold),
            injected_per_type=_injected_per_type(injected),
            injected_total=len(injected),
            metrics=None if ranked is None else ranked.to_dict(),
        )
        records.append(record)
        with open(records_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        write_injected_tsv(
            os.path.join(config.out_dir, f"injected_iter{it}.tsv"), injected, entities, relations
        )
        # last, so that a checkpoint on disk finds what resuming from it reads
        save_checkpoint(model, os.path.join(config.out_dir, f"ckpt_iter{it}.bin"))

    # final artifacts; head coverage comes from the pool's own join
    write_axioms(os.path.join(config.out_dir, "axioms.jsonl"), scored, relations)

    report: dict = {
        "config": {
            "iterations": config.iterations,
            "seed": config.seed,
            "dim": config.train.dim,
            "score_threshold": config.injection.score_threshold,
            "sparsity_threshold": config.injection.sparsity_threshold,
        },
        "n_train": len(kg),
        "n_valid": len(valid),
        "n_test": len(test),
        "n_sparse_entities": int(np.count_nonzero(sparse)),
        "pool_size": len(pool),
        "injected_final": len(injected),
        "injected_union": len(injected_union),
    }
    if len(test):
        # the final model is ranked once: by the last iteration's evaluation, if it made one
        plain = link_prediction(model, known, test, table.freq) if ranked is None else ranked
        report["link_prediction"] = plain.to_dict()
        report["link_prediction_with_axioms"] = plain.credit(
            injected_union if config.axioms_union else injected.ids).to_dict()
    report["rules"] = summarize_rules(scored.head_coverage(), scored.score)
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
