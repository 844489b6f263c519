"""Command-line interface: sparsify, train, rules, eval."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import numpy as np

from .axioms import PoolConfig, csv_mirror_path, generate_pool, induce_axioms, write_axioms
from .evaluation import head_coverage, link_prediction  # noqa: F401 (perfbench wraps head_coverage here)
from .injection import read_injected_tsv
from .kg import KnowledgeGraph, entity_sparsity, load_splits, sparsify_eval_split
from .kg import load_dataset  # noqa: F401 (perfbench wraps this module's name)
from .pipeline import (
    build_config, check_graph_size, coerce_config_value, load_checkpoint, phase_rng,
    read_config_file, run_iterations,
)


def _cmd_sparsify(args) -> int:
    train, valid, test, entities, relations = load_splits(args.data)
    table = entity_sparsity(KnowledgeGraph(train, entities, relations))
    ent, rel = entities.names, relations.names
    os.makedirs(args.out, exist_ok=True)
    shutil.copyfile(os.path.join(args.data, "train.txt"), os.path.join(args.out, "train.txt"))
    for name, split in (("valid.txt", valid), ("test.txt", test)):
        kept = sparsify_eval_split(table, split, args.theta)
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.writelines(f"{ent[s]}\t{rel[r]}\t{ent[o]}\n" for s, r, o in kept.tolist())
        print(f"{name}: kept {len(kept)}/{len(split)}")
    return 0


def _cmd_train(args) -> int:
    values = read_config_file(args.config)
    for key, val in (args.set or []):
        values[key] = coerce_config_value(key, val)
    config = build_config(values)
    result = run_iterations(config, resume=args.resume)
    last = result.records[-1]
    print(f"finished iteration {last.iteration}: mean loss {last.mean_loss:.4f}, "
          f"injected {last.injected_total} triples")
    print(f"artifacts in {config.out_dir}")
    return 0


def _cmd_rules(args) -> int:
    csv_mirror_path(args.out)
    train, _, _, entities, relations = load_splits(args.data)
    kg = KnowledgeGraph(train, entities, relations)
    model = load_checkpoint(args.ckpt)
    check_graph_size(model, kg, args.ckpt)
    pool_cfg = PoolConfig(
        min_axiom_prob=args.min_axiom_prob, include_prob=args.include_prob,
        samples_per_relation=args.samples_per_relation, seed=args.seed,
    )
    pool = generate_pool(kg, pool_cfg, phase_rng(args.seed, 0, "pool"))
    scored = induce_axioms(model, pool)
    write_axioms(args.out, scored, relations)  # head coverage from the pool's own join
    print(f"wrote {len(scored)} scored axioms to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    train, valid, test, entities, relations = load_splits(args.data)
    kg = KnowledgeGraph(train, entities, relations)
    model = load_checkpoint(args.ckpt)
    check_graph_size(model, kg, args.ckpt)
    table = entity_sparsity(kg)
    known = np.concatenate([kg.ids, valid, test])
    report = link_prediction(model, known, test, table.freq)
    if args.with_axioms:
        report = report.credit(read_injected_tsv(args.with_axioms, entities, relations))
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _parse_override(raw: str) -> tuple[str, str]:
    if "=" not in raw:
        raise argparse.ArgumentTypeError(f"override must be key=value, got {raw!r}")
    key, _, val = raw.partition("=")
    return key.strip(), val.strip()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="iterkg")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sparsify", help="filter valid/test to triples touching sparse entities")
    p.add_argument("--data", required=True, help="dataset directory with train/valid/test.txt")
    p.add_argument("--theta", type=float, default=0.995, help="sparsity threshold")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=_cmd_sparsify)

    p = sub.add_parser("train", help="run the iterative training loop")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--resume", help="checkpoint (ckpt_iter<N>.bin) to resume from")
    p.add_argument("--set", action="append", type=_parse_override, metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("rules", help="score the axiom pool against a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output .jsonl path (a .csv mirror is written too)")
    p.add_argument("--min-axiom-prob", type=float, default=0.5)
    p.add_argument("--include-prob", type=float, default=0.95)
    p.add_argument("--samples-per-relation", type=int, metavar="N",
                   help="head triples sampled per relation for the pool, as the run's "
                        "samples_per_relation key (default: derived from the two probabilities)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_rules)

    p = sub.add_parser("eval", help="link-prediction metrics for a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--with-axioms", help="injected-triple TSV; listed test triples rank 1")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
