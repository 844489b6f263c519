"""Checkpoints, config parsing, the iteration loop, and the CLI surface."""

import dataclasses
import inspect
import json
import os
import re
import shutil
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from iterkg import axioms, cli, evaluation, injection, pipeline
from iterkg.axioms import Axiom, AxiomType, PoolConfig
from iterkg.cli import build_parser, main as cli_main
from iterkg.embedding import StepBuffers, TrainConfig, init_model
from iterkg.evaluation import head_coverage
from iterkg.injection import InjectionConfig, read_injected_tsv
from iterkg.kg import KnowledgeGraph, Triple, entity_sparsity, load_dataset, sparse_entities
from iterkg.pipeline import (
    CheckpointError, PipelineConfig, build_config, load_checkpoint, read_config_file,
    run_iterations, save_checkpoint,
)
from iterkg.synthetic import make_planted_dataset, write_dataset


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    write_dataset(make_planted_dataset(seed=7), path)
    return str(path)


def small_config(dataset_dir, out_dir, iterations=2, seed=11):
    return PipelineConfig(
        data_dir=str(dataset_dir), out_dir=str(out_dir), iterations=iterations, seed=seed,
        train=TrainConfig(dim=8, n_scalars=8, n_negatives=3, l1_weight=0.0,
                          learning_rate=0.02, batch_size=512, epochs_per_iteration=2, seed=seed),
        injection=InjectionConfig(score_threshold=0.9, max_inferred_per_axiom=2000,
                                  sparsity_threshold=0.9),
    )


def randomize_adam(model, rng):
    for name in ("m_ent", "v_ent", "m_rel", "v_rel"):
        arr = getattr(model.opt, name)
        arr[:] = rng.normal(size=arr.shape)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        m = init_model(7, 3, TrainConfig(dim=8, seed=4))
        m.opt.step = 17
        randomize_adam(m, np.random.default_rng(0))
        path = tmp_path / "model.bin"
        save_checkpoint(m, path)
        back = load_checkpoint(path)
        for arr in (back.ent, back.opt.m_ent, back.opt.v_ent, back.rel, back.opt.m_rel, back.opt.v_rel):
            assert arr.flags.f_contiguous and not arr.flags.c_contiguous and arr.flags.writeable
        assert back.n_scalars == m.n_scalars
        assert np.array_equal(back.ent, m.ent)
        assert np.array_equal(back.rel, m.rel)
        for name in ("m_ent", "v_ent", "m_rel", "v_rel"):
            assert np.array_equal(getattr(back.opt, name), getattr(m.opt, name)), name
        assert back.opt.step == 17
        # and the on-disk bytes are reproducible
        save_checkpoint(back, tmp_path / "model2.bin")
        assert (tmp_path / "model.bin").read_bytes() == (tmp_path / "model2.bin").read_bytes()

    def test_bytes_follow_the_documented_layout(self, tmp_path):
        # header, then little-endian float64: entity rows, per relation the
        # scalar diagonal then the rotation pairs; the same for the Adam
        # first and second moments; then the step counter
        m = init_model(3, 2, TrainConfig(dim=10, n_scalars=4, seed=5))
        randomize_adam(m, np.random.default_rng(1))
        m.opt.step = 9
        o = m.opt
        values = []
        for ent, rel in ((m.ent, m.rel), (o.m_ent, o.m_rel), (o.v_ent, o.v_rel)):
            sc, rot = rel[:, :4], rel[:, 4:].reshape(2, 3, 2)
            values += [x for row in ent for x in row]
            for r in range(2):
                values += list(sc[r])
                values += [x for a, b in rot[r] for x in (a, b)]
        values.append(9.0)
        want = b"ITERE-CKPT v1 10 4 3 3 2\n" + struct.pack(f"<{len(values)}d", *values)
        save_checkpoint(m, tmp_path / "m.bin")
        assert (tmp_path / "m.bin").read_bytes() == want

    def test_header_first_line(self, tmp_path):
        m = init_model(3, 2, TrainConfig(dim=8, seed=0))
        path = tmp_path / "m.bin"
        save_checkpoint(m, path)
        header = path.read_bytes().split(b"\n", 1)[0]
        assert header == b"ITERE-CKPT v1 8 4 2 3 2"

    def test_truncated_file_rejected(self, tmp_path):
        m = init_model(3, 2, TrainConfig(dim=8, seed=0))
        path = tmp_path / "m.bin"
        save_checkpoint(m, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [-1, 8])
    def test_payload_of_another_size_rejected(self, tmp_path, extra):
        m = init_model(3, 2, TrainConfig(dim=8, seed=0))
        path = tmp_path / "m.bin"
        save_checkpoint(m, path)
        data = path.read_bytes()
        path.write_bytes(data[:extra] if extra < 0 else data + bytes(extra))
        payload = (3 * (3 + 2) * 8 + 1) * 8
        with pytest.raises(CheckpointError, match=f"expected {payload} payload bytes, found {payload + extra}$"):
            load_checkpoint(path)

    def test_header_sized_beyond_the_file_rejected_before_reading(self, tmp_path):
        # a header claiming 10**12 entity rows must not allocate them
        path = tmp_path / "m.bin"
        path.write_bytes(b"ITERE-CKPT v1 8 4 2 1000000000000 2\n" + bytes(8))
        with pytest.raises(CheckpointError, match="payload bytes, found 8$"):
            load_checkpoint(path)

    def test_load_and_save_hold_the_model_plus_one_block(self, tmp_path):
        """The traced peak of a load is the model plus one block of
        ``CKPT_BLOCK_ROWS`` rows, and a save holds no more than one block:
        no table is ever held twice.  The entity tables span several
        blocks, the last one partial, and the bytes are the tables' rows
        in order."""
        n_ent, n_rel, dim = 2 * pipeline.CKPT_BLOCK_ROWS + 37, 50, 24
        m = init_model(n_ent, n_rel, TrainConfig(dim=dim, seed=0))
        randomize_adam(m, np.random.default_rng(0))
        path = tmp_path / "m.bin"
        block_bytes = pipeline.CKPT_BLOCK_ROWS * dim * 8
        tracemalloc.start()
        try:
            save_checkpoint(m, path)
            _, saved = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            back = load_checkpoint(path)
            _, loaded = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        def tables(model):
            return model.ent, model.rel, model.opt.m_ent, model.opt.m_rel, model.opt.v_ent, model.opt.v_rel

        payload = b"".join(t.tobytes() for t in tables(m)) + struct.pack("<d", m.opt.step)
        assert path.read_bytes().split(b"\n", 1)[1] == payload
        for got, want in zip(tables(back), tables(m)):
            assert got.flags.f_contiguous == want.flags.f_contiguous and got.tobytes("A") == want.tobytes("A")
        model_bytes = 3 * (n_ent + n_rel) * dim * 8
        assert saved < block_bytes + 2**16, saved / block_bytes
        assert loaded < model_bytes + block_bytes + 2**16, loaded / model_bytes

    def test_layout_mismatch_rejected(self, tmp_path):
        m = init_model(3, 2, TrainConfig(dim=8, seed=0))
        path = tmp_path / "m.bin"
        save_checkpoint(m, path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expect_layout=(8, 4))

    @pytest.mark.parametrize("fields", ["8 -2 5 3 2", "8 4 2 0 2", "8 4 2 3 0", "0 0 0 200 8"])
    def test_negative_counts_or_no_rows_rejected(self, tmp_path, fields):
        # payloads of the size the header implies; a model of no dimensions
        # has rows but no parameters
        dim, _, _, n_ent, n_rel = map(int, fields.split())
        path = tmp_path / "m.bin"
        path.write_bytes(f"ITERE-CKPT v1 {fields}\n".encode() + bytes(8 * (3 * (n_ent + n_rel) * dim + 1)))
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"hello world\n123")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestConfigFile:
    def test_parse_and_build(self, tmp_path, dataset_dir):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "# run settings\n"
            f"data_dir = {dataset_dir}\n"
            f"out_dir = {tmp_path / 'out'}\n"
            "dim = 16\n"
            "iterations = 2\n"
            "learning_rate = 0.01\n"
            "score_threshold = 0.85\n",
            encoding="utf-8",
        )
        cfg = build_config(read_config_file(cfg_path))
        assert cfg.train.dim == 16
        assert cfg.iterations == 2
        assert cfg.injection.score_threshold == 0.85
        assert cfg.train.learning_rate == 0.01

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_key = 1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_config_file(path)

    @pytest.mark.parametrize("line, message", [
        ("dim = abc", "config key 'dim': invalid literal for int() with base 10: 'abc'"),
        ("l1_weight = x", "config key 'l1_weight': could not convert string to float: 'x'"),
        ("no_such_key = 1", "unknown config key 'no_such_key'"),
        ("iterations = 3", "config key 'iterations' repeated"),
    ], ids=["int", "float", "unknown-key", "repeated-key"])
    def test_bad_line_names_its_key_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"iterations = 2\n# a comment\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
            read_config_file(path)

    def test_bad_override_names_its_key(self, tmp_path, dataset_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_dir = {dataset_dir}\nout_dir = {tmp_path / 'out'}\n", encoding="utf-8")
        assert cli_main(["train", "--config", str(cfg), "--set", "dim=abc"]) == 1
        assert capsys.readouterr().err == \
            "error: config key 'dim': invalid literal for int() with base 10: 'abc'\n"
        assert not (tmp_path / "out").exists()

    def test_override_wins_over_the_file(self, tmp_path, dataset_dir, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_dir = {dataset_dir}\nout_dir = {tmp_path / 'out'}\ndim = 16\n", encoding="utf-8")

        class Ran(Exception):
            pass

        def run(config, resume):
            raise Ran(config.train.dim)

        monkeypatch.setattr(cli, "run_iterations", run)
        with pytest.raises(Ran, match="^12$"):
            cli_main(["train", "--config", str(cfg), "--set", "dim=8", "--set", "dim=12"])

    def test_cli_defaults_are_the_dataclass_defaults(self):
        parser = build_parser()
        rules = parser.parse_args(["rules", "--ckpt", "c", "--data", "d", "--out", "o"])
        pool = PoolConfig()
        assert (rules.min_axiom_prob, rules.include_prob, rules.samples_per_relation) == \
            (pool.min_axiom_prob, pool.include_prob, pool.samples_per_relation)
        assert rules.seed == PipelineConfig("d", "o").seed
        sparsify = parser.parse_args(["sparsify", "--data", "d", "--out", "o"])
        assert sparsify.theta == InjectionConfig().sparsity_threshold

    def test_defaults_are_the_dataclass_defaults(self):
        assert build_config({"data_dir": "d", "out_dir": "o"}) == PipelineConfig("d", "o")

    def test_every_key_reaches_its_field(self):
        values = {
            "data_dir": "d", "out_dir": "o", "iterations": 3, "eval_every": 2, "seed": 5,
            "axioms_union": True, "dim": 12, "n_scalars": 4, "negatives": 2, "l1_weight": 0.5,
            "learning_rate": 0.25, "batch_size": 64, "epochs_per_iteration": 7,
            "min_axiom_prob": 0.75, "include_prob": 0.8, "samples_per_relation": 9,
            "score_threshold": 0.6, "max_inferred_per_axiom": 11, "sparsity_threshold": 0.7,
        }
        assert build_config(values) == PipelineConfig(
            data_dir="d", out_dir="o", iterations=3, eval_every=2, seed=5, axioms_union=True,
            train=TrainConfig(dim=12, n_negatives=2, l1_weight=0.5, learning_rate=0.25,
                              batch_size=64, epochs_per_iteration=7, seed=5, n_scalars=4),
            pool=PoolConfig(min_axiom_prob=0.75, include_prob=0.8, samples_per_relation=9, seed=5),
            injection=InjectionConfig(score_threshold=0.6, max_inferred_per_axiom=11,
                                      sparsity_threshold=0.7),
        )

    def test_unknown_key_rejected_when_building(self):
        with pytest.raises(ValueError):
            build_config({"data_dir": "d", "out_dir": "o", "no_such_key": 1})

    @pytest.mark.parametrize("raw, want", [("true", True), ("TRUE", True), ("Yes", True), ("1", True),
                                           ("false", False), ("No", False), ("0", False), ("fAlSe", False)])
    def test_axioms_union_spellings(self, tmp_path, raw, want):
        path = tmp_path / "union.cfg"
        path.write_text(f"axioms_union = {raw}\n", encoding="utf-8")
        assert read_config_file(path) == {"axioms_union": want}

    @pytest.mark.parametrize("raw", ["ture", "on", "off", "2", "y", ""])
    def test_axioms_union_rejects_other_values(self, tmp_path, raw):
        path = tmp_path / "union.cfg"
        path.write_text(f"axioms_union = {raw}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="axioms_union"):
            read_config_file(path)

    def test_train_exits_1_on_a_non_boolean_override(self, tmp_path, dataset_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_dir = {dataset_dir}\nout_dir = {tmp_path / 'out'}\n", encoding="utf-8")
        assert cli_main(["train", "--config", str(cfg), "--set", "axioms_union=on"]) == 1
        assert "axioms_union" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_iterations_rejected(self, tmp_path, dataset_dir):
        values = {"data_dir": dataset_dir, "out_dir": str(tmp_path), "iterations": 0}
        with pytest.raises(ValueError):
            build_config(values)


class TestRunIterations:
    def test_deterministic_records_and_report(self, tmp_path, dataset_dir):
        r1 = run_iterations(small_config(dataset_dir, tmp_path / "a"))
        r2 = run_iterations(small_config(dataset_dir, tmp_path / "b"))
        assert [rec.to_dict() for rec in r1.records] == [rec.to_dict() for rec in r2.records]
        assert (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()

    def test_step_buffers_live_only_while_an_iteration_trains(self, tmp_path, dataset_dir, monkeypatch):
        """Each ``train_epoch`` call builds one set of step buffers and frees
        it when it returns: no set is reachable while ``induce_axioms``,
        ``inject_triples`` or ``link_prediction`` run."""
        made, empty = [], StepBuffers.empty.__func__

        def counting(cls, model, rows):
            buffers = empty(cls, model, rows)
            made.append((rows, weakref.ref(buffers.planes), weakref.ref(buffers.work)))
            return buffers

        calls = []

        def checking(name):
            real = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                assert all(ref() is None for _, *refs in made for ref in refs), name
                return real(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, wrapper)

        monkeypatch.setattr(StepBuffers, "empty", classmethod(counting))
        for name in ("induce_axioms", "inject_triples", "link_prediction"):
            checking(name)
        cfg = small_config(dataset_dir, tmp_path / "bufs", iterations=3)
        cfg.eval_every = 1
        res = run_iterations(cfg)
        assert len(res.kg) > cfg.train.batch_size
        assert [rows for rows, *_ in made] == \
            [cfg.train.batch_size * (1 + cfg.train.n_negatives)] * (3 * cfg.train.epochs_per_iteration)
        assert calls == ["induce_axioms", "inject_triples", "link_prediction"] * 3

    def test_threshold_one_disables_injection(self, tmp_path, dataset_dir):
        cfg = small_config(dataset_dir, tmp_path / "noinj", iterations=1)
        cfg.injection.score_threshold = 1.0
        res = run_iterations(cfg)
        assert res.records[0].injected_total == 0
        assert len(res.injected) == 0

    def test_artifacts_exist_and_counts_match(self, tmp_path, dataset_dir):
        import time
        out = tmp_path / "arts"
        start = time.perf_counter()
        res = run_iterations(small_config(dataset_dir, out))
        assert time.perf_counter() - start < 60.0
        for name in ("records.jsonl", "axioms.jsonl", "axioms.csv", "report.json", "report.csv",
                     "ckpt_iter1.bin", "ckpt_iter2.bin", "injected_iter1.tsv", "injected_iter2.tsv"):
            assert (out / name).exists(), name
        train, _, _, ents, rels = load_dataset(dataset_dir)
        for rec in res.records:
            rows = read_injected_tsv(out / f"injected_iter{rec.iteration}.tsv", ents, rels)
            assert len(rows) == rec.injected_total

    def test_resume_matches_uninterrupted(self, tmp_path, dataset_dir):
        # with seed 0 iteration 1 injects triples that iterations 2 and 3 do
        # not, so the union of a resumed run needs the iteration-1 dump
        for union in (False, True):
            full = small_config(dataset_dir, tmp_path / f"full{union}", iterations=3, seed=0)
            full.axioms_union = union
            part = dataclasses.replace(full, out_dir=str(tmp_path / f"part{union}"))
            full_run = run_iterations(full)
            run_iterations(dataclasses.replace(part, iterations=2))
            resumed = run_iterations(part, resume=os.path.join(part.out_dir, "ckpt_iter2.bin"))
            assert np.array_equal(resumed.model.ent, full_run.model.ent)
            assert np.array_equal(resumed.model.rel, full_run.model.rel)
            assert resumed.records[-1].to_dict() == full_run.records[-1].to_dict()
            for name in ("report.json", "records.jsonl"):
                assert (tmp_path / f"part{union}" / name).read_bytes() == \
                    (tmp_path / f"full{union}" / name).read_bytes(), name

    def test_interrupted_run_resumes_to_the_same_records(self, tmp_path, dataset_dir, monkeypatch):
        full = small_config(dataset_dir, tmp_path / "full", iterations=3)
        part = dataclasses.replace(full, out_dir=str(tmp_path / "part"))
        run_iterations(full)
        real = pipeline.save_checkpoint

        def crash_at_iteration_2(model, path):
            if path.endswith("ckpt_iter2.bin"):
                raise KeyboardInterrupt
            real(model, path)

        monkeypatch.setattr(pipeline, "save_checkpoint", crash_at_iteration_2)
        with pytest.raises(KeyboardInterrupt):
            run_iterations(part)
        monkeypatch.undo()
        # the interrupted run kept the records of the iterations it finished
        assert len((tmp_path / "part" / "records.jsonl").read_text().splitlines()) == 2
        resumed = run_iterations(part, resume=str(tmp_path / "part" / "ckpt_iter1.bin"))
        assert [rec.iteration for rec in resumed.records] == [1, 2, 3]
        assert (tmp_path / "part" / "records.jsonl").read_bytes() == \
            (tmp_path / "full" / "records.jsonl").read_bytes()

    @pytest.mark.parametrize("damage", ["missing", "short"])
    def test_resume_needs_every_earlier_record(self, tmp_path, dataset_dir, damage):
        cfg = small_config(dataset_dir, tmp_path / "gap", iterations=3)
        run_iterations(dataclasses.replace(cfg, iterations=2))
        path = tmp_path / "gap" / "records.jsonl"
        if damage == "missing":
            path.unlink()
        else:
            path.write_text(path.read_text().splitlines(keepends=True)[0])
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            run_iterations(cfg, resume=str(tmp_path / "gap" / "ckpt_iter2.bin"))

    @pytest.mark.parametrize("damage", ["extra-key", "list", "bad-json"])
    def test_malformed_record_names_file_and_line(self, tmp_path, dataset_dir, damage):
        cfg = small_config(dataset_dir, tmp_path / "bad", iterations=3)
        run_iterations(dataclasses.replace(cfg, iterations=2))
        path = tmp_path / "bad" / "records.jsonl"
        first, second = path.read_text().splitlines()
        record = json.loads(second)
        line = {"extra-key": json.dumps({**record, "extra": 1}), "list": json.dumps(list(record.values())),
                "bad-json": second[:-1]}[damage]
        path.write_text(f"{first}\n{line}\n")
        with pytest.raises(CheckpointError, match=re.escape(f"{path}:2: not an iteration record (")):
            run_iterations(cfg, resume=str(tmp_path / "bad" / "ckpt_iter2.bin"))

    def test_resume_needs_every_earlier_injected_dump(self, tmp_path, dataset_dir):
        cfg = small_config(dataset_dir, tmp_path / "gap", iterations=3)
        run_iterations(dataclasses.replace(cfg, iterations=2))
        missing = tmp_path / "gap" / "injected_iter1.tsv"
        missing.unlink()
        with pytest.raises(CheckpointError, match=re.escape(str(missing))):
            run_iterations(cfg, resume=str(tmp_path / "gap" / "ckpt_iter2.bin"))

    def test_finished_checkpoint_refused_before_any_work(self, tmp_path, dataset_dir, monkeypatch):
        cfg = small_config(dataset_dir, tmp_path / "done", iterations=1)
        run_iterations(cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("injected before refusing the checkpoint")

        monkeypatch.setattr(pipeline, "inject_triples", refuse)
        with pytest.raises(ValueError, match="already covers all 1 iterations"):
            run_iterations(cfg, resume=str(tmp_path / "done" / "ckpt_iter1.bin"))

    def test_checkpoint_below_iteration_1_refused_before_any_work(self, tmp_path, dataset_dir):
        # a copy of ckpt_iter1.bin named for iteration 0 would retrain
        # iterations 1..N from a trained model over the run's own files
        cfg = small_config(dataset_dir, tmp_path / "run", iterations=2)
        run_iterations(cfg)
        out = tmp_path / "run"
        for name in ("ckpt_iter0.bin", "ckpt_iter-1.bin"):
            shutil.copyfile(out / "ckpt_iter1.bin", out / name)
            before = {path.name: path.read_bytes() for path in out.iterdir()}
            with pytest.raises(CheckpointError, match=re.escape(f"{name!r} names iteration {name[9:-4]}")):
                run_iterations(cfg, resume=str(out / name))
            assert {path.name: path.read_bytes() for path in out.iterdir()} == before, name

    def test_axioms_union_mode(self, tmp_path, dataset_dir):
        cfg = small_config(dataset_dir, tmp_path / "union")
        cfg.axioms_union = True
        res = run_iterations(cfg)
        assert res.report["injected_union"] >= res.report["injected_final"]
        assert "link_prediction_with_axioms" in res.report

    def test_warns_when_injection_outgrows_the_graph(self, tmp_path, caplog):
        # a 20-cycle with two mutual pairs and two self-loops: the symmetric,
        # reflexive and transitive rules each propose about a head per edge
        edges = [(i, (i + 1) % 20) for i in range(20)] + [(1, 0), (3, 2), (5, 5), (7, 7)]
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.txt").write_text("".join(f"e{s}\tr\te{o}\n" for s, o in edges))
        (data / "valid.txt").write_text("")
        (data / "test.txt").write_text("")
        cfg = PipelineConfig(
            data_dir=str(data), out_dir=str(tmp_path / "out"), iterations=2, seed=0,
            train=TrainConfig(dim=8, n_scalars=8, epochs_per_iteration=1, seed=0),
            injection=InjectionConfig(score_threshold=0.4, sparsity_threshold=0.5))
        with caplog.at_level("WARNING", logger="iterkg.pipeline"):
            res = run_iterations(cfg)
        assert len(res.injected) > len(res.kg)
        warning = (f"injected {len(res.injected)} triples, more than the graph's {len(res.kg)}; "
                   "the next epoch trains on all of them")
        assert [r.getMessage() for r in caplog.records] == [warning, warning]

    def test_train_and_eval_never_read_kg_triples(self, tmp_path, dataset_dir, monkeypatch):
        # nor build a Triple or InferredTriple per injected triple: injection
        # results travel as arrays from inject_triples to training, the
        # union, the dumps, resume and hybrid ranking
        def refuse(what):
            def fail(*args):
                raise AssertionError(what)
            return fail

        monkeypatch.setattr(KnowledgeGraph, "triples", property(refuse("KnowledgeGraph.triples read")))
        monkeypatch.setattr(injection, "Triple", refuse("injected triple built as a Triple"))
        monkeypatch.setattr(injection, "InferredTriple", refuse("InferredTriple built"))
        for union in (False, True):
            cfg = small_config(dataset_dir, tmp_path / f"run{union}", iterations=2)
            cfg.eval_every, cfg.axioms_union = 1, union
            result = run_iterations(cfg)
            assert len(result.injected) and "link_prediction_with_axioms" in result.report
        run_iterations(cfg, resume=str(tmp_path / "runTrue" / "ckpt_iter1.bin"))
        ckpt = str(tmp_path / "runFalse" / "ckpt_iter2.bin")
        for extra in ([], ["--with-axioms", str(tmp_path / "runFalse" / "injected_iter2.tsv")]):
            assert cli_main(["eval", "--ckpt", ckpt, "--data", dataset_dir,
                             "--out", str(tmp_path / "eval.json"), *extra]) == 0

    def test_splits_travel_as_id_arrays(self, tmp_path, dataset_dir, monkeypatch):
        # a run, its resume, `iterkg rules`, `eval` and `sparsify` parse the
        # splits into id arrays and build no Triple from them
        def refuse(*args):
            raise AssertionError("Triple built")

        monkeypatch.setattr(Triple, "__new__", refuse)
        monkeypatch.setattr(Triple, "_make", classmethod(refuse))
        cfg = small_config(dataset_dir, tmp_path / "run", iterations=2)
        cfg.eval_every = 1
        result = run_iterations(cfg)
        assert result.report["n_test"] and "link_prediction_with_axioms" in result.report
        run_iterations(cfg, resume=str(tmp_path / "run" / "ckpt_iter1.bin"))
        ckpt = str(tmp_path / "run" / "ckpt_iter2.bin")
        for argv in (
            ["rules", "--ckpt", ckpt, "--data", dataset_dir, "--out", str(tmp_path / "rules.jsonl")],
            ["eval", "--ckpt", ckpt, "--data", dataset_dir, "--out", str(tmp_path / "eval.json"),
             "--with-axioms", str(tmp_path / "run" / "injected_iter2.tsv")],
            ["sparsify", "--data", dataset_dir, "--theta", "0.9", "--out", str(tmp_path / "sparse")],
        ):
            assert cli_main(argv) == 0, argv
        with pytest.raises(AssertionError, match="Triple built"):
            load_dataset(dataset_dir)

    def test_train_and_rules_join_the_pool_once(self, tmp_path, dataset_dir, monkeypatch):
        # head coverage comes from the pool's own join: a run makes one
        # uncapped join (the pool) and one capped join per injection round,
        # `iterkg rules` the pool's join alone; each takes the same arguments
        # as the real join, whatever their order, and a capped join gets the
        # run's sparse-entity mask, so the join itself lists only the heads
        # injection keeps
        calls, masks = [], []
        join_rules = axioms.join_rules
        signature = inspect.signature(join_rules)

        def counting(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            calls.append(bound.get("cap"))
            masks.append(bound.get("sparse"))
            return join_rules(*args, **kwargs)

        for mod in (axioms, injection, evaluation):
            monkeypatch.setattr(mod, "join_rules", counting)
        cfg = small_config(dataset_dir, tmp_path / "run", iterations=2)
        run_iterations(cfg)
        assert calls == [None, 2000, 2000]
        train, _, _, ents, rels = load_dataset(dataset_dir)
        sparse = sparse_entities(entity_sparsity(KnowledgeGraph(train, ents, rels)),
                                 cfg.injection.sparsity_threshold)
        assert 0 < np.count_nonzero(sparse) < len(sparse)
        assert masks[0] is None
        assert all(np.array_equal(mask, sparse) for mask in masks[1:])
        calls.clear()
        assert cli_main(["rules", "--ckpt", str(tmp_path / "run" / "ckpt_iter2.bin"), "--data", dataset_dir,
                         "--out", str(tmp_path / "rules.jsonl")]) == 0
        assert calls == [None]

    def test_each_model_state_is_ranked_once(self, tmp_path, dataset_dir, monkeypatch):
        # the +axioms report credits the plain report's ranks, and the final
        # plain report is the last iteration's evaluation when it made one:
        # one rank_side call per side and model state
        calls = []
        rank_side = evaluation.rank_side

        def counting(model, known, test, side):
            calls.append(side)
            return rank_side(model, known, test, side)

        monkeypatch.setattr(evaluation, "rank_side", counting)
        readme_demo = {
            "data_dir": dataset_dir, "dim": 32, "n_scalars": 32, "iterations": 2, "epochs_per_iteration": 1,
            "learning_rate": 0.02, "l1_weight": 0.0, "batch_size": 512, "max_inferred_per_axiom": 2000,
            "sparsity_threshold": 0.9, "seed": 11,
        }
        for eval_every, want in ((0, 2), (1, 4)):
            calls.clear()
            out = tmp_path / f"every{eval_every}"
            run_iterations(build_config({**readme_demo, "out_dir": str(out), "eval_every": eval_every}))
            assert calls == ["subject", "object"] * (want // 2)
        calls.clear()
        assert cli_main(["eval", "--ckpt", str(out / "ckpt_iter2.bin"), "--data", dataset_dir,
                         "--with-axioms", str(out / "injected_iter2.tsv"),
                         "--out", str(tmp_path / "eval.json")]) == 0
        assert calls == ["subject", "object"]

    def test_train_and_rules_build_no_axiom_objects(self, tmp_path, dataset_dir, monkeypatch):
        # the pool, its scores, injection and the dumps travel as arrays
        def refuse(*args):
            raise AssertionError("Axiom built")

        monkeypatch.setattr(Axiom, "__new__", refuse)
        run_iterations(small_config(dataset_dir, tmp_path / "run", iterations=2))
        assert cli_main(["rules", "--ckpt", str(tmp_path / "run" / "ckpt_iter2.bin"), "--data", dataset_dir,
                         "--out", str(tmp_path / "rules.jsonl")]) == 0

    def test_input_files_untouched(self, tmp_path, dataset_dir):
        before = {n: (os.path.getsize(os.path.join(dataset_dir, n)),
                      open(os.path.join(dataset_dir, n), "rb").read())
                  for n in ("train.txt", "valid.txt", "test.txt")}
        run_iterations(small_config(dataset_dir, tmp_path / "ro"))
        for n, (size, body) in before.items():
            path = os.path.join(dataset_dir, n)
            assert os.path.getsize(path) == size
            assert open(path, "rb").read() == body


class TestCli:
    def test_sparsify(self, tmp_path, dataset_dir, capsys):
        out = tmp_path / "sparse"
        rc = cli_main(["sparsify", "--data", dataset_dir, "--theta", "0.9", "--out", str(out)])
        assert rc == 0
        assert (out / "train.txt").read_bytes() == open(os.path.join(dataset_dir, "train.txt"), "rb").read()
        assert (out / "test.txt").exists() and (out / "valid.txt").exists()

    def test_sparsify_theta_one_empties_splits(self, tmp_path, dataset_dir):
        out = tmp_path / "allgone"
        assert cli_main(["sparsify", "--data", dataset_dir, "--theta", "1.0", "--out", str(out)]) == 0
        assert (out / "test.txt").read_text() == ""

    def test_train_rules_eval_round(self, tmp_path, dataset_dir, capsys):
        out = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data_dir = {dataset_dir}\nout_dir = {out}\n"
            "dim = 8\nn_scalars = 8\niterations = 1\nepochs_per_iteration = 2\n"
            "learning_rate = 0.02\nnegatives = 3\nl1_weight = 0\n"
            "sparsity_threshold = 0.9\nseed = 11\n",
            encoding="utf-8",
        )
        assert cli_main(["train", "--config", str(cfg)]) == 0
        assert (out / "report.json").exists()

        rules_out = tmp_path / "rules.jsonl"
        assert cli_main(["rules", "--ckpt", str(out / "ckpt_iter1.bin"), "--data", dataset_dir,
                         "--out", str(rules_out), "--seed", "11"]) == 0
        lines = rules_out.read_text().strip().splitlines()
        assert lines and all("hc" in json.loads(line) for line in lines)

        eval_out = tmp_path / "metrics.json"
        assert cli_main(["eval", "--ckpt", str(out / "ckpt_iter1.bin"), "--data", dataset_dir,
                         "--out", str(eval_out)]) == 0
        metrics = json.loads(eval_out.read_text())
        assert 0 <= metrics["mrr_filter"] <= 1

        # hybrid mode consumes the injected dump
        assert cli_main(["eval", "--ckpt", str(out / "ckpt_iter1.bin"), "--data", dataset_dir,
                         "--with-axioms", str(out / "injected_iter1.tsv"),
                         "--out", str(eval_out)]) == 0

    def test_rules_head_coverage_equals_a_join_of_the_written_axioms(self, tmp_path, dataset_dir, capsys):
        train, _, _, entities, relations = load_dataset(dataset_dir)
        kg = KnowledgeGraph(train, entities, relations)
        ckpt = tmp_path / "model.bin"
        save_checkpoint(init_model(kg.n_entities, kg.n_relations, TrainConfig(dim=8, seed=3)), str(ckpt))
        rules_out = tmp_path / "rules.jsonl"
        assert cli_main(["rules", "--ckpt", str(ckpt), "--data", dataset_dir, "--out", str(rules_out),
                         "--seed", "3"]) == 0
        rows = [json.loads(line) for line in rules_out.read_text().splitlines()]
        written = [Axiom(AxiomType(row["type"]), [relations.id_of(r) for r in row["relations"]])
                   for row in rows]
        assert len(rows) > 1
        assert [row["hc"] for row in rows] == [head_coverage(kg, ax) for ax in written]

    def test_rules_reproduces_train_axioms(self, tmp_path, dataset_dir, capsys):
        # both entry points build the pool, score it and attach head coverage
        out = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data_dir = {dataset_dir}\nout_dir = {out}\n"
            "dim = 8\nn_scalars = 8\niterations = 1\nepochs_per_iteration = 1\n"
            "sparsity_threshold = 0.9\nseed = 7\n",
            encoding="utf-8",
        )
        assert cli_main(["train", "--config", str(cfg)]) == 0
        rules_out = tmp_path / "rules.jsonl"
        assert cli_main(["rules", "--ckpt", str(out / "ckpt_iter1.bin"), "--data", dataset_dir,
                         "--out", str(rules_out), "--seed", "7"]) == 0
        assert rules_out.read_bytes() == (out / "axioms.jsonl").read_bytes()
        assert (tmp_path / "rules.csv").read_bytes() == (out / "axioms.csv").read_bytes()
        assert len(rules_out.read_text().splitlines()) > 1

    def test_rules_reproduces_train_axioms_with_samples_per_relation(self, tmp_path, dataset_dir):
        # the run samples 3 head triples per relation, not the derived 6
        out = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data_dir = {dataset_dir}\nout_dir = {out}\n"
            "dim = 8\nn_scalars = 8\niterations = 1\nepochs_per_iteration = 1\n"
            "sparsity_threshold = 0.9\nsamples_per_relation = 3\nseed = 7\n",
            encoding="utf-8",
        )
        assert cli_main(["train", "--config", str(cfg)]) == 0
        argv = ["rules", "--ckpt", str(out / "ckpt_iter1.bin"), "--data", dataset_dir, "--seed", "7"]
        assert cli_main(argv + ["--out", str(tmp_path / "derived.jsonl")]) == 0
        assert cli_main(argv + ["--out", str(tmp_path / "rules.jsonl"), "--samples-per-relation", "3"]) == 0
        assert (tmp_path / "rules.jsonl").read_bytes() == (out / "axioms.jsonl").read_bytes()
        assert (tmp_path / "derived.jsonl").read_bytes() != (out / "axioms.jsonl").read_bytes()

    @pytest.mark.parametrize("n_ent,n_rel", [(500, 8), (50, 2)])
    @pytest.mark.parametrize("command", ["rules", "eval"])
    def test_checkpoint_of_another_graph_fails(self, tmp_path, dataset_dir, capsys,
                                               command, n_ent, n_rel):
        ckpt = tmp_path / "other.bin"
        save_checkpoint(init_model(n_ent, n_rel, TrainConfig(dim=8, seed=0)), ckpt)
        argv = [command, "--ckpt", str(ckpt), "--data", dataset_dir,
                "--out", str(tmp_path / "out.jsonl")]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert f"checkpoint covers {n_ent} entities / {n_rel} relations" in err
        assert not (tmp_path / "out.jsonl").exists()

    def test_rules_csv_mirror_stays_in_a_dotted_directory(self, tmp_path, dataset_dir):
        ckpt = tmp_path / "model.bin"
        save_checkpoint(init_model(200, 8, TrainConfig(dim=8, seed=0)), ckpt)
        out = tmp_path / "out.d"
        out.mkdir()
        assert cli_main(["rules", "--ckpt", str(ckpt), "--data", dataset_dir,
                         "--out", str(out / "rules")]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["rules", "rules.csv"]
        assert not (tmp_path / "out.csv").exists()

    def test_rules_refuses_an_out_path_that_is_its_own_csv_mirror(self, tmp_path, dataset_dir,
                                                                   capsys):
        ckpt = tmp_path / "model.bin"
        save_checkpoint(init_model(200, 8, TrainConfig(dim=8, seed=0)), ckpt)
        out = tmp_path / "rules.csv"
        assert cli_main(["rules", "--ckpt", str(ckpt), "--data", dataset_dir,
                         "--out", str(out)]) == 1
        assert "CSV mirror" in capsys.readouterr().err
        assert not out.exists()

    def test_train_zero_iterations_fails(self, tmp_path, dataset_dir, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            f"data_dir = {dataset_dir}\nout_dir = {tmp_path / 'x'}\niterations = 0\n",
            encoding="utf-8",
        )
        assert cli_main(["train", "--config", str(cfg)]) != 0
        assert "error" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path, capsys):
        assert cli_main(["eval", "--ckpt", "/nonexistent.bin", "--data", str(tmp_path)]) != 0
        assert "error" in capsys.readouterr().err
