"""Checkpoints, config parsing, the iteration loop, and the CLI surface."""

import json
import os

import numpy as np
import pytest

from iterkg.cli import main as cli_main
from iterkg.embedding import TrainConfig, init_model
from iterkg.injection import InjectionConfig, read_injected_tsv
from iterkg.kg import load_dataset
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


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        m = init_model(7, 3, TrainConfig(dim=8, seed=4))
        m.opt.step = 17
        m.opt.m_ent[:] = np.random.default_rng(0).normal(size=m.opt.m_ent.shape)
        path = tmp_path / "model.bin"
        save_checkpoint(m, path)
        back = load_checkpoint(path)
        assert np.array_equal(back.ent, m.ent)
        assert np.array_equal(back.rel_scalars, m.rel_scalars)
        assert np.array_equal(back.rel_rot, m.rel_rot)
        assert np.array_equal(back.opt.m_ent, m.opt.m_ent)
        assert back.opt.step == 17
        # and the on-disk bytes are reproducible
        save_checkpoint(back, tmp_path / "model2.bin")
        assert (tmp_path / "model.bin").read_bytes() == (tmp_path / "model2.bin").read_bytes()

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

    def test_layout_mismatch_rejected(self, tmp_path):
        m = init_model(3, 2, TrainConfig(dim=8, seed=0))
        path = tmp_path / "m.bin"
        save_checkpoint(m, path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expect_layout=(8, 4))

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

    def test_threshold_one_disables_injection(self, tmp_path, dataset_dir):
        cfg = small_config(dataset_dir, tmp_path / "noinj", iterations=1)
        cfg.injection.score_threshold = 1.0
        res = run_iterations(cfg)
        assert res.records[0].injected_total == 0
        assert res.injected == []

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
        full = run_iterations(small_config(dataset_dir, tmp_path / "full", iterations=3))
        part = small_config(dataset_dir, tmp_path / "part", iterations=3)
        run_iterations(PipelineConfig(
            data_dir=part.data_dir, out_dir=part.out_dir, iterations=2, seed=part.seed,
            train=part.train, pool=part.pool, injection=part.injection))
        resumed = run_iterations(part, resume=os.path.join(part.out_dir, "ckpt_iter2.bin"))
        assert np.array_equal(resumed.model.ent, full.model.ent)
        assert np.array_equal(resumed.model.rel_rot, full.model.rel_rot)
        assert resumed.records[-1].to_dict() == full.records[-1].to_dict()

    def test_axioms_union_mode(self, tmp_path, dataset_dir):
        cfg = small_config(dataset_dir, tmp_path / "union")
        cfg.axioms_union = True
        res = run_iterations(cfg)
        assert res.report["injected_union"] >= res.report["injected_final"]
        assert "link_prediction_with_axioms" in res.report

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
