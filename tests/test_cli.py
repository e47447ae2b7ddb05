import dataclasses

import numpy as np
import pytest

from pseudoe.cli import RunConfig, _from_config, main, resolve_config, write_resolved
from pseudoe.data import load_dataset, load_negatives
from pseudoe.evaluation import EvalMode, EvalProtocol, evaluate_split, format_report
from pseudoe.likelihood import TfdParams
from pseudoe.model import load_checkpoint
from pseudoe.presets import PRESETS
from pseudoe.synthetic import tree_clique_graph
from pseudoe.training import TrainConfig


@pytest.fixture(scope="module")
def toy_data(tmp_path_factory):
    """Tiny dataset directory written through the normal text format."""
    root = tmp_path_factory.mktemp("toy")
    store, train, valid = tree_clique_graph(n_nodes=12, clique_size=4, seed=3)
    for name, rows in (("train.txt", train), ("valid.txt", valid), ("test.txt", valid)):
        (root / name).write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows), encoding="utf-8")
    return root


def run_training(toy_data, out, seed=7, extra=()):
    args = [
        "train",
        "--data", str(toy_data),
        "--out", str(out),
        "--seed", str(seed),
        "--set", "max_epochs", "10",
        "--set", "eval_every", "5",
        "--set", "n_x", "7",
        "--set", "m_negatives", "4",
        "--set", "batch_size", "32",
        "--set", "learning_rate", "0.05",
        "--set", "u", "0.5",
        "--set", "alpha", "0.2",
        "--set", "sigma_init", "0.1",
        *extra,
    ]
    return main(args)


class TestResolveConfig:
    def test_defaults(self):
        config = resolve_config()
        assert config == RunConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration key"):
            resolve_config(overrides={"not_a_key": "1"})

    def test_preset_values(self):
        config = resolve_config("hetionet-both")
        assert config.n_x == 200
        assert config.n_t == 2
        assert config.beta == 0.0
        assert config.circumference == 6.0
        assert config.optimizer == "adam"
        assert config.learning_rate == 0.0002
        assert config.batch_size == 100
        assert config.m_negatives == 20

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            resolve_config("not-a-preset")

    def test_every_preset_instantiates(self):
        for name in PRESETS:
            config = resolve_config(name)
            assert config.variant in ("mt", "dt", "both")

    def test_flags_beat_file_beats_preset(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("batch_size = 64\n# comment\n\nseed = 3\n", encoding="utf-8")
        config = resolve_config("wn18rr-dt", cfg_file, {"seed": "9"})
        assert config.batch_size == 64  # file overrides preset's 128
        assert config.seed == 9  # flag overrides file
        assert config.learning_rate == 0.08  # from preset

    def test_resolved_file_roundtrip(self, tmp_path):
        config = resolve_config("fb15k237-dt", None, {"seed": "42"})
        path = tmp_path / "config.resolved"
        write_resolved(config, path)
        assert resolve_config(None, path) == config
        # Every key away from its default, parsed from text and replayed; the
        # optional keys both with a value and none.
        changed = RunConfig(
            variant="both", n_t=2, n_x=9, circumference=2.5, swap_transforms=True, tau1=0.25, tau2=0.75,
            u=0.3, alpha=0.4, alpha_prime=0.9, beta=0.6, sigma_init=0.05, seed=42,
            optimizer="sm3", learning_rate=0.01, batch_size=64, m_negatives=6, max_epochs=7, eval_every=2,
            patience=3, augment_reverse=True, protocol="fixed", negatives="negs.txt", data="d", out="o",
        )
        names = [f.name for f in dataclasses.fields(RunConfig)]
        assert [n for n in names if getattr(changed, n) == getattr(RunConfig(), n)] == []
        for config in (changed, dataclasses.replace(changed, circumference=None, negatives=None)):
            assert resolve_config(None, None, {n: str(getattr(config, n)) for n in names}) == config
            write_resolved(config, path)
            assert resolve_config(None, path) == config
        # The likelihood and training settings carry every value of their keys.
        for built in (_from_config(TfdParams, changed), _from_config(TrainConfig, changed)):
            for f in dataclasses.fields(built):
                assert getattr(built, f.name) == getattr(changed, f.name), f.name


class TestTrainCommand:
    def test_writes_artifacts(self, toy_data, tmp_path):
        out = tmp_path / "run1"
        assert run_training(toy_data, out) == 0
        assert (out / "model.ckpt").exists()
        assert (out / "log.csv").exists()
        assert (out / "config.resolved").exists()
        header = (out / "log.csv").read_text().splitlines()[0]
        assert header == "epoch,mean_loss,val_mrr,val_hits10,wall_seconds"

    def test_same_seed_identical_checkpoints(self, toy_data, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_training(toy_data, out_a, seed=7) == 0
        assert run_training(toy_data, out_b, seed=7) == 0
        assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()

    def test_rerun_from_frozen_config(self, toy_data, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_training(toy_data, out_a) == 0
        code = main(
            ["train", "--config", str(out_a / "config.resolved"), "--out", str(out_b)]
        )
        assert code == 0
        assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()

    def test_bad_data_dir_exits_nonzero(self, tmp_path, capsys):
        # A failed run leaves no output directory behind.
        assert main(["train", "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        sweep = ["sweep-beta", "--betas", "0", "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "s")]
        assert main(sweep) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


@pytest.fixture(scope="module")
def trained(toy_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run_training(toy_data, out) == 0
    return out


@pytest.fixture(scope="module")
def negatives_file(toy_data, tmp_path_factory):
    """Fixed negatives for every (head, relation) query of the toy test split."""
    store = load_dataset(toy_data)
    names = sorted(store.entity_to_id)
    lines = {
        f"{store.id_to_entity[h]}\t{store.id_to_relation[k]}\t" + ",".join(names[(h + k) % 4 :: 4])
        for h, k, _ in store.splits["test"].tolist()
    }
    path = tmp_path_factory.mktemp("negs") / "negs.txt"
    path.write_text("\n".join(sorted(lines)) + "\n", encoding="utf-8")
    return path


class TestFixedProtocol:
    def test_evaluate_ranks_against_the_stored_negatives(self, toy_data, trained, negatives_file, capsys):
        ckpt = trained / "model.ckpt"
        argv = ["evaluate", "--checkpoint", str(ckpt), "--data", str(toy_data), "--protocol", "fixed"]
        assert main(argv + ["--negatives", str(negatives_file)]) == 0
        store = load_dataset(toy_data)
        protocol = EvalProtocol(EvalMode.FIXED_NEGATIVES, negatives=load_negatives(negatives_file, store))
        report = evaluate_split(load_checkpoint(ckpt), store.splits["test"], store.filter_index, protocol)
        assert capsys.readouterr().out == format_report(report) + "\n"

    def test_evaluate_without_negatives_is_a_one_line_error(self, toy_data, trained, capsys):
        argv = ["evaluate", "--checkpoint", str(trained / "model.ckpt"), "--data", str(toy_data), "--protocol", "fixed"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: fixed-negatives protocol requires a negatives file\n"

    def test_augmented_checkpoint_refused_before_ranking(
        self, toy_data, negatives_file, tmp_path, monkeypatch, capsys
    ):
        # Fixed negatives name (head, relation) pairs of the plain dataset, so
        # every command refuses them for a model trained on reversed triples,
        # as train does, before it ranks anything.
        import pseudoe.evaluation

        assert run_training(toy_data, tmp_path / "aug", extra=["--set", "augment_reverse", "true"]) == 0
        ranked = []
        monkeypatch.setattr(pseudoe.evaluation, "_ranks", lambda *args: ranked.append(args))
        ckpt, data, negs = str(tmp_path / "aug" / "model.ckpt"), str(toy_data), str(negatives_file)
        fixed = ["--set", "protocol", "fixed", "--set", "negatives", negs]
        for argv in (
            ["evaluate", "--checkpoint", ckpt, "--data", data, "--protocol", "fixed", "--negatives", negs],
            ["sweep-beta", "--checkpoint", ckpt, "--data", data, "--out", str(tmp_path / "s"), "--betas", "0", *fixed],
            ["train", "--data", data, "--out", str(tmp_path / "t"), "--set", "augment_reverse", "true", *fixed],
        ):
            assert main(argv) == 1
            assert capsys.readouterr().err == "error: fixed-negatives protocol does not combine with augment_reverse\n"
        assert ranked == []
        assert not (tmp_path / "s").exists() and not (tmp_path / "t").exists()

    def test_missing_pairs_named_before_any_work(self, toy_data, trained, negatives_file, tmp_path, monkeypatch, capsys):
        # A negatives file without the split's (n0, parent_of) pair is refused
        # when the protocol is built, naming the pair, before evaluate ranks
        # or train takes a step.
        import pseudoe.evaluation
        import pseudoe.training

        calls = []
        monkeypatch.setattr(pseudoe.evaluation, "_ranks", lambda *args: calls.append("rank"))
        monkeypatch.setattr(pseudoe.training, "_loss_and_gradients", lambda *args: calls.append("step"))
        negs = tmp_path / "negs.txt"
        lines = negatives_file.read_text(encoding="utf-8").splitlines()
        negs.write_text("".join(f"{line}\n" for line in lines if not line.startswith("n0\tparent_of\t")), encoding="utf-8")
        ckpt, data = str(trained / "model.ckpt"), str(toy_data)
        fixed = ["--set", "protocol", "fixed", "--set", "negatives", str(negs)]
        for argv, split in (
            (["evaluate", "--checkpoint", ckpt, "--data", data, "--protocol", "fixed", "--negatives", str(negs)], "test"),
            (["train", "--data", data, "--out", str(tmp_path / "t"), *fixed], "valid"),
        ):
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"error: {negs} has no negatives for 1 of the {split} split's 7 (head, relation) pairs: (n0, parent_of)\n"
            )
        assert calls == []
        assert not (tmp_path / "t").exists()


    def test_negatives_refused_under_full_protocol(self, toy_data, trained, negatives_file, tmp_path, monkeypatch, capsys):
        # A negatives file means fixed-negatives ranking; under the full
        # protocol it would be ignored, so every command refuses it before
        # ranking, training or writing anything.
        import pseudoe.evaluation
        import pseudoe.training

        calls = []
        monkeypatch.setattr(pseudoe.evaluation, "_ranks", lambda *args: calls.append("rank"))
        monkeypatch.setattr(pseudoe.training, "_loss_and_gradients", lambda *args: calls.append("step"))
        ckpt, data = str(trained / "model.ckpt"), str(toy_data)
        for negs in (str(negatives_file), "/nonexistent.tsv"):
            for argv in (
                ["evaluate", "--checkpoint", ckpt, "--data", data, "--negatives", negs, "--out", str(tmp_path / "e")],
                ["train", "--data", data, "--out", str(tmp_path / "t"), "--set", "negatives", negs],
                ["sweep-beta", "--data", data, "--out", str(tmp_path / "s"), "--betas", "0", "--set", "negatives", negs],
            ):
                assert main(argv) == 1
                err = capsys.readouterr().err
                assert err == f"error: negatives file {negs} given, but protocol 'full' ranks every entity\n"
        assert calls == []
        assert not any((tmp_path / name).exists() for name in ("e", "t", "s"))

class TestEvaluateCommand:
    def test_report_files(self, toy_data, trained, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--checkpoint", str(trained / "model.ckpt"),
                "--data", str(toy_data),
                "--split", "valid",
                "--per-relation",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "report.txt").exists()
        csv_text = (out / "report.csv").read_text()
        assert csv_text.splitlines()[0] == "relation,count,mrr,hits1,hits3,hits10"
        assert "ALL" in csv_text
        assert "parent_of" in csv_text or "same_group" in csv_text

    def test_gamma_one_is_identity(self, toy_data, trained, tmp_path):
        out_a, out_b = tmp_path / "ga", tmp_path / "gb"
        base = ["evaluate", "--checkpoint", str(trained / "model.ckpt"), "--data", str(toy_data)]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--gamma-b", "1", "--out", str(out_b)]) == 0
        assert (out_a / "report.csv").read_text() == (out_b / "report.csv").read_text()

    def test_rank_lists_topk(self, toy_data, trained, capsys):
        code = main(
            [
                "rank",
                "--checkpoint", str(trained / "model.ckpt"),
                "--data", str(toy_data),
                "--head", "n0",
                "--relation", "same_group",
                "--top", "5",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6  # header + 5 rows

    def test_rank_topk_clamped_to_vocabulary(self, toy_data, trained, capsys):
        code = main(
            [
                "rank",
                "--checkpoint", str(trained / "model.ckpt"),
                "--data", str(toy_data),
                "--head", "n0",
                "--relation", "same_group",
                "--top", "99999",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 13  # header + all 12 entities

    def test_rank_top_below_one_is_a_one_line_error(self, toy_data, trained, capsys):
        base = ["rank", "--checkpoint", str(trained / "model.ckpt"), "--data", str(toy_data)]
        for top in ("0", "-3"):
            assert main(base + ["--head", "n0", "--relation", "same_group", "--top", top]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --top must be >= 1, got {top}\n"

    def test_rank_unknown_name_lists_near_misses(self, toy_data, trained, capsys):
        code = main(
            [
                "rank",
                "--checkpoint", str(trained / "model.ckpt"),
                "--data", str(toy_data),
                "--head", "n0_typo",
                "--relation", "same_group",
            ]
        )
        assert code == 1
        assert "closest" in capsys.readouterr().err

    def test_checkpoint_for_another_entity_count_rejected(self, toy_data, trained, tmp_path, capsys):
        # Same relations, one entity more: the checkpoint cannot score this dataset.
        other = tmp_path / "other"
        other.mkdir()
        for name in ("train.txt", "valid.txt", "test.txt"):
            (other / name).write_text((toy_data / name).read_text(encoding="utf-8"), encoding="utf-8")
        with open(other / "test.txt", "a", encoding="utf-8") as f:
            f.write("n0\tsame_group\tnewcomer\n")
        ckpt = str(trained / "model.ckpt")
        for argv in (
            ["evaluate", "--checkpoint", ckpt, "--data", str(other)],
            ["rank", "--checkpoint", ckpt, "--data", str(other), "--head", "n0", "--relation", "same_group"],
        ):
            assert main(argv) == 1
            assert "checkpoint has 12 entities but the dataset has 13" in capsys.readouterr().err


class TestSweepAndStats:
    def test_stats(self, toy_data, capsys):
        assert main(["stats", "--data", str(toy_data)]) == 0
        out = capsys.readouterr().out
        assert "entities" in out and "train" in out

    def test_counts_below_one_are_one_line_errors(self, toy_data, trained, tmp_path, capsys):
        ckpt = str(trained / "model.ckpt")
        sweep = ["sweep-beta", "--data", str(toy_data), "--out", str(tmp_path), "--betas", "0", "--checkpoint", ckpt]
        assert main(sweep + ["--repeats", "0"]) == 1
        assert capsys.readouterr().err == "error: repeats must be >= 1, got 0\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_beta_out_of_range_refused_before_training(self, toy_data, tmp_path, monkeypatch, capsys):
        # Every point's beta is checked before the first point trains.
        import pseudoe.training

        trained = []
        monkeypatch.setattr(pseudoe.training, "train", lambda *args, **kwargs: trained.append(args))
        sweep = ["sweep-beta", "--data", str(toy_data), "--out", str(tmp_path / "s"), "--betas", "0,1.5"]
        assert main(sweep) == 1
        assert capsys.readouterr().err == "error: beta must lie in [0, 1], got 1.5\n"
        assert trained == []
        assert not (tmp_path / "s").exists()

    def test_checkpoint_sweep_refuses_repeats(self, toy_data, trained, tmp_path, monkeypatch, capsys):
        # A checkpoint rescored twice gives the same rows twice: more than one
        # repeat applies only to retraining, and is refused before any ranking.
        import pseudoe.evaluation

        ranked = []
        monkeypatch.setattr(pseudoe.evaluation, "_ranks", lambda *args: ranked.append(args))
        ckpt, out = str(trained / "model.ckpt"), tmp_path / "s"
        sweep = ["sweep-beta", "--data", str(toy_data), "--out", str(out), "--betas", "0,1", "--checkpoint", ckpt]
        assert main(sweep + ["--repeats", "2"]) == 1
        err = capsys.readouterr().err
        assert err == "error: --repeats applies only to retraining; a checkpoint is rescored once per beta\n"
        assert ranked == []
        assert not out.exists()

    def test_checkpoint_sweep_checks_every_key(self, toy_data, trained, tmp_path, capsys):
        # Rescoring a checkpoint trains nothing, but a setting no run accepts
        # is still a one-line error, raised before anything is written.
        ckpt, out = str(trained / "model.ckpt"), tmp_path / "s"
        sweep = ["sweep-beta", "--data", str(toy_data), "--out", str(out), "--betas", "0", "--checkpoint", ckpt]
        for bad in (
            ["--set", "m_negatives", "5", "--set", "optimizer", "nonsense"],
            ["--set", "optimizer", "nonsense"],
            ["--set", "tau1", "-1"],
            ["--set", "variant", "xt"],
            ["--set", "sigma_init", "0"],
        ):
            assert main(sweep + bad) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_dt_time_rule_checked_before_data_loads(self, toy_data, trained, tmp_path, capsys):
        # DT projects no time, so n_t must be 1: the rescoring sweep rejects
        # n_t = 2 although it trains nothing, and train rejects it before it
        # looks for the dataset.
        dt_two_times = ["--set", "variant", "dt", "--set", "n_t", "2"]
        sweep = ["sweep-beta", "--data", str(toy_data), "--out", str(tmp_path / "s"), "--betas", "0"]
        train = ["train", "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "t")]
        for argv in (sweep + ["--checkpoint", str(trained / "model.ckpt")], train):
            assert main(argv + dt_two_times) == 1
            assert capsys.readouterr().err == "error: DT variant requires n_t == 1, got n_t = 2\n"
        assert not (tmp_path / "s").exists() and not (tmp_path / "t").exists()

    def test_no_thread_setting(self, toy_data, trained, tmp_path, monkeypatch, capsys):
        # Evaluation runs on one thread: no flag, config key or environment
        # variable sets a thread count.
        ckpt, data = str(trained / "model.ckpt"), str(toy_data)
        older = tmp_path / "older.resolved"
        older.write_text("seed = 7\nthreads = 1\n", encoding="utf-8")
        assert main(["train", "--config", str(older), "--data", data, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "error: unknown configuration key 'threads'\n"
        for argv in (
            ["train", "--data", data, "--out", str(tmp_path / "run")],
            ["evaluate", "--checkpoint", ckpt, "--data", data],
            ["sweep-beta", "--data", data, "--out", str(tmp_path), "--betas", "0", "--checkpoint", ckpt],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv + ["--threads", "1"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
            if argv[0] != "evaluate":
                assert main(argv + ["--set", "threads", "1"]) == 1
                assert capsys.readouterr().err == "error: unknown configuration key 'threads'\n"
        assert not (tmp_path / "run").exists() and not (tmp_path / "sweep.csv").exists()
        monkeypatch.setenv("PSEUDOE_THREADS", "abc")
        assert main(["stats", "--data", data]) == 0

    def test_checkpoint_commands_read_the_dataset_once(self, toy_data, trained, tmp_path, monkeypatch):
        import pseudoe.cli

        calls = []

        def counting_load_dataset(path):
            calls.append(path)
            return load_dataset(path)

        monkeypatch.setattr(pseudoe.cli, "load_dataset", counting_load_dataset)
        ckpt, data = str(trained / "model.ckpt"), str(toy_data)
        for argv in (
            ["sweep-beta", "--data", data, "--out", str(tmp_path), "--betas", "0", "--checkpoint", ckpt],
            ["evaluate", "--checkpoint", ckpt, "--data", data],
            ["rank", "--checkpoint", ckpt, "--data", data, "--head", "n0", "--relation", "parent_of"],
        ):
            calls.clear()
            assert main(argv) == 0
            assert calls == [data], argv[0]

    def test_sweep_rescore(self, toy_data, tmp_path):
        run_out = tmp_path / "run"
        assert run_training(toy_data, run_out) == 0
        sweep_out = tmp_path / "sweep"
        code = main(
            [
                "sweep-beta",
                "--data", str(toy_data),
                "--out", str(sweep_out),
                "--betas", "0,1",
                "--checkpoint", str(run_out / "model.ckpt"),
                "--set", "n_x", "7",
            ]
        )
        assert code == 0
        lines = (sweep_out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "beta,relation,mrr,sd"
        # one row per (beta, relation): 2 betas x 2 relations
        assert len(lines) == 5
