"""Tests for SGD training, adversarial training and the sweep harness.

The heavier empirical checks (full default sweep) live in the acceptance
suite; here the sweep runs on reduced grids so the whole module stays
under a minute.
"""

import csv
import dataclasses
import json
import math
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from curvact import cli
from curvact.activations import alpha_for_curvature, rct_af
from curvact.attacks import AttackConfig, clean_accuracy
from curvact.data import GeneratorSpec, make_dataset
from curvact.errors import ResultsFormatError, TrainingDivergedError
from curvact.network import flat_params, init_network, stack_networks
import curvact.training
from curvact.training import (
    SWEEP_COLUMNS,
    SweepConfig,
    SweepResult,
    TrainConfig,
    default_sweep_config,
    read_sweep_results,
    run_cell,
    run_sweep,
    train_network,
)


CACHE = Path(__file__).resolve().parent / "_sweep_cache" / "default_sweep.csv"


def _moons(n=120, seed=4, noise=0.1):
    return make_dataset(GeneratorSpec("two_moons", noise=noise), n=n, seed=seed)


def _quick_cfg(**overrides):
    base = dict(epochs=3, batch_size=16, learning_rate=0.05)
    base.update(overrides)
    return TrainConfig(**base)


def _tiny_sweep(**overrides):
    """One-cell sweep around the default template, fast to run."""
    cfg = default_sweep_config()
    fields = dict(
        curvature_targets=(7.0,),
        betas=(1,),
        seeds=(0,),
        widths=(2, 6, 1),
        dataset_n=60,
        train=dataclasses.replace(cfg.train, epochs=2),
    )
    fields.update(overrides)
    return dataclasses.replace(cfg, **fields)


def _text(result):
    """A sweep row as its CSV fields without the wall time; NaN metrics
    compare equal as empty fields."""
    return curvact.training._result_row(dataclasses.replace(result, wall_time_s=0.0))


class TestTrainConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="epochs"):
            _quick_cfg(epochs=0)
        with pytest.raises(ValueError, match="epochs"):
            _quick_cfg(epochs=2.0)
        with pytest.raises(ValueError, match="batch_size"):
            _quick_cfg(batch_size=0)
        # bool is an int subclass; True is not a count.
        with pytest.raises(ValueError, match="epochs"):
            _quick_cfg(epochs=True)
        with pytest.raises(ValueError, match="batch_size"):
            _quick_cfg(batch_size=True)
        with pytest.raises(ValueError, match="learning_rate"):
            _quick_cfg(learning_rate=-0.1)
        with pytest.raises(ValueError, match="learning_rate"):
            _quick_cfg(learning_rate=float("nan"))
        with pytest.raises(ValueError, match="momentum"):
            _quick_cfg(momentum=1.0)

    def test_mode_follows_attack(self):
        attack = AttackConfig(0.3, 0.075, 4, True)
        assert _quick_cfg().mode == "standard"
        assert _quick_cfg(attack=attack).mode == "pgd_adversarial"
        assert dataclasses.replace(_quick_cfg(attack=attack), attack=None).mode == "standard"
        with pytest.raises(AttributeError):
            _quick_cfg().mode = "pgd_adversarial"

    def test_round_trips_through_dict(self):
        attack = AttackConfig(0.3, 0.075, 4, True)
        for cfg in (_quick_cfg(), _quick_cfg(attack=attack)):
            assert TrainConfig.from_dict(cfg.to_dict()) == cfg
        assert "attack" not in _quick_cfg().to_dict()
        assert TrainConfig.from_dict({**_quick_cfg().to_dict(), "attack": None}) == _quick_cfg()

    def test_from_dict_names_missing_fields(self):
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig.from_dict({"epochs": 1, "batch_size": 8,
                                   "learning_rate": 0.1})


class TestTrainNetwork:
    def test_zero_learning_rate_changes_nothing(self):
        ds = _moons()
        net = init_network((2, 5, 1), rct_af(7.0, 1), seed=2)
        trained, history = train_network(net, ds, _quick_cfg(learning_rate=0.0), 1)
        np.testing.assert_array_equal(flat_params(trained), flat_params(net))
        assert len(history.train_loss) == 3

    def test_input_network_is_not_mutated(self):
        ds = _moons()
        net = init_network((2, 5, 1), rct_af(7.0, 1), seed=2)
        before = flat_params(net).copy()
        train_network(net, ds, _quick_cfg(), 1)
        np.testing.assert_array_equal(flat_params(net), before)

    def test_history_has_one_entry_per_epoch(self):
        ds = _moons()
        net = init_network((2, 5, 1), rct_af(7.0, 1), seed=2)
        _, history = train_network(net, ds, _quick_cfg(epochs=4), 1)
        assert len(history.train_loss) == 4

    def test_loss_drops_on_easy_data(self):
        ds = make_dataset(GeneratorSpec("gaussian_blobs", separation=6.0), n=200, seed=9)
        net = init_network((2, 8, 1), rct_af(7.0, 1), seed=0)
        _, history = train_network(net, ds, _quick_cfg(epochs=10), 1)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_separable_blobs_reach_high_accuracy(self):
        ds = make_dataset(GeneratorSpec("gaussian_blobs", separation=6.0), n=250, seed=11)
        net = init_network((2, 16, 1), rct_af(14.0, 1), seed=3)
        cfg = TrainConfig(epochs=200, batch_size=32, learning_rate=0.05)
        trained, _ = train_network(net, ds, cfg, 3)
        assert clean_accuracy(trained, ds.x_test, ds.y_test) >= 0.98

    def test_zero_budget_adversarial_equals_standard(self):
        ds = _moons()
        net = init_network((2, 6, 1), rct_af(10.0, 1), seed=5)
        zero = AttackConfig(epsilon=0.0, step_size=0.1, steps=3, random_start=True)
        adv_cfg = _quick_cfg(attack=zero, epochs=4)
        std_cfg = _quick_cfg(epochs=4)
        net_adv, hist_adv = train_network(net, ds, adv_cfg, 1)
        net_std, hist_std = train_network(net, ds, std_cfg, 1)
        np.testing.assert_array_equal(flat_params(net_adv), flat_params(net_std))
        assert hist_adv.train_loss == hist_std.train_loss

    def test_deterministic_given_seeds(self):
        ds = _moons()
        net = init_network((2, 6, 1), rct_af(10.0, 1), seed=5)
        attack = AttackConfig(0.25, 0.0625, 5, True)
        cfg = _quick_cfg(attack=attack)
        a, _ = train_network(net, ds, cfg, 1)
        b, _ = train_network(net, ds, cfg, 1)
        np.testing.assert_array_equal(flat_params(a), flat_params(b))

    def test_divergence_raises_with_epoch(self):
        ds = _moons()
        net = init_network((2, 8, 1), rct_af(50.0, 2), seed=1)
        cfg = _quick_cfg(learning_rate=1e4, epochs=30)
        with pytest.raises(TrainingDivergedError) as exc:
            train_network(net, ds, cfg, 1)
        assert isinstance(exc.value.epoch, int)
        assert 0 <= exc.value.epoch < 30

    def test_rejects_width_mismatch(self):
        ds = _moons()
        net = init_network((3, 5, 1), rct_af(7.0, 1), seed=0)
        with pytest.raises(ValueError, match="width"):
            train_network(net, ds, _quick_cfg(), 1)


class TestTrainStack:
    """A stack trains each member bit for bit as that member trains alone."""

    ALPHAS = (0.5, 14.0, 100.0)

    def _nets(self, widths=(2, 6, 5, 1)):
        return [init_network(widths, rct_af(a, 2), seed=7) for a in self.ALPHAS]

    @pytest.mark.parametrize("mode", ("standard", "pgd_adversarial"))
    def test_members_equal_solo_training(self, mode):
        ds = _moons()
        nets = self._nets()
        attack = AttackConfig(0.25, 0.0625, 4, True) if mode != "standard" else None
        cfg = _quick_cfg(attack=attack)
        assert cfg.mode == mode
        trained, history = train_network(stack_networks(nets), ds, cfg, 1)
        assert len(trained) == 3 and history.diverged == {}
        for k, net in enumerate(nets):
            solo, solo_hist = train_network(net, ds, cfg, 1)
            np.testing.assert_array_equal(flat_params(trained.member(k)), flat_params(solo))
            assert [e[k] for e in history.train_loss] == solo_hist.train_loss

    def test_diverged_members_are_dropped_and_the_rest_train_on(self):
        """Member 0's second hidden layer overflows on the first batch: it is
        dropped at epoch 0, as alone it raises there, and the others train
        on unchanged."""
        ds = _moons()
        nets = self._nets((2, 4, 3, 1))
        nets[0].weights[0][:] = 1e200
        nets[0].weights[1][:] = 1e200
        cfg = _quick_cfg(attack=AttackConfig(0.25, 0.0625, 4, True))
        trained, history = train_network(stack_networks(nets), ds, cfg, 1)
        assert history.diverged == {0: 0}
        with pytest.raises(TrainingDivergedError) as exc:
            train_network(nets[0], ds, cfg, 1)
        assert exc.value.epoch == 0
        assert len(trained) == 2
        for i, net in enumerate(nets[1:]):
            solo, solo_hist = train_network(net, ds, cfg, 1)
            np.testing.assert_array_equal(flat_params(trained.member(i)), flat_params(solo))
            assert [e[i + 1] for e in history.train_loss] == solo_hist.train_loss
        assert all(math.isnan(e[0]) for e in history.train_loss)

    def test_a_stack_whose_members_all_diverge_comes_back_empty(self):
        ds = _moons()
        cfg = _quick_cfg(learning_rate=1e4, epochs=30)
        trained, history = train_network(stack_networks(self._nets()), ds, cfg, 1)
        assert len(trained) == 0 and sorted(history.diverged) == [0, 1, 2]

    def test_rejects_non_finite_training_data(self):
        ds = _moons()
        inputs = ds.inputs.copy()
        inputs[ds.train_idx[3], 1] = np.nan
        bad = dataclasses.replace(ds, inputs=inputs)
        for net in (self._nets()[0], stack_networks(self._nets())):
            with pytest.raises(ValueError, match="finite"):
                train_network(net, bad, _quick_cfg(), 1)


class TestSweepConfig:
    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="nonempty"):
            _tiny_sweep(curvature_targets=())
        with pytest.raises(ValueError, match="positive"):
            _tiny_sweep(curvature_targets=(-1.0, 7.0))
        with pytest.raises(ValueError, match="increasing"):
            _tiny_sweep(curvature_targets=(7.0, 0.5))
        with pytest.raises(ValueError, match="increasing"):
            _tiny_sweep(curvature_targets=(7.0, 7.0))
        with pytest.raises(ValueError, match="betas"):
            _tiny_sweep(betas=(3,))
        with pytest.raises(ValueError, match="seeds"):
            _tiny_sweep(seeds=())

    def test_train_template_must_be_adversarial(self):
        cfg = default_sweep_config()
        std = TrainConfig(epochs=2, batch_size=16, learning_rate=0.05)
        with pytest.raises(ValueError, match=r"train\.attack"):
            dataclasses.replace(cfg, train=std)

    def test_round_trips_through_dict(self):
        cfg = default_sweep_config()
        assert SweepConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_text_keeps_its_key_order(self):
        """Committed config files are compared as text; the encoding must
        not reorder keys or change number formatting."""
        assert json.dumps(default_sweep_config().to_dict()) == (
            '{"curvature_targets": [0.5, 1.0, 2.0, 4.0, 7.0, 10.0, 15.0, 20.0, 30.0, 50.0], '
            '"betas": [0, 1, 2], "seeds": [0, 1, 2, 3, 4], "widths": [2, 16, 16, 1], '
            '"dataset": {"kind": "two_moons", "noise": 0.04}, "dataset_n": 240, '
            '"dataset_seed": 7, "train": {"epochs": 40, "batch_size": 16, '
            '"learning_rate": 0.08, "momentum": 0.9, "attack": {'
            '"epsilon": 0.25, "step_size": 0.0625, "steps": 10, '
            '"random_start": true}}, "eval_attack": {"epsilon": 0.25, '
            '"step_size": 0.015625, "steps": 40, "random_start": true}}')

    def test_from_dict_names_missing_fields(self):
        data = default_sweep_config().to_dict()
        del data["eval_attack"]
        with pytest.raises(ValueError, match="eval_attack"):
            SweepConfig.from_dict(data)

    # Each bad input names the offending field.  momentum has a default in
    # Python but is required in TrainConfig JSON, which to_dict has always
    # written.
    @pytest.mark.parametrize("section, key, value, field", [
        ("train", "epochs", 40.5, "epochs"),
        ("train", "momentun", 0.5, "momentun"),
        ("eval_attack", "random_start", "false", "random_start"),
        (None, "curvature_target", [1.0], "curvature_target"),
        ("train", "momentum", None, "momentum"),
        ("dataset", "noise", "0.04", "noise"),
        ("train", "batch_size", True, "batch_size"),
        # json.load reads the tokens NaN and Infinity.
        (None, "curvature_targets", [float("nan")], "curvature_targets"),
        (None, "curvature_targets", [7.0, float("inf")], "curvature_targets"),
        # Keys of older configs: the attack now decides the mode, and each
        # cell trains with its grid seed.
        ("train", "mode", "pgd_adversarial", r"SweepConfig\.train\b.*'mode'"),
        ("train", "seed", 0, r"SweepConfig\.train\b.*'seed'"),
        # Grids the sweep cannot run once: no hidden net, a width below 1, an
        # output of more than one unit, and a beta or seed whose cells would
        # run and be written twice.
        (None, "widths", [2], "widths"),
        (None, "widths", [2, 0, 1], "widths"),
        (None, "widths", [2, 4, 2], "widths"),
        (None, "betas", [1, 1], "betas"),
        (None, "seeds", [0, 0], "seeds"),
        # Seeds numpy's generators refuse.
        (None, "seeds", [0, -1], "seeds"),
        (None, "dataset_seed", -1, "dataset_seed"),
        # A sequence that is not a list, a kind that is not a string, and a
        # null attack, which the adversarial template must set.
        (None, "seeds", 3, r"SweepConfig\.seeds must be a list"),
        ("dataset", "kind", 3, r"SweepConfig\.dataset\.kind must be a string"),
        ("train", "attack", None, r"train\.attack"),
    ])
    def test_from_dict_rejects_bad_input(self, section, key, value, field):
        data = default_sweep_config().to_dict()
        (data if section is None else data[section])[key] = value
        with pytest.raises(ValueError, match=field):
            SweepConfig.from_dict(data)

    def test_train_json_requires_momentum(self):
        data = default_sweep_config().train.to_dict()
        del data["momentum"]
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig.from_dict(data)

    def test_from_dict_accepts_integral_floats_and_int_rates(self):
        data = default_sweep_config().to_dict()
        data["train"]["epochs"] = 40.0
        data["train"]["learning_rate"] = 1
        cfg = SweepConfig.from_dict(data)
        assert cfg.train.epochs == 40 and isinstance(cfg.train.epochs, int)
        assert cfg.train.learning_rate == 1.0 and isinstance(cfg.train.learning_rate, float)


class TestRunSweep:
    def test_single_cell_result(self, tmp_path):
        cfg = _tiny_sweep()
        results = run_sweep(cfg, tmp_path / "results.csv")
        assert len(results) == 1
        r = results[0]
        assert r.status == "ok"
        assert r.beta == 1 and r.curvature == 7.0 and r.seed == 0
        assert r.alpha == alpha_for_curvature(1, 7.0)
        assert 0.0 <= r.robust_acc <= r.clean_acc <= 1.0
        assert math.isfinite(r.diag_norm) and r.diag_norm >= 0.0
        assert 0.0 <= r.std_clean_acc <= 1.0

    def test_covers_every_cell_exactly_once(self, tmp_path):
        cfg = _tiny_sweep(curvature_targets=(0.5, 7.0), betas=(0, 2),
                          seeds=(0, 1), dataset_n=40,
                          train=dataclasses.replace(default_sweep_config().train,
                                                    epochs=1))
        results = run_sweep(cfg, tmp_path / "results.csv")
        keys = [(r.beta, r.curvature, r.seed) for r in results]
        expected = [(b, c, s) for b in (0, 2) for c in (0.5, 7.0) for s in (0, 1)]
        assert keys == expected

    def test_deterministic_apart_from_wall_time(self, tmp_path):
        cfg = _tiny_sweep()
        a = run_sweep(cfg, tmp_path / "a.csv")[0]
        b = run_sweep(cfg, tmp_path / "b.csv")[0]
        assert dataclasses.replace(a, wall_time_s=0.0) == \
            dataclasses.replace(b, wall_time_s=0.0)

    def test_results_csv_round_trips(self, tmp_path):
        path = tmp_path / "results.csv"
        cfg = _tiny_sweep(seeds=(0, 1))
        results = run_sweep(cfg, results_path=path)
        loaded = read_sweep_results(path)
        assert loaded == results

    def test_resume_skips_finished_cells(self, tmp_path):
        path = tmp_path / "results.csv"
        cfg = _tiny_sweep(seeds=(0, 1))
        first = run_sweep(cfg, results_path=path)
        content = path.read_bytes()
        events = []
        second = run_sweep(cfg, results_path=path, resume=True,
                           progress=lambda kind, _: events.append(kind))
        assert events.count("done") == 0
        assert events.count("skipped") == 2
        assert path.read_bytes() == content
        assert second == first

    def test_resume_completes_a_partial_file(self, tmp_path):
        path = tmp_path / "results.csv"
        cfg = _tiny_sweep(seeds=(0, 1))
        full = run_sweep(cfg, results_path=path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows[:2])
        resumed = run_sweep(cfg, results_path=path, resume=True)
        assert [dataclasses.replace(r, wall_time_s=0.0) for r in resumed] == \
            [dataclasses.replace(r, wall_time_s=0.0) for r in full]

    def test_resume_recomputes_an_interrupted_final_row(self, tmp_path):
        path = tmp_path / "results.csv"
        cfg = _tiny_sweep(seeds=(0, 1), train=dataclasses.replace(
            default_sweep_config().train, epochs=1))
        full = run_sweep(cfg, results_path=path)
        path.write_bytes(path.read_bytes()[:-40])
        assert len(read_sweep_results(path)) == 1
        events = []
        resumed = run_sweep(cfg, results_path=path, resume=True,
                            progress=lambda kind, _: events.append(kind))
        assert events.count("done") == 1 and events.count("skipped") == 1
        strip = lambda rows: [dataclasses.replace(r, wall_time_s=0.0) for r in rows]
        assert strip(resumed) == strip(full)
        assert strip(read_sweep_results(path)) == strip(full)

    def test_malformed_row_is_named_by_line(self, tmp_path):
        path = tmp_path / "results.csv"
        good = ["1", "7.0", "14.0", "0", "0.9", "0.8", "0.1", "1.5", "ok", "0.9"]
        # Only a metric may be empty (NaN); an empty key or wall time is malformed.
        empties = [[("" if col == name else v) for col, v in zip(SWEEP_COLUMNS, good)]
                   for name in ("beta", "curvature", "alpha", "seed", "wall_time_s")]
        # Curvature and alpha must be finite, as the sweep writes them; a NaN key
        # would never equal itself on resume.
        non_finite = [[(text if col == name else v) for col, v in zip(SWEEP_COLUMNS, good)]
                      for name in ("curvature", "alpha") for text in ("nan", "inf", "-inf")]
        # Nor does the sweep write a beta outside {0, 1, 2} or another status.
        unwritten = [[text, *good[1:]] for text in ("3", "-1")] + [good[:8] + ["bogus"] + good[9:]]
        for bad, line in ((good[:4], 3), (good[:4] + ["x"] + good[5:], 3),
                          (good + ["extra"], 3), (good[:4], 4),
                          *((row, 3) for row in empties + non_finite + unwritten)):
            rows = [good, bad, good] if line == 3 else [good, good, bad]
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(",".join(SWEEP_COLUMNS) + "\n")
                fh.writelines(",".join(row) + "\n" for row in rows)
            with pytest.raises(ResultsFormatError, match=f"line {line}"):
                read_sweep_results(path)
            with pytest.raises(ResultsFormatError, match=f"line {line}"):
                run_sweep(_tiny_sweep(), results_path=path, resume=True)

    @pytest.mark.parametrize("header, missing, extra", [
        (SWEEP_COLUMNS[:-1], ["std_clean_acc"], []),
        (SWEEP_COLUMNS + ("hess_lmax",), [], ["hess_lmax"]),
        (SWEEP_COLUMNS[1:] + SWEEP_COLUMNS[:1], [], []),
    ])
    def test_resume_refuses_a_file_with_other_columns(self, tmp_path, capsys, header,
                                                       missing, extra):
        """Appending rows under another header would leave a file that no
        longer reads; the resume stops before it writes or truncates.  The
        reader and curvact plot refuse the same headers with the same error."""
        path = tmp_path / "results.csv"
        values = dict(zip(SWEEP_COLUMNS, ["1", "7.0", "14.0", "3", "0.9", "0.8", "0.1",
                                          "1.5", "ok", "0.9"]), hess_lmax="2.0")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            fh.write(",".join(values[c] for c in header) + "\n")
            fh.write("1,7.0")  # an interrupted final row
        content = path.read_bytes()
        with pytest.raises(ResultsFormatError, match="does not have the columns") as info:
            run_sweep(_tiny_sweep(), results_path=path, resume=True)
        message = str(info.value)
        assert str(path) in message
        assert f"missing {missing}, extra {extra}" in message
        with pytest.raises(ResultsFormatError) as read:
            read_sweep_results(path)
        assert str(read.value) == message
        svg = tmp_path / "plot.svg"
        assert cli.main(["plot", str(path), "--kind", "robustness_vs_curvature",
                         "--output", str(svg)]) == 1
        assert message in capsys.readouterr().err
        assert not svg.exists()
        assert path.read_bytes() == content

    def test_committed_cache_is_written_back_byte_for_byte(self, tmp_path, monkeypatch):
        """Every committed row, read and then written by the sweep, keeps its bytes."""
        cached = {(r.beta, r.curvature, r.seed): r for r in read_sweep_results(CACHE)}

        def cached_cells(config, dataset, cells, seed):
            return [cached[(b, c, seed)] for b, c in cells]

        monkeypatch.setattr(curvact.training, "run_cells", cached_cells)
        path = tmp_path / "results.csv"
        run_sweep(default_sweep_config(), results_path=path)
        written = path.read_bytes().splitlines(keepends=True)
        committed = CACHE.read_bytes().splitlines(keepends=True)
        assert len(written) == len(committed) == 151
        assert written[0] == committed[0]
        assert sorted(written[1:]) == sorted(committed[1:])

    def test_independent_of_worker_count(self, tmp_path):
        cfg = _tiny_sweep(seeds=(0, 1))
        strip = lambda rows: [dataclasses.replace(r, wall_time_s=0.0) for r in rows]
        assert strip(run_sweep(cfg, tmp_path / "two.csv", jobs=2)) == \
            strip(run_sweep(cfg, tmp_path / "one.csv", jobs=1))

    def test_partial_last_wave_splits_by_beta_with_the_same_rows(self, tmp_path, monkeypatch):
        """Three seed groups on two workers: the third group runs as one
        group per beta, and every row equals its row from one worker."""
        cfg = _tiny_sweep(seeds=(0, 1, 2), betas=(0, 2))
        submitted = []

        class SpyPool(curvact.training.ProcessPoolExecutor):
            def submit(self, fn, config, dataset, cells, seed):
                submitted.append((list(cells), seed))
                return super().submit(fn, config, dataset, cells, seed)

        monkeypatch.setattr(curvact.training, "ProcessPoolExecutor", SpyPool)
        rows = run_sweep(cfg, tmp_path / "two.csv", jobs=2)
        both = [(0, 7.0), (2, 7.0)]
        assert submitted == [(both, 0), (both, 1), ([(0, 7.0)], 2), ([(2, 7.0)], 2)]
        assert [_text(r) for r in rows] == \
            [_text(r) for r in run_sweep(cfg, tmp_path / "one.csv", jobs=1)]

    def test_workers_are_no_more_than_groups(self, tmp_path, monkeypatch):
        """Two seed groups at jobs=8 start two workers.  The stand-in pool
        records its size and runs each group inline, so no process starts."""
        workers = []

        class InlinePool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(curvact.training, "ProcessPoolExecutor", InlinePool)
        cfg = _tiny_sweep(seeds=(0, 1))
        rows = run_sweep(cfg, tmp_path / "eight.csv", jobs=8)
        assert workers == [2]
        assert [_text(r) for r in rows] == \
            [_text(r) for r in run_sweep(cfg, tmp_path / "one.csv", jobs=1)]

    def test_input_width_other_than_the_datasets_is_refused_before_the_file(self, tmp_path):
        cfg = _tiny_sweep(widths=(3, 4, 1))
        path = tmp_path / "results.csv"
        with pytest.raises(ValueError, match=r"widths\[0\] = 3 .* input dimension 2"):
            run_sweep(cfg, path)
        assert not path.exists()
        path.write_text("kept\n")
        with pytest.raises(ValueError, match="widths"):
            run_sweep(cfg, path, resume=False)
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_fewer_than_one_job_is_refused_before_the_file(self, tmp_path, jobs):
        path = tmp_path / "results.csv"
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(_tiny_sweep(), path, jobs=jobs)
        assert not path.exists()
        path.write_text("kept\n")
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(_tiny_sweep(), path, jobs=jobs)
        assert path.read_text() == "kept\n"

    def test_another_config_on_the_same_path_starts_afresh(self, tmp_path):
        """Without resume=True a file left by another config is replaced,
        not read back: resume compares only the header, so it would return
        the other config's row."""
        path = tmp_path / "results.csv"
        cfg_a = _tiny_sweep(train=dataclasses.replace(default_sweep_config().train, epochs=1))
        cfg_b = _tiny_sweep(train=dataclasses.replace(default_sweep_config().train, epochs=3,
                                                      learning_rate=0.02))
        run_sweep(cfg_a, path)
        rows = run_sweep(cfg_b, path)
        fresh = run_sweep(cfg_b, tmp_path / "fresh.csv")
        assert [_text(r) for r in rows] == [_text(r) for r in fresh]
        assert [_text(r) for r in read_sweep_results(path)] == [_text(r) for r in fresh]

    def test_divergent_cell_is_recorded_not_raised(self, tmp_path):
        cfg = _tiny_sweep(
            curvature_targets=(50.0,),
            betas=(2,),
            train=dataclasses.replace(default_sweep_config().train,
                                      epochs=20, learning_rate=1e4),
        )
        results = run_sweep(cfg, tmp_path / "results.csv")
        assert len(results) == 1
        assert results[0].status == "diverged"
        assert math.isnan(results[0].clean_acc)
        assert math.isnan(results[0].diag_norm)

    def test_diverged_rows_round_trip_as_nan(self, tmp_path):
        path = tmp_path / "results.csv"
        cfg = _tiny_sweep(
            curvature_targets=(50.0,),
            betas=(2,),
            train=dataclasses.replace(default_sweep_config().train,
                                      epochs=20, learning_rate=1e4),
        )
        run_sweep(cfg, results_path=path)
        loaded = read_sweep_results(path)
        assert loaded[0].status == "diverged"
        assert math.isnan(loaded[0].robust_acc)

    def test_forward_overflow_is_recorded_as_divergence(self, tmp_path):
        """At learning rate 30 the adversarial net's forward pass overflows
        while its parameters are still below the divergence ceiling."""
        base = default_sweep_config()
        cfg = dataclasses.replace(
            base, curvature_targets=(50.0,), betas=(2,), seeds=(1,),
            train=dataclasses.replace(base.train, epochs=6, learning_rate=30.0))
        (result,) = run_sweep(cfg, tmp_path / "results.csv")
        assert result.status == "diverged"

    def test_every_metric_is_nan_when_only_the_standard_twin_diverges(self, tmp_path):
        base = default_sweep_config()
        cfg = dataclasses.replace(
            base, curvature_targets=(0.5,), betas=(2,), seeds=(1,),
            train=dataclasses.replace(base.train, epochs=6, learning_rate=1.0))
        dataset = make_dataset(cfg.dataset, cfg.dataset_n, cfg.dataset_seed)
        adv_cfg = cfg.train
        std_cfg = dataclasses.replace(adv_cfg, attack=None)
        net = init_network(cfg.widths, rct_af(alpha_for_curvature(2, 0.5), 2),
                           seed=curvact.training._mix(1, 2), scheme="xavier")
        train_network(net, dataset, adv_cfg, 1)  # the adversarial net survives
        with pytest.raises(TrainingDivergedError):
            train_network(net, dataset, std_cfg, 1)
        (result,) = run_sweep(cfg, tmp_path / "results.csv")
        assert result.status == "diverged"
        for name in ("clean_acc", "robust_acc", "diag_norm", "std_clean_acc"):
            assert math.isnan(getattr(result, name)), name

    def test_group_rows_equal_solo_cells_when_some_members_diverge(self, tmp_path):
        """At learning rate 1 the beta = 2, seed 0 group loses curvature 0.5
        to a non-finite forward pass and 1.0 to wild parameters in
        adversarial training, and 2.0 in standard training; 4.0 survives.
        Each row is its cell's row run on its own."""
        base = default_sweep_config()
        cfg = dataclasses.replace(
            base, curvature_targets=(0.5, 1.0, 2.0, 4.0), betas=(2,), seeds=(0,),
            train=dataclasses.replace(base.train, epochs=6, learning_rate=1.0))
        dataset = make_dataset(cfg.dataset, cfg.dataset_n, cfg.dataset_seed)
        rows = run_sweep(cfg, tmp_path / "results.csv")
        assert [r.status for r in rows] == ["diverged"] * 3 + ["ok"]
        for r in rows:
            solo = run_cell(cfg, dataset, r.beta, r.curvature, r.seed)
            assert _text(solo) == _text(r)

    def test_curvature_subgrid_rows_equal_full_grid_rows(self, tmp_path):
        full = run_sweep(_tiny_sweep(curvature_targets=(0.5, 2.0, 7.0, 50.0), seeds=(0, 1)),
                         tmp_path / "full.csv")
        sub = run_sweep(_tiny_sweep(curvature_targets=(2.0, 50.0), seeds=(1,)),
                        tmp_path / "sub.csv")
        assert [_text(r) for r in sub] == \
            [_text(r) for r in full if r.curvature in (2.0, 50.0) and r.seed == 1]

    def test_resume_fills_in_a_half_done_group(self, tmp_path):
        path = tmp_path / "results.csv"
        cfg = _tiny_sweep(curvature_targets=(0.5, 7.0, 50.0))
        full = run_sweep(cfg, results_path=path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows[:2])
        events = []
        resumed = run_sweep(cfg, results_path=path, resume=True,
                            progress=lambda kind, _: events.append(kind))
        assert events.count("skipped") == 1 and events.count("done") == 2
        assert [_text(r) for r in resumed] == [_text(r) for r in full]
        assert [_text(r) for r in read_sweep_results(path)] == [_text(r) for r in full]

    def test_default_grid_runs_one_group_per_seed(self, tmp_path, monkeypatch):
        """Each seed's 30 cells, every beta among them, train as one stack."""
        calls = []

        def fake_run_cells(config, dataset, cells, seed):
            calls.append((list(cells), seed))
            return [SweepResult(b, c, alpha_for_curvature(b, c), seed, *[math.nan] * 4,
                                "diverged", math.nan) for b, c in cells]

        monkeypatch.setattr(curvact.training, "run_cells", fake_run_cells)
        cfg = default_sweep_config()
        rows = run_sweep(cfg, tmp_path / "results.csv")
        grid = [(b, c) for b in cfg.betas for c in cfg.curvature_targets]
        assert calls == [(grid, s) for s in cfg.seeds]
        assert [(r.beta, r.curvature, r.seed) for r in rows] == \
            [(b, c, s) for b, c in grid for s in cfg.seeds]

    def test_seed_group_spanning_betas_equals_solo_cells(self, tmp_path):
        """At learning rate 0.5 the beta = 1, curvature 0.5 member diverges
        while the members of beta 0 and 2 in its seed group train on.  Each
        row is its cell's row run on its own."""
        base = default_sweep_config()
        cfg = dataclasses.replace(
            base, curvature_targets=(0.5, 2.0), seeds=(0,),
            train=dataclasses.replace(base.train, epochs=6, learning_rate=0.5))
        dataset = make_dataset(cfg.dataset, cfg.dataset_n, cfg.dataset_seed)
        rows = run_sweep(cfg, tmp_path / "results.csv")
        assert [(r.beta, r.status) for r in rows] == \
            [(0, "ok"), (0, "ok"), (1, "diverged"), (1, "ok"), (2, "ok"), (2, "ok")]
        for r in rows:
            solo = run_cell(cfg, dataset, r.beta, r.curvature, r.seed)
            assert _text(solo) == _text(r)

    def test_resume_fills_in_a_group_left_half_done_across_betas(self, tmp_path, monkeypatch):
        path = tmp_path / "results.csv"
        cfg = _tiny_sweep(curvature_targets=(0.5, 7.0), betas=(0, 1, 2))
        full = run_sweep(cfg, results_path=path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows[:4])  # the header, beta 0 and beta 1 at 0.5
        groups = []
        real_run_cells = curvact.training.run_cells

        def spy(config, dataset, cells, seed):
            groups.append(list(cells))
            return real_run_cells(config, dataset, cells, seed)

        monkeypatch.setattr(curvact.training, "run_cells", spy)
        events = []
        resumed = run_sweep(cfg, results_path=path, resume=True,
                            progress=lambda kind, _: events.append(kind))
        assert groups == [[(1, 7.0), (2, 0.5), (2, 7.0)]]
        assert events.count("skipped") == 3 and events.count("done") == 3
        assert [_text(r) for r in resumed] == [_text(r) for r in full]
        assert [_text(r) for r in read_sweep_results(path)] == [_text(r) for r in full]

    def test_missing_column_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["beta", "curvature", "alpha", "seed", "clean_acc",
                             "robust_acc", "wall_time_s", "status"])
        with pytest.raises(ResultsFormatError, match="diag_norm"):
            read_sweep_results(path)

    def test_small_curvature_extremes_show_u_shape(self, tmp_path):
        # Reduced sweep named in the library docs: means of the standard
        # twins' diagonal norms over five seeds dip at mid curvature.
        cfg = dataclasses.replace(default_sweep_config(),
                                  curvature_targets=(0.5, 7.0, 50.0), betas=(1,))
        results = run_sweep(cfg, tmp_path / "results.csv")
        assert all(r.status == "ok" for r in results)

        def dn_mean(c):
            return np.mean([r.diag_norm for r in results if r.curvature == c])

        assert dn_mean(0.5) > dn_mean(7.0)
        assert dn_mean(50.0) > dn_mean(7.0)
