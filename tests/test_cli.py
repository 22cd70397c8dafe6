"""Command surface, ingestion, baselines, persistence, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from outtree import cli, likelihood, models, sampler, vb
from outtree import io as otio
from outtree.errors import ConfigError, DataError


def write(path, text):
    with open(path, "w") as handle:
        handle.write(text)


class TestIngest:
    def test_simple_numeric(self, tmp_path):
        path = tmp_path / "d.csv"
        write(path, "a,b\n1.5,2\n3,4.25\n")
        data = cli.ingest_csv(str(path))
        assert data.X.shape == (2, 2)
        assert data.X[1, 1] == 4.25

    def test_missing_labels(self, tmp_path):
        path = tmp_path / "d.csv"
        write(path, "a,y\n1,0\n2,\n3,1\n")
        data = cli.ingest_csv(str(path), label_column="y")
        assert list(data.y) == [0, -1, 1]
        assert data.X.shape == (3, 1)

    def test_ragged_row_reports_coordinates(self, tmp_path):
        path = tmp_path / "d.csv"
        write(path, "a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="row 3"):
            cli.ingest_csv(str(path))

    def test_non_numeric_cell_reports_column(self, tmp_path):
        path = tmp_path / "d.csv"
        write(path, "a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match="'b'"):
            cli.ingest_csv(str(path))

    def test_unknown_category_reports_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        write(path, "a,y\n1,0\n2,maybe\n")
        with pytest.raises(DataError, match="maybe"):
            cli.ingest_csv(str(path), label_column="y")

    def test_categories_stop_below_the_bound(self, tmp_path):
        path = tmp_path / "d.csv"
        write(path, f"a\n0\n{cli.MAX_CATEGORIES - 1}\n")
        assert cli.ingest_csv(str(path), categorical=True).X.max() == cli.MAX_CATEGORIES - 1
        write(path, f"a\n0\n{cli.MAX_CATEGORIES}\n")
        with pytest.raises(DataError, match="row 3, column 'a'"):
            cli.ingest_csv(str(path), categorical=True)

    @pytest.mark.parametrize("text, what", [("\n\n\n", "no attribute columns"),
                                            ("a,b\n", "no data rows")])
    @pytest.mark.parametrize("command", ["vb", "fit"])
    def test_no_attributes_or_no_rows_exit_3(self, tmp_path, capsys, text, what, command):
        # a file of blank lines reads as rows of no cells, and a header alone
        # as no rows: both are one DataError record naming the file
        path = tmp_path / "d.csv"
        write(path, text)
        assert cli.main([command, "--input", str(path),
                         "--output", str(tmp_path / "out")]) == 3
        message = error_record(capsys, 3)["message"]
        assert str(path) in message and what in message

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 3)) * np.pi
        path = tmp_path / "d.csv"
        otio.write_sample_csv(str(path), data)
        back = cli.ingest_csv(str(path))
        assert np.array_equal(back.X, data)


class TestSplits:
    def test_disjoint_and_exhaustive(self):
        train, val, test = cli.split_indices(97, (0.8, 0.1, 0.1), 3)
        combined = np.concatenate([train, val, test])
        assert sorted(combined) == list(range(97))
        assert len(set(train) & set(val)) == 0
        assert len(set(val) & set(test)) == 0

    def test_bad_fractions_rejected(self):
        with pytest.raises(ConfigError):
            cli.split_indices(10, (0.9, 0.2, 0.1), 0)
        with pytest.raises(ConfigError):
            cli.split_indices(10, (1.0, 0.0, 0.0), 0)

    def test_nan_fraction_rejected(self):
        # NaN passed both comparisons and ended in a ValueError of int()
        with pytest.raises(ConfigError):
            cli.split_indices(10, (np.nan, 0.5, 0.5), 0)


class TestSpiral:
    def test_zero_noise_lies_on_curve(self):
        data = cli.gen_spiral(cli.SpiralSpec(count=50, noise=0.0), 1)
        s = data[:, 2]
        assert np.allclose(data[:, 0], s * np.cos(s), atol=1e-12)
        assert np.allclose(data[:, 1], s * np.sin(s), atol=1e-12)

    def test_default_count_matches_experiment(self):
        data = cli.gen_spiral(cli.SpiralSpec(count=600), 2)
        assert data.shape == (600, 3)

    def test_noise_scales_distance_to_curve(self):
        def mean_distance(noise, seed):
            data = cli.gen_spiral(cli.SpiralSpec(count=4000, noise=noise), seed)
            clean = cli.gen_spiral(cli.SpiralSpec(count=4000, noise=0.0), seed)
            return np.linalg.norm(data - clean, axis=1).mean()

        ratio = mean_distance(1.0, 3) / mean_distance(0.5, 3)
        assert abs(ratio - 2.0) < 0.1

    def test_rejects_tiny_counts(self):
        with pytest.raises(ConfigError):
            cli.SpiralSpec(count=5)

    @pytest.mark.parametrize("field, value", [
        ("noise", np.nan), ("noise", np.inf),
        ("turns", 0.0), ("turns", -2.0), ("turns", np.nan), ("turns", np.inf)])
    def test_rejects_noise_and_turns_out_of_range(self, field, value):
        with pytest.raises(ConfigError, match=field):
            cli.SpiralSpec(count=20, **{field: value})


class TestParzen:
    def test_single_train_point_is_one_gaussian(self):
        train = np.array([[0.5, -1.0]])
        x = np.array([[0.7, -0.4]])
        got = cli.parzen_log_density(x, train, 0.8)[0]
        diff = x[0] - train[0]
        want = -0.5 * diff @ diff / 0.64 - np.log(2 * np.pi * 0.64)
        assert np.isclose(got, want)

    def test_huge_bandwidth_approaches_single_gaussian(self):
        rng = np.random.default_rng(5)
        train = rng.normal(size=(50, 2))
        test = rng.normal(size=(10, 2))
        sigma = 1000.0
        parzen = cli.parzen_log_density(test, train, sigma).sum()
        single = sum(-0.5 * x @ x / sigma ** 2 - np.log(2 * np.pi * sigma ** 2)
                     for x in test)
        assert abs(parzen - single) < 0.01 * abs(single)

    def test_bandwidth_selected_on_validation(self):
        rng = np.random.default_rng(6)
        train = rng.normal(size=(100, 2))
        val = rng.normal(size=(30, 2))
        test = rng.normal(size=(30, 2))
        result = cli.baseline_parzen(train, test, [0.01, 0.3, 1.0, 30.0], val)
        assert result.sigma in (0.3, 1.0)

    @pytest.mark.parametrize("bandwidths", [[0.3, 0.0], [-1.0], [np.nan], [np.inf]])
    def test_rejects_bandwidths_out_of_range(self, bandwidths):
        points = np.random.default_rng(6).normal(size=(10, 2))
        with pytest.raises(ConfigError, match="bandwidth"):
            cli.baseline_parzen(points, points, bandwidths, points)


class TestGmm:
    def test_k1_is_closed_form_gaussian(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(200, 2)) + [1.0, -2.0]
        params, trace = cli.fit_gmm(data, 1, np.random.default_rng(0))
        assert np.allclose(params.means[0], data.mean(axis=0), atol=1e-8)
        assert len(trace) <= 3  # converges immediately

    def test_em_trace_nondecreasing(self):
        rng = np.random.default_rng(8)
        data = np.vstack([rng.normal(size=(60, 2)), rng.normal(size=(60, 2)) + 4.0])
        for seed in range(3):
            _, trace = cli.fit_gmm(data, 3, np.random.default_rng(seed))
            assert np.all(np.diff(trace) > -1e-8)

    def test_well_separated_components_selected(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            data = np.vstack([rng.normal(size=(120, 2)),
                              rng.normal(size=(120, 2)) + 8.0])
            perm = rng.permutation(240)
            train, val, test = data[perm[:160]], data[perm[160:200]], data[perm[200:]]
            selection = cli.baseline_gmm(train, test, [1, 2, 3], 4, val, rng)
            hits += selection.best_k == 2
        assert hits >= 9


class TestModelDocuments:
    def test_gaussian_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(10, 3))
        model = models.gaussian_init_iid(data)
        path = str(tmp_path / "m.model")
        otio.write_model(path, model)
        back = otio.read_model(path)
        for name in ("mu_c", "mu_pi", "sigma_c_given_pi", "sigma_cc", "sigma_pipi"):
            assert np.array_equal(getattr(back, name), getattr(model, name))

    def test_tabular_round_trip(self, tmp_path):
        model = models.TabularModel([[0.25, 0.75]],
                                    [np.array([[0.9, 0.4], [0.1, 0.6]])])
        path = str(tmp_path / "m.model")
        otio.write_model(path, model)
        back = otio.read_model(path)
        assert np.array_equal(back.root_tables[0], model.root_tables[0])
        assert np.array_equal(back.cond_tables[0], model.cond_tables[0])

    def test_kernel_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        model = models.kernel_init_iid(rng.normal(size=(6, 2)))
        path = str(tmp_path / "m.model")
        otio.write_model(path, model)
        back = otio.read_model(path)
        assert np.array_equal(back.anchors, model.anchors)
        assert back.gamma == model.gamma
        assert back.kernel == model.kernel

    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        data = rng.integers(0, 2, size=(5, 1))
        prior = vb.DirichletPrior.uniform([2], 1.5)
        state = vb.vb_fit(data, prior, max_rounds=5)
        path = str(tmp_path / "s.ckpt")
        otio.write_checkpoint(path, prior, state)
        prior2, counts_root, counts_cond, q_root, trace = otio.read_checkpoint(path)
        assert np.array_equal(q_root, state.q_root)
        assert np.array_equal(counts_cond[0], state.counts_cond[0])
        assert np.array_equal(trace, np.array(state.elbo_trace))


class TestCommands:
    def make_gaussian_csv(self, tmp_path, rows=20, seed=0):
        rng = np.random.default_rng(seed)
        path = str(tmp_path / f"data{seed}.csv")
        otio.write_sample_csv(path, rng.normal(size=(rows, 2)))
        return path

    def test_fit_eval_round_trip(self, tmp_path):
        train = self.make_gaussian_csv(tmp_path, seed=1)
        test = self.make_gaussian_csv(tmp_path, seed=2)
        model_path = str(tmp_path / "m.model")
        out = str(tmp_path / "score.tsv")
        assert cli.main(["fit", "--input", train, "--output", model_path,
                         "--max-iters", "5"]) == 0
        assert os.path.exists(model_path + ".log")
        assert cli.main(["eval", "--input", train, "--test", test,
                         "--model", model_path, "--output", out]) == 0
        rows = cli._read_tsv(out)
        score = float(rows[0]["score"])
        rebuilt = (float(rows[0]["log_z_union"]) - float(rows[0]["log_z_train"])
                   + float(rows[0]["correction"]))
        assert abs(score - rebuilt) < 1e-12

    def test_eval_degenerate_model_matches_iid(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(8, 2))
        train_path = str(tmp_path / "train.csv")
        otio.write_sample_csv(train_path, data)
        model = models.gaussian_init_iid(data)
        model_path = str(tmp_path / "m.model")
        otio.write_model(model_path, model)
        out = str(tmp_path / "score.tsv")
        assert cli.main(["eval", "--input", train_path, "--test", train_path,
                         "--model", model_path, "--output", out]) == 0
        score = float(cli._read_tsv(out)[0]["score"])
        assert abs(score - likelihood.iid_log_likelihood(data, model)) < 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cell", ["1.5", "nan", "1e30", "-1"])
    def test_eval_reads_tabular_rows_for_a_tabular_model(self, tmp_path, capsys, cell):
        # the model, not a flag, says the rows are categorical: a non-integer
        # cell is named by file, row and column, with no warning
        data = np.array([[0, 1], [1, 2], [2, 0], [1, 1]])
        train, test = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
        model_path = str(tmp_path / "m.model")
        otio.write_sample_csv(train, data)
        otio.write_model(model_path, models.tabular_init_iid(data, [3, 3]))
        out = str(tmp_path / "score.tsv")
        assert cli.main(["eval", "--input", train, "--test", train,
                         "--model", model_path, "--output", out]) == 0
        write(test, f"x0,x1\n0,1\n{cell},2\n")
        assert cli.main(["eval", "--input", train, "--test", test,
                         "--model", model_path]) == 3
        assert error_record(capsys, 3)["message"] == \
            f"{test}: row 3, column 'x0': not a small nonnegative integer (below 1024)"

    def test_tabular_fit_of_all_zero_columns(self, tmp_path):
        # a model with no free parameter stops at once and is scored
        data_path, model_path = str(tmp_path / "zeros.csv"), str(tmp_path / "z.model")
        write(data_path, "a,b\n0,0\n0,0\n0,0\n")
        out = str(tmp_path / "score.tsv")
        assert cli.main(["fit", "--input", data_path, "--output", model_path,
                         "--model-family", "tabular"]) == 0
        assert "gradient_tolerance" in open(model_path + ".log").read()
        assert cli.main(["eval", "--input", data_path, "--test", data_path,
                         "--model", model_path, "--output", out]) == 0
        assert np.isfinite(float(cli._read_tsv(out)[0]["score"]))

    def test_sample_reproducible_bit_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        model_path = str(tmp_path / "m.model")
        otio.write_model(model_path, models.gaussian_init_iid(rng.normal(size=(6, 2))))
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (out1, out2):
            assert cli.main(["sample", "--model", model_path, "--rows", "12",
                             "--seed", "9", "--output", out]) == 0
        assert open(out1).read() == open(out2).read()
        assert open(out1 + ".edges").read() == open(out2 + ".edges").read()

    def test_sample_requires_seed(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        model_path = str(tmp_path / "m.model")
        otio.write_model(model_path, models.gaussian_init_iid(rng.normal(size=(6, 2))))
        code = cli.main(["sample", "--model", model_path, "--rows", "5",
                         "--output", str(tmp_path / "x.csv")])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["exit_code"] == 2

    def test_semisup_command(self, tmp_path):
        rng = np.random.default_rng(6)
        generator = cli.semisup_generator()
        draw = sampler.sample_dataset(generator, 25, 11)
        labels = cli._mutate_labels(draw.tree, 0.9, 2, rng)
        hidden = set(rng.permutation(25)[10:].tolist())
        rows = [[*(repr(float(v)) for v in draw.data[i]),
                 "" if i in hidden else str(labels[i])] for i in range(25)]
        path = str(tmp_path / "labeled.csv")
        write(path, "x0,x1,x2,y\n" + "\n".join(",".join(r) for r in rows) + "\n")
        model_path = str(tmp_path / "gen.model")
        otio.write_model(model_path, generator)
        out = str(tmp_path / "labels.tsv")
        assert cli.main(["semisup", "--input", path, "--label-column", "y",
                         "--model", model_path, "--seed", "3", "--classes", "2",
                         "--alpha", "0.9", "--output", out]) == 0
        import csv as csvmod
        with open(out) as handle:
            result = list(csvmod.DictReader(handle))
        assert len(result) == 25
        assert all(row["label"] in ("0", "1") for row in result)
        assert sum(int(row["observed"]) for row in result) == 10
        # hidden nodes carry exact flip deltas for the non-chosen classes
        hidden_rows = [row for row in result if row["observed"] == "0"]
        assert all(any(row[f"delta_{k}"] != "" for k in range(2))
                   for row in hidden_rows)

    def test_vb_command_and_elbo_trace_plotdata(self, tmp_path):
        rng = np.random.default_rng(7)
        data_path = str(tmp_path / "cats.csv")
        otio.write_sample_csv(data_path, rng.integers(0, 2, size=(6, 1)))
        ckpt = str(tmp_path / "state.ckpt")
        assert cli.main(["vb", "--input", data_path, "--output", ckpt,
                         "--prior-count", "1.0"]) == 0
        resumed = str(tmp_path / "resumed.ckpt")
        assert cli.main(["vb", "--input", data_path, "--output", resumed,
                         "--resume", ckpt]) == 0
        trace_out = str(tmp_path / "trace.tsv")
        assert cli.main(["plotdata", "--kind", "elbo-trace", "--input", ckpt,
                         "--output", trace_out]) == 0
        rows = cli._read_tsv(trace_out)
        values = [float(r["elbo"]) for r in rows]
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_scatter3d_plotdata(self, tmp_path):
        rng = np.random.default_rng(8)
        model_path = str(tmp_path / "m.model")
        otio.write_model(model_path, models.gaussian_init_iid(rng.normal(size=(6, 3))))
        out = str(tmp_path / "s.csv")
        assert cli.main(["sample", "--model", model_path, "--rows", "7",
                         "--seed", "2", "--output", out]) == 0
        plot = str(tmp_path / "scatter.tsv")
        assert cli.main(["plotdata", "--kind", "scatter3d", "--input", out,
                         "--edges", out + ".edges", "--output", plot]) == 0
        rows = cli._read_tsv(plot)
        assert len(rows) == 7
        assert sum(row["parent"] == "root" for row in rows) == 1

    def test_error_vs_labels_plotdata(self, tmp_path):
        bench = str(tmp_path / "bench.tsv")
        cli.write_tsv(bench, [
            {"labeled_frac": 0.3, "labeled_count": 18, "seed": 0, "config": "x",
             "tree_accuracy": 0.8, "majority_accuracy": 0.6},
            {"labeled_frac": 0.3, "labeled_count": 18, "seed": 1, "config": "x",
             "tree_accuracy": 0.7, "majority_accuracy": 0.6},
        ], ["labeled_frac", "labeled_count", "seed", "config",
            "tree_accuracy", "majority_accuracy"])
        out = str(tmp_path / "err.tsv")
        assert cli.main(["plotdata", "--kind", "error-vs-labels",
                         "--input", bench, "--output", out]) == 0
        rows = cli._read_tsv(out)
        assert len(rows) == 1
        assert abs(float(rows[0]["mean_error"]) - 0.25) < 1e-12

    def test_config_file_with_flag_override(self, tmp_path):
        train = self.make_gaussian_csv(tmp_path, seed=9)
        config = str(tmp_path / "run.cfg")
        write(config, "max-iters = 3\ngrad-tol = 0.1\n")
        model_path = str(tmp_path / "m.model")
        assert cli.main(["fit", "--input", train, "--output", model_path,
                         "--config", config, "--max-iters", "1"]) == 0
        log_rows = open(model_path + ".log").read().strip().split("\n")
        iterations = [l for l in log_rows[1:] if not l.startswith("#")]
        assert len(iterations) <= 2  # header row 0 plus at most one step

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        train = self.make_gaussian_csv(tmp_path, seed=10)
        config = str(tmp_path / "bad.cfg")
        write(config, "definitely-not-a-flag = 1\n")
        code = cli.main(["fit", "--input", train,
                         "--output", str(tmp_path / "m.model"),
                         "--config", config])
        assert code == 2

    def test_fit_log_and_summary_parse_as_floats(self, tmp_path, capsys):
        train = self.make_gaussian_csv(tmp_path, seed=11)
        model_path = str(tmp_path / "m.model")
        assert cli.main(["fit", "--input", train, "--output", model_path,
                         "--max-iters", "3"]) == 0
        lines = open(model_path + ".log").read().strip().split("\n")
        rows = [line.split("\t") for line in lines[1:] if not line.startswith("#")]
        assert len(rows) == 4
        for row in rows:
            for cell in row:
                float(cell)
        summary = capsys.readouterr().out.split()
        float(summary[1]), float(summary[3])
        # the objective evaluation count, rejected trials included
        evaluations = int(summary[summary.index("evaluations,") - 1])
        assert evaluations >= 4
        assert lines[-2:] == [f"# evaluations\t{evaluations}", "# reason\tmax_iterations"]

    def test_vb_and_spiral_bench_summaries_parse_as_floats(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        data_path = str(tmp_path / "cats.csv")
        otio.write_sample_csv(data_path, rng.integers(0, 2, size=(6, 1)))
        assert cli.main(["vb", "--input", data_path, "--max-rounds", "3",
                         "--output", str(tmp_path / "state.ckpt")]) == 0
        vb_words = capsys.readouterr().out.split()
        assert vb_words[:2] == ["vb:", "3"]
        float(vb_words[-1])
        assert cli.main(["spiral-bench", "--seed", "2", "--rows", "40", "--folds", "2",
                         "--max-iters", "2", "--restarts", "1",
                         "--output", str(tmp_path / "bench.tsv")]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4
        for line in lines:
            _, mean_word, mean, stderr_word, stderr = line.split()
            assert (mean_word, stderr_word) == ("mean", "stderr")
            float(mean), float(stderr)

    def test_config_values_take_their_flag_types(self, tmp_path):
        config = str(tmp_path / "run.cfg")
        write(config, "seed = 3\nrows = 40\n")
        out = str(tmp_path / "spiral.csv")
        assert cli.main(["spiral", "--output", out, "--config", config]) == 0
        flagged = str(tmp_path / "flagged.csv")
        assert cli.main(["spiral", "--output", flagged, "--seed", "3",
                         "--rows", "40"]) == 0
        assert open(out).read() == open(flagged).read()

    def test_abbreviated_and_joined_flags_beat_config(self, tmp_path):
        config = str(tmp_path / "c.cfg")
        write(config, "rows = 20\n")
        for flag, rows in ((["--row", "50"], 50), (["--rows=60"], 60), ([], 20)):
            out = str(tmp_path / "a.csv")
            assert cli.main(["spiral", "--config", config, *flag, "--seed", "1",
                             "--output", out]) == 0
            assert len(cli.ingest_csv(out).X) == rows

    def test_unconvertible_config_value_is_config_error(self, tmp_path, capsys):
        train = self.make_gaussian_csv(tmp_path, seed=12)
        config = str(tmp_path / "bad.cfg")
        write(config, "max_iters = ten\n")
        code = cli.main(["fit", "--input", train,
                         "--output", str(tmp_path / "m.model"), "--config", config])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError" and "max_iters" in record["message"]

    def test_config_value_outside_choices_names_line_and_key(self, tmp_path, capsys):
        train = self.make_gaussian_csv(tmp_path, seed=12)
        config = str(tmp_path / "bad.cfg")
        write(config, "# family\nmodel-family = nope\n")
        model_path = str(tmp_path / "m.model")
        code = cli.main(["fit", "--input", train, "--output", model_path,
                         "--config", config])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"{config}:2: model-family: ")
        assert "'nope'" in record["message"]
        assert not os.path.exists(model_path)

    def test_data_error_exit_code(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.csv")
        write(bad, "a,b\n1,2\n3\n")
        code = cli.main(["fit", "--input", bad,
                         "--output", str(tmp_path / "m.model")])
        assert code == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "DataError"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", ["gaussian", "kernel"])
    def test_one_row_fit_is_a_data_error(self, tmp_path, capsys, family):
        # either family's seed model takes a sample variance, which needs two
        # rows: one JSON record and no warning
        path = str(tmp_path / "one.csv")
        write(path, "a,b\n1,2\n")
        assert cli.main(["fit", "--model-family", family, "--input", path,
                         "--output", str(tmp_path / "m.model")]) == 3
        record = error_record(capsys, 3)
        assert record["error"] == "DataError"
        assert record["message"] == "need at least 2 rows to fit a seed model"

    @pytest.mark.parametrize("command", [["fit", "--model-family", "tabular"], ["vb"]])
    def test_huge_category_is_a_data_error(self, tmp_path, capsys, command):
        # each attribute gets a k x k table, k its largest cell plus one: a
        # cell of 1e12 is named by row and column before any table is made
        path = str(tmp_path / "cats.csv")
        write(path, "x0,x1\n0,1\n1,1000000000000\n1,0\n")
        assert cli.main([*command, "--input", path, "--output", str(tmp_path / "out")]) == 3
        assert error_record(capsys, 3)["message"] == \
            f"{path}: row 3, column 'x1': not a small nonnegative integer (below 1024)"

    def test_overflowing_held_out_row_writes_one_line(self, tmp_path):
        # the score's arithmetic overflows on a row of 1e300; the run ends
        # with the JSON record naming the pair, and no warning before it
        rng = np.random.default_rng(13)
        data = rng.normal(size=(8, 2))
        test = rng.normal(size=(3, 2))
        test[1, 0] = 1e300
        paths = [str(tmp_path / name) for name in ("train.csv", "test.csv", "m.model")]
        otio.write_sample_csv(paths[0], data)
        otio.write_sample_csv(paths[1], test)
        otio.write_model(paths[2], models.gaussian_init_iid(data))
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "outtree.cli", "eval", "--input", paths[0],
             "--test", paths[1], "--model", paths[2]],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                p for p in [src, os.environ.get("PYTHONPATH")] if p)})
        assert done.returncode == 3
        lines = done.stderr.split("\n")
        assert len(lines) == 2 and lines[1] == "", done.stderr
        record = json.loads(lines[0])
        assert record == {"error": "DataError", "exit_code": 3,
                          "message": "non-finite log conditional for pair (9, 0)"}

    def test_overflowing_labelled_row_writes_one_line(self, tmp_path):
        # the semi-supervised weights are checked as the likelihood's are: a
        # row of 1e200 overflows, and the run ends with the JSON record
        # naming the pair, and no warning before it
        rng = np.random.default_rng(14)
        data = rng.normal(size=(8, 2))
        model = models.gaussian_init_iid(data)
        data[5] = 1e200
        labels = ["0", "1", "", "0", "", "1", "", "1"]
        path, model_path = str(tmp_path / "labeled.csv"), str(tmp_path / "m.model")
        write(path, "x0,x1,y\n" + "".join(f"{a!r},{b!r},{y}\n"
                                          for (a, b), y in zip(data.tolist(), labels)))
        otio.write_model(model_path, model)
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "outtree.cli", "semisup", "--input", path,
             "--label-column", "y", "--model", model_path, "--seed", "1",
             "--output", str(tmp_path / "labels.csv")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                p for p in [src, os.environ.get("PYTHONPATH")] if p)})
        assert done.returncode == 3
        lines = done.stderr.split("\n")
        assert len(lines) == 2 and lines[1] == "", done.stderr
        record = json.loads(lines[0])
        assert record == {"error": "DataError", "exit_code": 3,
                          "message": "non-finite log conditional for pair (5, 0)"}


class TestSemisupBenchmark:
    def test_rows_carry_seed_and_config(self):
        rows = cli.run_semisup_benchmark(count=30, seeds=2, seed=5, restarts=2,
                                         max_sweeps=15)
        assert len(rows) == 2
        for row in rows:
            assert row["config"] == rows[0]["config"]
            assert 0.0 <= row["tree_accuracy"] <= 1.0
            assert row["labeled_count"] == 9

    def test_fraction_that_hides_no_row_raises(self):
        # 0.99 of 5 rows labels all five, which left every accuracy NaN
        with pytest.raises(ConfigError, match="hides no row"):
            cli.run_semisup_benchmark(count=5, labeled_fracs=(0.3, 0.99), seeds=1)


def run_isolated(*args):
    """``python *args`` in a subprocess that imports this package, with a
    timeout, so that a hang fails the test instead of stalling it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in [src, os.environ.get("PYTHONPATH")] if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env=env)


def one_config_error(done):
    """The ``ConfigError`` record of a finished process that exited 2 and
    wrote one line to stderr."""
    assert done.returncode == 2
    lines = done.stderr.split("\n")
    assert len(lines) == 2 and lines[1] == "", done.stderr
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    return record


def error_record(capsys, code):
    """The one JSON record a failed command wrote to stderr."""
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["exit_code"] == code
    return record


class TestUsage:
    def test_config_supplies_required_options(self, tmp_path):
        out = str(tmp_path / "s.csv")
        config = str(tmp_path / "c.cfg")
        write(config, f"output = {out}\nseed = 1\nrows = 12\n")
        assert cli.main(["spiral", "--config", config]) == 0
        assert len(cli.ingest_csv(out).X) == 12
        model_path = str(tmp_path / "m.model")
        otio.write_model(model_path, models.gaussian_init_iid(cli.ingest_csv(out).X))
        drawn = str(tmp_path / "d.csv")
        write(config, f"output = {drawn}\nseed = 2\nrows = 7\n")
        assert cli.main(["sample", "--config", config, "--model", model_path]) == 0
        assert len(cli.ingest_csv(drawn).X) == 7

    def test_missing_required_option_names_it(self, tmp_path, capsys):
        config = str(tmp_path / "c.cfg")
        write(config, "rows = 12\n")
        assert cli.main(["spiral", "--config", config, "--seed", "1"]) == 2
        record = error_record(capsys, 2)
        assert record["error"] == "ConfigError" and "--output" in record["message"]
        assert cli.main(["sample", "--seed", "1"]) == 2
        message = error_record(capsys, 2)["message"]
        assert all(flag in message for flag in ("--output", "--model", "--rows"))

    @pytest.mark.parametrize("argv", [
        ["spiral", "--noise", "abc", "--seed", "1", "--output", "x.csv"],
        ["spiral", "--no-such-flag"],
        ["plotdata", "--kind", "pie"],
        ["no-such-command"],
        [],
    ])
    def test_usage_error_is_one_json_record(self, argv, capsys):
        assert cli.main(argv) == 2
        assert error_record(capsys, 2)["error"] == "ConfigError"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["spiral", "-h"])
        assert exit_info.value.code == 0
        assert "--noise" in capsys.readouterr().out

    @pytest.fixture
    def inputs(self, tmp_path):
        """Paths of a labelled spiral file, a categorical file and a model."""
        data = cli.gen_spiral(cli.SpiralSpec(count=20), 1)
        labels = ["0", "1", ""] * 6 + ["0", "1"]
        labelled = str(tmp_path / "labelled.csv")
        write(labelled, "a,b,c,y\n" + "".join(
            ",".join([*map(repr, row.tolist()), label]) + "\n"
            for row, label in zip(data, labels)))
        cats = str(tmp_path / "cats.csv")
        write(cats, "a,b\n0,1\n1,1\n2,0\n0,0\n")
        model = str(tmp_path / "m.model")
        otio.write_model(model, models.gaussian_init_iid(data))
        return {"labelled": labelled, "cats": cats, "model": model,
                "out": str(tmp_path / "out")}

    SEMISUP = ["--input", "{labelled}", "--label-column", "y", "--seed", "1",
               "--output", "{out}"]
    SPIRAL = ["--seed", "1", "--output", "{out}"]
    SPIRAL_BENCH = ["--rows", "40", "--restarts", "1", "--seed", "1", "--output", "{out}"]
    SEMISUP_BENCH = ["--restarts", "1", "--seed", "1", "--output", "{out}"]

    @pytest.mark.parametrize("command, flag, value, rest", [
        ("semisup", "--sigma-scale", "-1", [*SEMISUP, "--model", "{model}"]),
        ("semisup", "--sigma-scale", "nan", [*SEMISUP, "--model", "{model}"]),
        ("semisup", "--alpha", "1.5", [*SEMISUP, "--model", "{model}"]),
        ("semisup", "--alpha-grid", "0.5,2", [*SEMISUP, "--model", "{model}"]),
        ("semisup", "--classes", "1", [*SEMISUP, "--model", "{model}"]),
        ("semisup", "--restarts", "0", [*SEMISUP, "--model", "{model}"]),
        ("semisup", "--max-sweeps", "-1", [*SEMISUP, "--model", "{model}"]),
        ("semisup", "--max-iters", "-1", SEMISUP),
        ("fit", "--max-iters", "-1", ["--input", "{labelled}", "--output", "{out}"]),
        ("fit", "--grad-tol", "0", ["--input", "{labelled}", "--output", "{out}"]),
        ("fit", "--grad-tol", "nan",
         ["--input", "{labelled}", "--output", "{out}", "--max-iters", "2"]),
        ("vb", "--prior-count", "0", ["--input", "{cats}", "--output", "{out}"]),
        ("vb", "--prior-count", "nan", ["--input", "{cats}", "--output", "{out}"]),
        ("vb", "--max-rounds", "-1", ["--input", "{cats}", "--output", "{out}"]),
        ("sample", "--rows", "0", ["--model", "{model}", "--seed", "1", "--output", "{out}"]),
        ("sample", "--rows", "-3", ["--model", "{model}", "--seed", "1", "--output", "{out}"]),
        ("spiral-bench", "--restarts", "0",
         ["--rows", "40", "--folds", "2", "--max-iters", "1", "--seed", "1",
          "--output", "{out}"]),
        ("spiral", "--seed", "-1", ["--output", "{out}"]),
        ("sample", "--seed", "-1", ["--model", "{model}", "--rows", "5", "--output", "{out}"]),
        ("semisup", "--seed", "-1", ["--input", "{labelled}", "--label-column", "y",
                                     "--model", "{model}", "--output", "{out}"]),
        ("spiral", "--turns", "-2", SPIRAL),
        ("spiral", "--turns", "inf", SPIRAL),
        ("spiral", "--turns", "nan", SPIRAL),
        ("spiral", "--noise", "nan", SPIRAL),
        ("spiral", "--noise", "inf", SPIRAL),
        ("spiral-bench", "--folds", "0", [*SPIRAL_BENCH, "--max-iters", "1"]),
        ("semisup-bench", "--runs", "0", [*SEMISUP_BENCH, "--rows", "30"]),
        ("semisup-bench", "--rows", "0", [*SEMISUP_BENCH, "--runs", "1"]),
        ("semisup-bench", "--rows", "5", [*SEMISUP_BENCH, "--runs", "1",
                                          "--labeled-fracs", "0.99"]),
        ("semisup-bench", "--labeled-fracs", "nan", [*SEMISUP_BENCH, "--rows", "30", "--runs", "1"]),
        ("semisup-bench", "--labeled-fracs", "-1", [*SEMISUP_BENCH, "--rows", "30", "--runs", "1"]),
        ("semisup-bench", "--labeled-fracs", "2", [*SEMISUP_BENCH, "--rows", "30", "--runs", "1"]),
        ("spiral-bench", "--bandwidth-grid", "0,-1",
         [*SPIRAL_BENCH, "--folds", "2", "--max-iters", "1"]),
        ("spiral-bench", "--bandwidth-grid", "nan",
         [*SPIRAL_BENCH, "--folds", "2", "--max-iters", "1"]),
        ("spiral-bench", "--splits", "nan,0.5,0.5",
         [*SPIRAL_BENCH, "--folds", "2", "--max-iters", "1"]),
        ("spiral", "--rows", "5", SPIRAL),
    ])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_numeric_flag_out_of_range_is_one_json_record(
            self, tmp_path, capsys, inputs, command, flag, value, rest, route):
        # each value once ended in a traceback or ran to a meaningless exit 0;
        # a --config value takes the same check as its flag
        argv = [command, *(arg.format(**inputs) for arg in rest)]
        if route == "flag":
            argv += [flag, value]
        else:
            config = str(tmp_path / "c.cfg")
            write(config, f"{flag[2:]} = {value}\n")
            argv += ["--config", config]
        assert cli.main(argv) == 2
        record = error_record(capsys, 2)
        assert record["error"] == "ConfigError"
        assert flag[2:].replace("-", "_") in record["message"].replace("-", "_")
        assert not os.path.exists(inputs["out"])

    @pytest.mark.parametrize("alpha", ["1", "2"])
    def test_stickiness_with_no_minority_exits_2(self, tmp_path, alpha):
        # at alpha_true >= 1 every label copies the root's, so the
        # benchmark's draw of a labelling with a minority never ends
        done = run_isolated("-m", "outtree.cli", "semisup-bench", "--alpha-true", alpha,
                            "--seed", "1", "--output", str(tmp_path / "b.tsv"))
        one_config_error(done)
        done = run_isolated("-c", "from outtree import cli\n"
                            f"cli.run_semisup_benchmark(alpha_true={alpha}.0, seeds=1)\n")
        assert done.returncode == 1
        assert "ValueError: alpha must lie strictly between 0 and 1" in done.stderr

    def test_rows_with_no_minority_exits_2(self, tmp_path):
        # one row cannot give each of two classes 35 % of the rows, so the
        # benchmark's draw of a labelling never ended
        done = run_isolated("-m", "outtree.cli", "semisup-bench", "--rows", "1",
                            "--seed", "1", "--output", str(tmp_path / "b.tsv"))
        assert "rows" in one_config_error(done)["message"]
        assert not (tmp_path / "b.tsv").exists()
        done = run_isolated("-c", "from outtree import cli\n"
                            "cli.run_semisup_benchmark(count=1, seeds=1)\n")
        assert done.returncode == 1
        assert "ConfigError: rows: 1 rows cannot give each of 2 classes" in done.stderr


class TestMalformedArtifacts:
    def write_model(self, tmp_path):
        rng = np.random.default_rng(20)
        data = rng.normal(size=(6, 3))
        data_path = str(tmp_path / "d.csv")
        otio.write_sample_csv(data_path, data)
        model_path = str(tmp_path / "m.model")
        otio.write_model(model_path, models.gaussian_init_iid(data))
        return data_path, model_path

    def test_one_token_line_in_model(self, tmp_path, capsys):
        data_path, model_path = self.write_model(tmp_path)
        with open(model_path, "a") as handle:
            handle.write("orphan\n")
        assert cli.main(["eval", "--input", data_path, "--test", data_path,
                         "--model", model_path]) == 3
        assert "orphan" in error_record(capsys, 3)["message"]

    def test_model_with_a_missing_record(self, tmp_path, capsys):
        data_path, model_path = self.write_model(tmp_path)
        lines = open(model_path).read().split("\n")
        write(model_path, "\n".join(l for l in lines if not l.startswith("sigma_cc")))
        assert cli.main(["sample", "--model", model_path, "--rows", "3", "--seed", "1",
                         "--output", str(tmp_path / "x.csv")]) == 3
        assert "sigma_cc" in error_record(capsys, 3)["message"]

    def test_model_with_a_short_vector(self, tmp_path, capsys):
        data_path, model_path = self.write_model(tmp_path)
        text = open(model_path).read()
        write(model_path, text.replace("mu_c vector 3", "mu_c vector 4"))
        assert cli.main(["eval", "--input", data_path, "--test", data_path,
                         "--model", model_path]) == 3
        assert "mu_c" in error_record(capsys, 3)["message"]

    @staticmethod
    def narrower(parts):
        """A vector record one entry shorter, a matrix record one column
        narrower; the document still parses."""
        if parts[1] == "vector":
            return parts[:2] + [str(int(parts[2]) - 1)] + parts[3:-1]
        cols = int(parts[3])
        return parts[:3] + [str(cols - 1)] + [value for i, value in enumerate(parts[4:])
                                              if i % cols != cols - 1]

    @staticmethod
    def first_value(text):
        """An edit that writes ``text`` as the record's first value."""
        def edit(parts):
            head = {"scalar": 2, "vector": 3, "matrix": 4}[parts[1]]
            return parts[:head] + [text] + parts[head + 1:]
        return edit

    @pytest.mark.parametrize("family, key, fault", [
        ("gaussian", "mu_pi", "narrower"), ("gaussian", "mu_c", "nan"),
        ("gaussian", "sigma_cc", "inf"), ("gaussian", "sigma_c_given_pi", "-inf"),
        ("kernel", "anchors", "narrower"), ("kernel", "mu", "nan"),
        ("kernel", "alpha", "-inf"), ("kernel", "sigma", "nan"), ("kernel", "gamma", "inf"),
        ("tabular", "root_0", "nan"), ("gaussian", "mu_c", "scalar"), ("kernel", "mu", "scalar")])
    def test_model_with_a_bad_parameter(self, tmp_path, capsys, family, key, fault):
        # one record of a valid document: of the wrong shape, or not finite
        rng = np.random.default_rng(24)
        data = rng.integers(0, 3, size=(6, 2)) if family == "tabular" \
            else rng.normal(size=(6, 3))
        model = {"gaussian": models.gaussian_init_iid, "kernel": models.kernel_init_iid,
                 "tabular": lambda x: models.tabular_init_iid(x, [3, 3])}[family](data)
        data_path, model_path = str(tmp_path / "d.csv"), str(tmp_path / "m.model")
        otio.write_sample_csv(data_path, data)
        otio.write_model(model_path, model)
        edit = {"narrower": self.narrower,
                "scalar": lambda parts: [parts[0], "scalar", parts[3]]}.get(
                    fault, self.first_value(fault))
        text = open(model_path).read()
        edited = "\n".join(" ".join(edit(l.split())) if l.split()[:1] == [key] else l
                           for l in text.split("\n"))
        assert edited != text
        write(model_path, edited)
        for argv in (["eval", "--input", data_path, "--test", data_path],
                     ["sample", "--rows", "5", "--seed", "1",
                      "--output", str(tmp_path / "x.csv")]):
            assert cli.main(argv + ["--model", model_path]) == 3
            message = error_record(capsys, 3)["message"]
            assert message.startswith(f"{model_path}: ")  # rejected as it is read
            assert {"root_0": "root table 0"}.get(key, key) in message

    def test_sample_that_overflows_is_one_json_record(self, tmp_path, capsys):
        # finite parameters whose draws overflow along the tree
        _, model_path = self.write_model(tmp_path)
        lines = open(model_path).read().split("\n")
        edit = self.first_value("0x1p+900")
        write(model_path, "\n".join(" ".join(edit(l.split()))
                                    if l.startswith("sigma_c_given_pi") else l
                                    for l in lines))
        output = str(tmp_path / "x.csv")
        assert cli.main(["sample", "--model", model_path, "--rows", "30", "--seed", "3",
                         "--output", output]) == 4
        assert error_record(capsys, 4)["error"] == "NumericalFaultError"
        assert not os.path.exists(output)

    def write_checkpoint(self, tmp_path):
        rng = np.random.default_rng(21)
        data_path = str(tmp_path / "cats.csv")
        otio.write_sample_csv(data_path, rng.integers(0, 2, size=(6, 1)))
        ckpt = str(tmp_path / "state.ckpt")
        assert cli.main(["vb", "--input", data_path, "--max-rounds", "2",
                         "--output", ckpt]) == 0
        return data_path, ckpt

    def resume(self, tmp_path, data_path, ckpt):
        return cli.main(["vb", "--input", data_path, "--resume", ckpt,
                         "--output", str(tmp_path / "resumed.ckpt")])

    @pytest.mark.parametrize("drop", ["prior_root_0", "elbo_trace"])
    def test_checkpoint_with_a_missing_record(self, tmp_path, capsys, drop):
        data_path, ckpt = self.write_checkpoint(tmp_path)
        lines = open(ckpt).read().split("\n")
        write(ckpt, "\n".join(l for l in lines if not l.startswith(drop)))
        assert self.resume(tmp_path, data_path, ckpt) == 3
        assert drop in error_record(capsys, 3)["message"]

    def test_checkpoint_with_an_empty_elbo_trace(self, tmp_path, capsys):
        data_path, ckpt = self.write_checkpoint(tmp_path)
        lines = open(ckpt).read().split("\n")
        write(ckpt, "\n".join("elbo_trace vector 0" if l.startswith("elbo_trace") else l
                              for l in lines))
        assert self.resume(tmp_path, data_path, ckpt) == 3
        assert "elbo_trace" in error_record(capsys, 3)["message"]

    def test_checkpoint_of_other_dimensions_than_the_input(self, tmp_path, capsys):
        data_path, ckpt = self.write_checkpoint(tmp_path)
        wide = str(tmp_path / "wide.csv")
        otio.write_sample_csv(wide, np.random.default_rng(23).integers(0, 2, size=(6, 2)))
        assert self.resume(tmp_path, wide, ckpt) == 3
        assert "attribute columns" in error_record(capsys, 3)["message"]

    @pytest.mark.parametrize("key, edit", [
        # a 1 x 4 table for a 2-letter alphabet
        ("cond_counts_0", lambda parts: parts[:2] + ["1", "4"] + parts[4:]),
        ("cond_counts_0", lambda parts: parts[:4] + ["-0x1p+0"] + parts[5:]),
        ("root_counts_0", lambda parts: parts[:3] + ["-0x1p+0"] + parts[4:]),
    ])
    def test_checkpoint_with_bad_counts(self, tmp_path, capsys, key, edit):
        data_path, ckpt = self.write_checkpoint(tmp_path)
        lines = open(ckpt).read().split("\n")
        write(ckpt, "\n".join(" ".join(edit(l.split())) if l.startswith(key) else l
                              for l in lines))
        assert self.resume(tmp_path, data_path, ckpt) == 3
        assert key in error_record(capsys, 3)["message"]

    def test_error_vs_labels_with_a_non_numeric_count(self, tmp_path, capsys):
        bench = str(tmp_path / "bench.tsv")
        write(bench, "labeled_count\ttree_accuracy\n18\t0.8\nabc\t0.7\n")
        assert cli.main(["plotdata", "--kind", "error-vs-labels", "--input", bench,
                         "--output", str(tmp_path / "err.tsv")]) == 3
        assert "row 2" in error_record(capsys, 3)["message"]

    EDGE_LISTS = [
        ("child,parent\n0,root\n1,x\n2,0\n", 3),
        ("child,parent\n0,root\n1,0,2\n2,0\n", 3),
        ("child,parent\n0,root\n2,0\n3,0\n", 3),  # node 1 missing
        ("child,parent\n0,root\n1,0\n1,0\n", 3),  # node 1 twice, node 2 missing
        ("child,parent\n0,1\n1,2\n2,0\n", 3),  # no root
        ("child,parent\n0,root\n1,2\n2,1\n", 3),  # a cycle
        ("child,parent\n0,root\n1,0\n2,0\n", 2),  # no z column
        ("child,parent\n0,root\n1,0\n", 3),  # fewer nodes than rows
        ("child,parent\n0,root\n1,0\n2,0\n3,0\n", 3),  # more nodes than rows
    ]

    # each case is named by its edge list, which is unique
    @pytest.mark.parametrize("edges, columns", EDGE_LISTS,
                             ids=[edges for edges, _ in EDGE_LISTS])
    def test_malformed_edge_list(self, tmp_path, capsys, edges, columns):
        data_path = str(tmp_path / "d.csv")
        otio.write_sample_csv(data_path,
                              np.random.default_rng(22).normal(size=(3, columns)))
        edges_path, out = str(tmp_path / "t.edges"), tmp_path / "p.tsv"
        write(edges_path, edges)
        assert cli.main(["plotdata", "--kind", "scatter3d", "--input", data_path,
                         "--edges", edges_path, "--output", str(out)]) == 3
        assert error_record(capsys, 3)["error"] == "DataError"
        assert not out.exists()

    def test_unreadable_model_path(self, tmp_path, capsys):
        assert cli.main(["sample", "--model", str(tmp_path / "none.model"),
                         "--rows", "3", "--seed", "1",
                         "--output", str(tmp_path / "x.csv")]) == 3
        assert error_record(capsys, 3)["error"] == "DataError"
