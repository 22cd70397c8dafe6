"""Command surface, ingestion, baselines, persistence, reproducibility."""

import json
import os

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


class TestPca:
    def test_projects_to_top_components(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(200, 2)) @ np.array([[3.0, 0.0], [0.0, 1.0]])
        lifted = np.hstack([base, 1e-3 * rng.normal(size=(200, 5))])
        projected = cli.pca_project(lifted, components=2)
        assert projected.shape == (200, 2)
        assert projected[:, 0].std() > projected[:, 1].std()


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

    def test_matrix_tsv_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        matrix = rng.normal(size=(4, 4))
        path = str(tmp_path / "m.tsv")
        otio.write_matrix_tsv(path, matrix)
        assert np.array_equal(otio.read_matrix_tsv(path), matrix)
        with open(path) as handle:
            assert handle.readline().strip() == "# outtree-matrix T=4"

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

    def test_data_error_exit_code(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.csv")
        write(bad, "a,b\n1,2\n3\n")
        code = cli.main(["fit", "--input", bad,
                         "--output", str(tmp_path / "m.model")])
        assert code == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "DataError"


class TestSemisupBenchmark:
    def test_rows_carry_seed_and_config(self):
        rows = cli.run_semisup_benchmark(count=30, seeds=2, seed=5, restarts=2,
                                         max_sweeps=15)
        assert len(rows) == 2
        for row in rows:
            assert row["config"] == rows[0]["config"]
            assert 0.0 <= row["tree_accuracy"] <= 1.0
            assert row["labeled_count"] == 9


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

    @pytest.mark.parametrize("edges", [
        "child,parent\n0,root\n1,x\n2,0\n",
        "child,parent\n0,root\n1,0,2\n2,0\n",
        "child,parent\n0,root\n2,0\n3,0\n",  # node 1 missing
        "child,parent\n0,root\n1,0\n1,0\n",  # node 1 twice, node 2 missing
        "child,parent\n0,1\n1,2\n2,0\n",  # no root
        "child,parent\n0,root\n1,2\n2,1\n",  # a cycle
    ])
    def test_malformed_edge_list(self, tmp_path, capsys, edges):
        data_path = str(tmp_path / "d.csv")
        otio.write_sample_csv(data_path, np.random.default_rng(22).normal(size=(3, 3)))
        edges_path = str(tmp_path / "t.edges")
        write(edges_path, edges)
        assert cli.main(["plotdata", "--kind", "scatter3d", "--input", data_path,
                         "--edges", edges_path, "--output", str(tmp_path / "p.tsv")]) == 3
        assert error_record(capsys, 3)["error"] == "DataError"

    def test_unreadable_model_path(self, tmp_path, capsys):
        assert cli.main(["sample", "--model", str(tmp_path / "none.model"),
                         "--rows", "3", "--seed", "1",
                         "--output", str(tmp_path / "x.csv")]) == 3
        assert error_record(capsys, 3)["error"] == "DataError"
