"""Out-tree likelihood: degeneracy to iid, normalization, gradients, fitting."""

import itertools
import tracemalloc

import numpy as np
import pytest

from outtree import likelihood as lk
from outtree import cli, models, sampler, treemath


def degenerate_gaussian(rng, d=2):
    mean = rng.normal(size=d)
    chol = np.tril(rng.normal(size=(d, d)) * 0.3) + np.eye(d)
    cov = chol @ chol.T
    return models.GaussianModel(mu_c=mean, mu_pi=mean,
                                sigma_c_given_pi=np.zeros((d, d)),
                                sigma_cc=cov, sigma_pipi=cov)


def general_gaussian(rng, d=2):
    a = rng.normal(size=(d, d)) * 0.3
    chol = np.tril(rng.normal(size=(d, d)) * 0.2) + np.eye(d)
    chol2 = np.tril(rng.normal(size=(d, d)) * 0.2) + np.eye(d)
    return models.GaussianModel(mu_c=rng.normal(size=d) * 0.5, mu_pi=rng.normal(size=d),
                                sigma_c_given_pi=a, sigma_cc=chol @ chol.T,
                                sigma_pipi=chol2 @ chol2.T)


def binary_tabular(m0=0.3, stay0=0.8, stay1=0.75):
    return models.TabularModel([[m0, 1 - m0]],
                               [np.array([[stay0, 1 - stay1], [1 - stay0, stay1]])])


def all_binary_datasets(rows):
    return [np.array(bits, dtype=np.int64).reshape(rows, 1)
            for bits in itertools.product([0, 1], repeat=rows)]


class TestDegeneracy:
    @pytest.mark.parametrize("seed", range(5))
    def test_gaussian_theorem_one(self, seed):
        rng = np.random.default_rng(seed)
        model = degenerate_gaussian(rng)
        data = rng.normal(size=(8, 2))
        assert abs(lk.tdid_log_likelihood(data, model)
                   - lk.iid_log_likelihood(data, model)) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_tabular_theorem_one(self, seed):
        rng = np.random.default_rng(100 + seed)
        data = rng.integers(0, 2, size=(7, 1))
        model = models.tabular_init_iid(data, [2])
        assert abs(lk.tdid_log_likelihood(data, model)
                   - lk.iid_log_likelihood(data, model)) < 1e-9

    def test_iid_at_gaussian_seed_model(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(10, 3))
        model = models.gaussian_init_iid(data)
        assert abs(lk.tdid_log_likelihood(data, model)
                   - lk.iid_log_likelihood(data, model)) < 1e-9


class TestIidScore:
    def test_single_row(self):
        rng = np.random.default_rng(2)
        model = general_gaussian(rng)
        row = rng.normal(size=(1, 2))
        assert np.isclose(lk.iid_log_likelihood(row, model), model.log_marginal(row[0]))

    def test_concatenation_additivity(self):
        rng = np.random.default_rng(3)
        model = general_gaussian(rng)
        a, b = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
        assert np.isclose(lk.iid_log_likelihood(np.vstack([a, b]), model),
                          lk.iid_log_likelihood(a, model) + lk.iid_log_likelihood(b, model))


class TestExchangeability:
    def test_permutations_leave_likelihood_fixed(self):
        rng = np.random.default_rng(4)
        model = general_gaussian(rng)
        data = rng.normal(size=(9, 2))
        base = lk.tdid_log_likelihood(data, model)
        for _ in range(20):
            perm = rng.permutation(9)
            assert abs(lk.tdid_log_likelihood(data[perm], model) - base) < 1e-10


class TestNormalization:
    def test_full_sample_space_sums_to_one(self):
        model = binary_tabular()
        total = sum(np.exp(lk.tdid_log_likelihood(data, model))
                    for data in all_binary_datasets(3))
        assert abs(total - 1.0) < 1e-9

    @pytest.mark.parametrize("rows", [2, 3])
    def test_test_score_sums_to_one_when_conditional_degenerates(self, rows):
        # the ratio score divides partition functions taken at two different
        # sample sizes; it integrates to one exactly when the conditional
        # collapses to the marginal (iid regime), which is where the claim
        # is exercised
        train = np.array([[0], [1], [1]])[:rows]
        model = models.tabular_init_iid(train, [2])
        total = sum(np.exp(lk.test_log_likelihood(train, np.array([[v]]), model).score)
                    for v in (0, 1))
        assert abs(total - 1.0) < 1e-9

    def test_test_score_is_not_normalized_at_general_models(self):
        # documented behavior: with a genuine parent-child coupling the
        # likelihood is not consistent across sample sizes, so the ratio
        # score does not integrate to one over test completions (value
        # frozen from the enumeration-checked partition functions)
        model = binary_tabular()
        train = np.array([[0], [1]])
        total = sum(np.exp(lk.test_log_likelihood(train, np.array([[v]]), model).score)
                    for v in (0, 1))
        assert np.isclose(total, 1.1751773049645382, atol=1e-12)


class TestTestScore:
    def test_components_reassemble(self):
        rng = np.random.default_rng(5)
        model = general_gaussian(rng)
        score = lk.test_log_likelihood(rng.normal(size=(6, 2)),
                                       rng.normal(size=(3, 2)), model)
        rebuilt = score.log_z_union - score.log_z_train + score.correction
        assert abs(rebuilt - score.score) < 1e-12

    def test_degenerate_model_gives_iid_test_score(self):
        rng = np.random.default_rng(6)
        model = degenerate_gaussian(rng)
        train, test = rng.normal(size=(5, 2)), rng.normal(size=(4, 2))
        want = lk.iid_log_likelihood(test, model)
        assert abs(lk.test_log_likelihood(train, test, model).score - want) < 1e-9

    def test_permuting_test_rows_is_immaterial(self):
        rng = np.random.default_rng(7)
        model = general_gaussian(rng)
        train, test = rng.normal(size=(5, 2)), rng.normal(size=(4, 2))
        base = lk.test_log_likelihood(train, test, model).score
        for _ in range(5):
            perm = rng.permutation(4)
            assert abs(lk.test_log_likelihood(train, test[perm], model).score - base) < 1e-10

    def test_single_train_row(self):
        rng = np.random.default_rng(8)
        model = general_gaussian(rng)
        score = lk.test_log_likelihood(rng.normal(size=(1, 2)),
                                       rng.normal(size=(2, 2)), model)
        assert np.isfinite(score.score)


def fd_grad(data, model, step=1e-5):
    vec = model.param_vector()
    out = np.empty_like(vec)
    for i in range(len(vec)):
        bump = np.zeros_like(vec)
        bump[i] = step
        hi = lk.tdid_log_likelihood(data, model.with_params(vec + bump))
        lo = lk.tdid_log_likelihood(data, model.with_params(vec - bump))
        out[i] = (hi - lo) / (2 * step)
    return out


class TestGradient:
    @pytest.mark.parametrize("seed", range(3))
    def test_gaussian_matches_finite_differences(self, seed):
        rng = np.random.default_rng(10 + seed)
        model = general_gaussian(rng)
        data = rng.normal(size=(10, 2))
        analytic = lk.grad_tdid(data, model)
        numeric = fd_grad(data, model)
        assert np.abs(analytic - numeric).max() < 1e-4 * (np.abs(numeric).max() + 1.0)

    def test_tabular_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        data = rng.integers(0, 3, size=(8, 1))
        model = models.tabular_init_iid(data, [3])
        analytic = lk.grad_tdid(data, model)
        numeric = fd_grad(data, model)
        assert np.abs(analytic - numeric).max() < 1e-4 * (np.abs(numeric).max() + 1.0)

    def test_kernel_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(8, 2))
        model = models.kernel_init_iid(data)
        model = model.with_params(model.param_vector()
                                  + 0.05 * rng.normal(size=len(model.param_vector())))
        analytic = lk.grad_tdid(data, model)
        numeric = fd_grad(data, model)
        assert np.abs(analytic - numeric).max() < 1e-4 * (np.abs(numeric).max() + 1.0)

    def test_root_mean_gradient_vanishes_at_centered_seed(self):
        rng = np.random.default_rng(22)
        data = rng.normal(size=(9, 2))
        data = data - data.mean(axis=0)  # sample mean equals mu_pi = 0
        model = models.gaussian_init_iid(data)
        grad = lk.grad_tdid(data, model)
        d = 2
        assert np.abs(grad[d:2 * d]).max() < 1e-8

    def test_unused_alphabet_slot_has_zero_gradient(self):
        # parent value 2 never occurs, so its conditional column is untouched
        data = np.array([[0], [1], [0], [1], [1]])
        model = models.tabular_init_iid(data, [3])
        grad = lk.grad_tdid(data, model)
        # layout per dim: root logits (k-1), then (k-1) per conditional column
        unused_column = grad[2 + 2 * 2:2 + 3 * 2]
        assert np.array_equal(unused_column, np.zeros(2))

    def test_gradient_memory_is_quadratic_in_rows(self):
        # a T=200 RBF kernel model has 607 parameters; a P x T x T tensor
        # of log-weight derivatives alone would take 607 * T^2 * 8 bytes
        rng = np.random.default_rng(23)
        size = 200
        data = rng.normal(size=(size, 3))
        model = models.kernel_init_iid(data)
        model = model.with_params(model.param_vector()
                                  + 0.01 * rng.normal(size=len(model.param_vector())))
        assert len(model.param_vector()) > 600
        lk.grad_tdid(data, model)
        tracemalloc.start()
        try:
            lk.grad_tdid(data, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * size * size * 8


class TestFit:
    def test_one_weight_build_per_objective_evaluation(self, monkeypatch):
        # the gradient reuses the accepted trial's weights
        calls = {"build_beta": 0, "objective": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lk, "build_beta", counted("build_beta", lk.build_beta))
        monkeypatch.setattr(lk, "_objective", counted("objective", lk._objective))
        rng = np.random.default_rng(25)
        data = rng.normal(size=(12, 2))
        report = lk.fit_ml(data, models.gaussian_init_iid(data), max_iters=5,
                           grad_tol=1e-12)
        assert len(report.iterations) == 5
        assert calls["build_beta"] == calls["objective"]

    def test_one_bordered_matrix_per_objective_evaluation(self, monkeypatch,
                                                          bordered_counts):
        # the gradient reads the accepted trial's record instead of building
        # the matrix again: one set-up and one determinant per evaluation,
        # one (T+1)-sized inverse per gradient
        evaluations = []
        objective = lk._objective

        def counted(*args):
            evaluations.append(1)
            return objective(*args)

        monkeypatch.setattr(lk, "_objective", counted)
        rng = np.random.default_rng(26)
        data = rng.normal(size=(12, 2))
        report = lk.fit_ml(data, models.gaussian_init_iid(data), max_iters=5,
                           grad_tol=1e-12)
        assert len(report.iterations) == 5
        assert report.evaluations == len(evaluations)
        assert bordered_counts["set-up"] == len(evaluations)
        assert bordered_counts["slogdet", 13] == len(evaluations)
        assert bordered_counts["inv", 13] == 5

    def test_gradient_inverts_by_blocks(self, bordered_counts):
        # at T + 1 = 301 each gradient's inverse is assembled from LAPACK
        # inverses of blocks no larger than the leaf; none of the whole matrix
        data = cli.standardize(cli.gen_spiral(cli.SpiralSpec(count=300), 83117))[0]
        report = lk.fit_ml(data, models.gaussian_init_iid(data), max_iters=3,
                           grad_tol=1e-12)
        assert len(report.iterations) == 3
        inverted = [key[1] for key in bordered_counts if key[0] == "inv"]
        assert inverted and max(inverted) <= treemath._BLOCK_LEAF
        assert bordered_counts["slogdet", 301] == report.evaluations

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_most_line_searches_accept_their_first_trial(self, seed):
        # each line search starts at the step that repeats the last
        # iteration's first-order gain; starting at 4x the last step and
        # halving back took 94-95 evaluations here
        data = cli.standardize(cli.gen_spiral(cli.SpiralSpec(count=60), seed))[0]
        report = lk.fit_ml(data, models.gaussian_init_iid(data), max_iters=30,
                           grad_tol=1e-12)
        assert len(report.iterations) == 30
        assert report.evaluations <= 1.5 * len(report.iterations) + 1

    def test_holdout_score_reuses_the_training_log_partition(self, monkeypatch,
                                                              bordered_counts):
        # a holdout score sets up the union once; its training ln Z is the
        # accepted record's
        evaluations = []
        objective = lk._objective

        def counted(*args):
            evaluations.append(1)
            return objective(*args)

        monkeypatch.setattr(lk, "_objective", counted)
        rng = np.random.default_rng(34)
        truth = general_gaussian(rng)
        train = sampler.sample_dataset(truth, 30, 5).data
        holdout = sampler.sample_dataset(truth, 10, 6).data
        report = lk.fit_ml(train, models.gaussian_init_iid(train), max_iters=5,
                           grad_tol=1e-12, holdout=holdout, patience=10)
        assert len(report.iterations) == 5
        assert bordered_counts["slogdet", 41] == 1 + len(report.iterations)
        assert bordered_counts["slogdet", 31] == len(evaluations)
        assert bordered_counts["set-up"] == len(evaluations) + 1 + len(report.iterations)

    def test_conditional_score_is_the_test_log_likelihood(self):
        rng = np.random.default_rng(35)
        truth = general_gaussian(rng)
        train = sampler.sample_dataset(truth, 12, 7).data
        test = sampler.sample_dataset(truth, 5, 8).data
        model = lk.fit_ml(train, models.gaussian_init_iid(train), max_iters=3).model
        _, record = lk._objective(train, model, model.param_vector())
        helper = lk._conditional_score(train, test, model, record.log_z)
        assert helper == lk.test_log_likelihood(train, test, model)

    def test_already_converged_input(self):
        rng = np.random.default_rng(30)
        data = rng.normal(size=(6, 2))
        model = models.gaussian_init_iid(data)
        report = lk.fit_ml(data, model, grad_tol=1e9)
        assert report.iterations == []
        assert report.final_objective == report.initial_objective
        assert report.reason == "gradient_tolerance"

    def test_trace_is_nondecreasing_and_improves(self):
        rng = np.random.default_rng(31)
        draw = sampler.sample_dataset(general_gaussian(rng), 25, 123)
        model = models.gaussian_init_iid(draw.data)
        report = lk.fit_ml(draw.data, model, max_iters=40)
        values = [report.initial_objective] + [it.objective for it in report.iterations]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert report.final_objective > report.initial_objective
        assert abs(report.initial_objective
                   - lk.iid_log_likelihood(draw.data, model)) < 1e-9

    def test_tabular_fit_on_tree_data_ascends_and_moves_tables(self):
        # data from a known sticky tabular model; the fit must strictly
        # improve the exchangeable objective over the iid seed (parameter
        # recovery in total variation is NOT asserted: a single draw of the
        # exchangeable model underdetermines the tables, and the maximizer
        # provably departs from the generating tables on such draws)
        stay = 0.9
        table = np.array([[stay, 1 - stay], [1 - stay, stay]])
        truth = models.TabularModel([[0.5, 0.5]] * 4, [table.copy() for _ in range(4)])
        draw = sampler.sample_dataset(truth, 200, 77)
        seed_model = models.tabular_init_iid(draw.data, [2] * 4)
        report = lk.fit_ml(draw.data, seed_model, max_iters=40, grad_tol=1e-4)
        assert report.final_objective > report.initial_objective + 0.5
        moved = max(np.abs(report.model.cond_tables[d] - seed_model.cond_tables[d]).max()
                    for d in range(4))
        assert moved > 0.05

    def test_early_stop_returns_best_holdout_model(self):
        rng = np.random.default_rng(33)
        truth = general_gaussian(rng)
        train = sampler.sample_dataset(truth, 30, 5).data
        holdout = sampler.sample_dataset(truth, 10, 6).data
        report = lk.fit_ml(train, models.gaussian_init_iid(train), max_iters=30,
                           holdout=holdout, patience=3)
        assert report.reason in ("early_stop", "gradient_tolerance", "max_iterations",
                                 "line_search_failure")
        assert report.final_objective >= report.initial_objective
