"""Acceptance criteria: every release-gating check at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``); a failed
assertion marks the criterion failed.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.stats import chi2

from outtree import cli, likelihood, models, sampler, semisup, treemath, vb


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d} ({name}): {status} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def random_instance(size, rng):
    entries = rng.uniform(0.05, 1.0, (size, size))
    np.fill_diagonal(entries, 0.0)
    return (treemath.WeightMatrix(entries=entries),
            treemath.RootWeights(values=rng.uniform(0.1, 1.0, size)))


def test_criterion_01_determinant_vs_enumeration():
    started = time.monotonic()
    worst = 0.0
    for size in (2, 3, 4, 5):
        rng = np.random.default_rng(size)
        for _ in range(20):
            beta, roots = random_instance(size, rng)
            got = treemath.log_partition(beta, roots)
            got_per_root = treemath.log_partition_per_root(beta)
            want = treemath.brute_force_log_partition(beta, roots)
            rel = abs(np.exp(got.log_z) - np.exp(want.log_z)) / np.exp(want.log_z)
            worst = max(worst, rel)
            finite = np.isfinite(want.per_root_log_z)
            per_rel = np.abs(np.exp(got_per_root[finite])
                             - np.exp(want.per_root_log_z[finite])) \
                / np.exp(want.per_root_log_z[finite])
            worst = max(worst, float(per_rel.max()))
    elapsed = time.monotonic() - started
    report(1, "determinant vs enumeration",
           worst < 1e-9 and elapsed < 10.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_counting_law():
    worst = 0.0
    for size in range(2, 8):
        beta = treemath.WeightMatrix(entries=np.ones((size, size)) - np.eye(size))
        roots = treemath.RootWeights(values=np.ones(size))
        lp = treemath.log_partition(beta, roots)
        worst = max(worst, abs(np.exp(lp.log_z) - size ** (size - 1))
                    / size ** (size - 1))
        per = np.exp(treemath.log_partition_per_root(beta))
        worst = max(worst, float(np.abs(per - size ** (size - 2)).max())
                    / size ** (size - 2))
    report(2, "counting law", worst < 1e-9, f"worst rel err {worst:.2e}")


def test_criterion_03_iid_degeneracy():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(8, 2)) * rng.uniform(0.5, 2.0)
        model = models.gaussian_init_iid(data)
        worst = max(worst, abs(likelihood.tdid_log_likelihood(data, model)
                               - likelihood.iid_log_likelihood(data, model)))
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        data = rng.integers(0, 3, size=(7, 2))
        model = models.tabular_init_iid(data, [3, 3])
        worst = max(worst, abs(likelihood.tdid_log_likelihood(data, model)
                               - likelihood.iid_log_likelihood(data, model)))
    report(3, "iid degeneracy", worst < 1e-9, f"worst abs err {worst:.2e}")


def test_criterion_04_likelihood_normalization():
    model = models.TabularModel([[0.35, 0.65]],
                                [np.array([[0.8, 0.3], [0.2, 0.7]])])
    total = sum(np.exp(likelihood.tdid_log_likelihood(
        np.array(bits, dtype=np.int64).reshape(3, 1), model))
        for bits in itertools.product([0, 1], repeat=3))
    err_joint = abs(total - 1.0)
    # the conditional ratio score integrates to one where the conditional
    # degenerates to the marginal (see the iid-degeneracy criterion)
    errs_cond = []
    for train in (np.array([[0], [1]]), np.array([[0], [1], [1]])):
        degenerate = models.tabular_init_iid(train, [2])
        total = sum(np.exp(likelihood.test_log_likelihood(
            train, np.array([[v]]), degenerate).score) for v in (0, 1))
        errs_cond.append(abs(total - 1.0))
    worst = max([err_joint] + errs_cond)
    report(4, "likelihood normalization", worst < 1e-9,
           f"joint err {err_joint:.2e}, conditional errs "
           + ", ".join(f"{e:.2e}" for e in errs_cond))


def _fd_check(data, model, rtol=1e-4, step=1e-5):
    analytic = likelihood.grad_tdid(data, model)
    vec = model.param_vector()
    worst = 0.0
    for i in range(len(vec)):
        bump = np.zeros_like(vec)
        bump[i] = step
        hi = likelihood.tdid_log_likelihood(data, model.with_params(vec + bump))
        lo = likelihood.tdid_log_likelihood(data, model.with_params(vec - bump))
        numeric = (hi - lo) / (2 * step)
        worst = max(worst, abs(analytic[i] - numeric) / (1.0 + abs(numeric)))
    return worst


def test_criterion_05_gradient_correctness():
    started = time.monotonic()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(10, 2))
        model = models.gaussian_init_iid(data)
        jitter = 0.05 * rng.normal(size=len(model.param_vector()))
        worst = max(worst, _fd_check(data, model.with_params(
            model.param_vector() + jitter)))
    for seed in range(5):
        rng = np.random.default_rng(50 + seed)
        data = rng.integers(0, 3, size=(8, 1))
        model = models.tabular_init_iid(data, [3])
        jitter = 0.1 * rng.normal(size=len(model.param_vector()))
        worst = max(worst, _fd_check(data, model.with_params(
            model.param_vector() + jitter)))
    for seed in range(5):
        rng = np.random.default_rng(90 + seed)
        data = rng.normal(size=(8, 2))
        model = models.kernel_init_iid(data)
        jitter = 0.05 * rng.normal(size=len(model.param_vector()))
        worst = max(worst, _fd_check(data, model.with_params(
            model.param_vector() + jitter)))
    elapsed = time.monotonic() - started
    report(5, "gradient correctness",
           worst < 1e-4 and elapsed < 30.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_exchangeability():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(9, 2))
    chol = np.tril(rng.normal(size=(2, 2)) * 0.2) + np.eye(2)
    model = models.GaussianModel(mu_c=rng.normal(size=2) * 0.3,
                                 mu_pi=rng.normal(size=2),
                                 sigma_c_given_pi=rng.normal(size=(2, 2)) * 0.3,
                                 sigma_cc=chol @ chol.T, sigma_pipi=np.eye(2))
    base = likelihood.tdid_log_likelihood(data, model)
    worst = max(abs(likelihood.tdid_log_likelihood(data[rng.permutation(9)], model)
                    - base) for _ in range(20))
    report(6, "exchangeability", worst < 1e-10, f"worst abs err {worst:.2e}")


def test_criterion_07_incremental_exactness():
    rng = np.random.default_rng(7)
    model = models.GaussianModel(mu_c=np.zeros(2), mu_pi=np.zeros(2),
                                 sigma_c_given_pi=0.5 * np.eye(2),
                                 sigma_cc=np.eye(2), sigma_pipi=np.eye(2))
    X = rng.normal(size=(20, 2)) * 0.8
    labels = rng.integers(0, 3, 20)
    state = semisup.LabelInference(
        X, labels, model, semisup.LabelModel(alpha=0.8, n_classes=3),
        observed=np.zeros(20, dtype=bool))
    worst = 0.0
    for _ in range(100):
        node = int(rng.integers(20))
        new = int((state.labels[node] + 1 + rng.integers(2)) % 3)
        before = state.recomputed_log_partition()
        delta = state.flip_delta(node, new)
        state.commit(node, new)
        after = state.recomputed_log_partition()
        worst = max(worst, abs(delta - (after - before)))
    report(7, "incremental exactness", worst < 1e-8, f"worst abs err {worst:.2e}")


def test_criterion_08_generative_vs_analytic():
    model = models.TabularModel([[0.4, 0.6]],
                                [np.array([[0.85, 0.3], [0.15, 0.7]])])
    draws = 200_000
    counts = {}
    for draw in sampler.sample_datasets(model, 3, draws, np.random.default_rng(8)):
        key = tuple(draw.data.ravel())
        counts[key] = counts.get(key, 0) + 1
    worst_sigma = 0.0
    for bits in itertools.product([0, 1], repeat=3):
        p = np.exp(likelihood.tdid_log_likelihood(
            np.array(bits, dtype=np.int64).reshape(3, 1), model))
        freq = counts.get(bits, 0) / draws
        sigma = np.sqrt(p * (1 - p) / draws)
        worst_sigma = max(worst_sigma, abs(freq - p) / sigma)
    tree_draws = 90_000
    rng = np.random.default_rng(88)
    tree_counts = {}
    for _ in range(tree_draws):
        tree = sampler.sample_uniform_out_tree(3, rng)
        key = (tree.root, tuple(tree.parent))
        tree_counts[key] = tree_counts.get(key, 0) + 1
    expected = tree_draws / 9
    statistic = sum((c - expected) ** 2 / expected for c in tree_counts.values())
    p_value = chi2.sf(statistic, df=8)
    ok = worst_sigma < 3.0 and len(tree_counts) == 9 and p_value > 0.001
    report(8, "generative vs analytic", ok,
           f"worst cell {worst_sigma:.2f} sigma, chi2 p {p_value:.3f}")


def test_criterion_09_vb_soundness():
    worst_drop = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, size=(6, 1))
        prior = vb.DirichletPrior(root=(rng.uniform(0.5, 3.0, 2),),
                                  cond=(rng.uniform(0.5, 3.0, (2, 2)),))
        state = vb.vb_fit(data, prior, max_rounds=200, tol=0.0)
        diffs = np.diff(state.elbo_trace)
        if len(diffs):
            worst_drop = max(worst_drop, float(-diffs.min()))
    worst_gap = -np.inf
    for size in (2, 3, 4):
        for seed in range(5):
            rng = np.random.default_rng(200 + 10 * size + seed)
            data = rng.integers(0, 2, size=(size, 1))
            prior = vb.DirichletPrior(root=(rng.uniform(0.5, 3.0, 2),),
                                      cond=(rng.uniform(0.5, 3.0, (2, 2)),))
            state = vb.vb_fit(data, prior, max_rounds=200)
            exact = vb.exact_log_evidence(data, prior)
            worst_gap = max(worst_gap, float(state.elbo - exact))
    # the two q_root routes: update_q_root raises beyond 1e-9 disagreement
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        data = rng.integers(0, 3, size=(4, 2))
        counts = [rng.uniform(0.3, 5.0, (3, 3)) for _ in range(2)]
        beta = vb.expected_log_weights(data, counts)
        vb.update_q_root(beta, rng.normal(size=4), *vb._per_root_quantities(beta))
    ok = worst_drop <= 1e-10 and worst_gap <= 1e-9
    report(9, "vb soundness", ok,
           f"worst ELBO drop {worst_drop:.2e}, worst bound violation {worst_gap:.2e}")


def test_criterion_10_spiral_ordering():
    started = time.monotonic()
    rows = cli.run_spiral_benchmark(count=600, folds=10, seed=10)
    elapsed = time.monotonic() - started
    tdid = np.array([row["tdid"] for row in rows])
    details = []
    ok = True
    for name in ("gmm_1", "parzen"):
        other = np.array([row[name] for row in rows])
        diffs = tdid - other
        stderr = diffs.std(ddof=1) / np.sqrt(len(diffs))
        margin = diffs.mean() / (2 * stderr) if stderr > 0 else np.inf
        details.append(f"vs {name}: mean gap {diffs.mean():.1f} "
                       f"({margin:.1f}x the 2-stderr bar)")
        ok = ok and diffs.mean() > 2 * stderr
    ok = ok and elapsed < 300.0
    report(10, "spiral ordering", ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_11_semisupervised_advantage():
    rows = cli.run_semisup_benchmark(count=60, n_classes=2, alpha_true=0.9,
                                     labeled_fracs=(0.3,), seeds=10, seed=11)
    wins = sum(row["tree_accuracy"] > row["majority_accuracy"] for row in rows)
    report(11, "semi-supervised advantage", wins >= 8, f"{wins}/10 seeds")


def test_criterion_12_scale_performance():
    rng = np.random.default_rng(12)
    data = rng.normal(size=(500, 3))
    model = models.gaussian_init_iid(data)
    model = model.with_params(model.param_vector()
                              + 0.01 * rng.normal(size=len(model.param_vector())))
    started = time.monotonic()
    beta, roots = models.build_beta(data, model)
    treemath.log_partition(beta, roots)
    partition_time = time.monotonic() - started

    fit_data = cli.gen_spiral(cli.SpiralSpec(count=300), 121)
    fit_data = (fit_data - fit_data.mean(axis=0)) / fit_data.std(axis=0, ddof=1)
    started = time.monotonic()
    report_fit = likelihood.fit_ml(fit_data, models.gaussian_init_iid(fit_data),
                                   max_iters=50, grad_tol=1e-12)
    fit_time = time.monotonic() - started
    ok = partition_time < 5.0 and fit_time < 120.0
    report(12, "scale and performance", ok,
           f"log-partition T=500 {partition_time:.2f}s, "
           f"fit 50 iters T=300 {fit_time:.1f}s "
           f"({len(report_fit.iterations)} accepted)")
