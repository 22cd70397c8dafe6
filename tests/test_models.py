"""Model families: densities, gradients, parameter round-trips."""

import itertools

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from outtree import models, semisup, treemath, vb
from outtree.errors import DataError


def random_gaussian(rng, d=2):
    a = rng.normal(size=(d, d)) * 0.4
    chol = np.tril(rng.normal(size=(d, d)) * 0.3) + np.eye(d)
    chol2 = np.tril(rng.normal(size=(d, d)) * 0.3) + np.eye(d)
    return models.GaussianModel(mu_c=rng.normal(size=d), mu_pi=rng.normal(size=d),
                                sigma_c_given_pi=a, sigma_cc=chol @ chol.T,
                                sigma_pipi=chol2 @ chol2.T)


def random_tabular(rng, dims=1, k=3):
    root, cond = [], []
    for _ in range(dims):
        m = rng.uniform(0.2, 1.0, k)
        root.append(m / m.sum())
        table = rng.uniform(0.2, 1.0, (k, k))
        cond.append(table / table.sum(axis=0))
    return models.TabularModel(root, cond)


def random_kernel(rng, size=6, d=2, kernel="rbf"):
    anchors = rng.normal(size=(size, d))
    return models.KernelModel(anchors=anchors, alpha=rng.normal(size=(size, d)) * 0.3,
                              mu=rng.normal(size=d), sigma=rng.uniform(0.5, 1.5, d),
                              kernel=kernel, gamma=1.3 if kernel == "rbf" else None)


def edge_gradient(model, data, u, v):
    """d log beta_uv / d theta: the VJP against a one-hot W at (u, v)."""
    size = len(data)
    onehot = np.zeros((size, size))
    onehot[u, v] = 1.0
    return model.grad_from_marginals(data, onehot, np.zeros(size))


def root_gradient(model, data, r):
    """d log p(x_r) / d theta: the VJP against a one-hot rho at r."""
    size = len(data)
    onehot = np.zeros(size)
    onehot[r] = 1.0
    return model.grad_from_marginals(data, np.zeros((size, size)), onehot)


def fd_gradient_check(model, data, rtol=1e-4, step=1e-5):
    """Central finite differences of every log-weight against the VJP.

    One-hot W and rho pick single entries out of the Jacobian, so every
    entry of the (P, T, T) and (P, T) central-difference tensors is
    compared, for T <= 6.
    """
    data = model.validate_data(data)
    size = len(data)
    assert size <= 6
    vec = model.param_vector()
    off = ~np.eye(size, dtype=bool)
    fd_beta = np.empty((len(vec), size, size))
    fd_roots = np.empty((len(vec), size))
    for i in range(len(vec)):
        bump = np.zeros_like(vec)
        bump[i] = step
        hi = model.with_params(vec + bump)
        lo = model.with_params(vec - bump)
        with np.errstate(invalid="ignore"):
            fd_beta[i] = (hi.log_conditional_matrix(data)
                          - lo.log_conditional_matrix(data)) / (2 * step)
        fd_roots[i] = (hi.log_marginal_vector(data) - lo.log_marginal_vector(data)) / (2 * step)
    d_beta = np.zeros_like(fd_beta)
    for u, v in zip(*np.nonzero(off)):
        d_beta[:, u, v] = edge_gradient(model, data, u, v)
    d_roots = np.stack([root_gradient(model, data, r) for r in range(size)], axis=1)
    for i in range(len(vec)):
        scale_beta = np.abs(fd_beta[i][off]).max() + 1.0
        assert np.abs(d_beta[i][off] - fd_beta[i][off]).max() < rtol * scale_beta, f"coord {i}"
        scale_roots = np.abs(fd_roots[i]).max() + 1.0
        assert np.abs(d_roots[i] - fd_roots[i]).max() < rtol * scale_roots, f"coord {i}"


class TestGaussianDensities:
    def test_standard_normal_mode(self):
        model = models.GaussianModel(mu_c=[0.0], mu_pi=[0.0], sigma_c_given_pi=[[0.0]],
                                     sigma_cc=[[1.0]], sigma_pipi=[[1.0]])
        assert np.isclose(model.log_marginal([0.0]), -0.5 * np.log(2 * np.pi))

    def test_marginal_at_mean(self):
        rng = np.random.default_rng(0)
        model = random_gaussian(rng)
        want = -0.5 * np.linalg.slogdet(2 * np.pi * model.sigma_pipi)[1]
        assert np.isclose(model.log_marginal(model.mu_pi), want)

    @pytest.mark.parametrize("seed", range(4))
    def test_marginal_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        model = random_gaussian(rng)
        x = rng.normal(size=2)
        want = multivariate_normal(mean=model.mu_pi, cov=model.sigma_pipi).logpdf(x)
        assert abs(model.log_marginal(x) - want) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_conditional_matches_scipy(self, seed):
        rng = np.random.default_rng(10 + seed)
        model = random_gaussian(rng)
        xc, xp = rng.normal(size=2), rng.normal(size=2)
        mean = model.sigma_c_given_pi @ xp + model.mu_c
        want = multivariate_normal(mean=mean, cov=model.sigma_cc).logpdf(xc)
        assert abs(model.log_conditional(xc, xp) - want) < 1e-10

    def test_zero_regression_ignores_parent(self):
        rng = np.random.default_rng(3)
        model = models.GaussianModel(mu_c=[0.3, -0.2], mu_pi=[0, 0],
                                     sigma_c_given_pi=np.zeros((2, 2)),
                                     sigma_cc=np.eye(2), sigma_pipi=np.eye(2))
        xc = rng.normal(size=2)
        vals = {model.log_conditional(xc, rng.normal(size=2)) for _ in range(5)}
        assert len(vals) == 1

    def test_identity_regression_parzen_peak(self):
        # A = I, mu_c = 0: conditioning a point on itself gives the density peak
        rng = np.random.default_rng(4)
        chol = np.tril(rng.normal(size=(2, 2)) * 0.3) + np.eye(2)
        sigma_cc = chol @ chol.T
        model = models.GaussianModel(mu_c=[0, 0], mu_pi=[0, 0],
                                     sigma_c_given_pi=np.eye(2),
                                     sigma_cc=sigma_cc, sigma_pipi=np.eye(2))
        x = rng.normal(size=2)
        want = -0.5 * np.linalg.slogdet(2 * np.pi * sigma_cc)[1]
        assert np.isclose(model.log_conditional(x, x), want)

    def test_rejects_non_finite_input(self):
        model = random_gaussian(np.random.default_rng(5))
        with pytest.raises(DataError):
            model.log_marginal([np.nan, 0.0])
        with pytest.raises(DataError):
            model.log_conditional([np.inf, 0.0], [0.0, 0.0])

    def test_conditional_normalizes_in_1d(self):
        model = models.GaussianModel(mu_c=[0.4], mu_pi=[0.0], sigma_c_given_pi=[[0.7]],
                                     sigma_cc=[[0.6]], sigma_pipi=[[1.0]])
        parent = np.array([1.3])
        mean = 0.7 * 1.3 + 0.4
        sd = np.sqrt(0.6)
        grid = np.linspace(mean - 10 * sd, mean + 10 * sd, 4001)
        density = np.exp([model.log_conditional([g], parent) for g in grid])
        assert abs(np.trapezoid(density, grid) - 1.0) < 1e-6


class TestGaussianInit:
    def test_degenerate_conditional_equals_marginal(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(12, 3))
        model = models.gaussian_init_iid(data)
        for u, v in [(0, 1), (5, 2), (7, 11)]:
            assert np.isclose(model.log_conditional(data[u], data[v]),
                              model.log_marginal(data[u]), atol=1e-12)

    def test_standardized_data_moments(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(40, 2))
        data = (data - data.mean(axis=0)) / data.std(axis=0, ddof=1)
        model = models.gaussian_init_iid(data, ridge=None)
        assert np.abs(model.mu_pi).max() < 1e-12
        assert np.abs(np.diag(model.sigma_pipi) - 1.0).max() < 1e-12

    def test_duplicate_points_ridge_or_reject(self):
        data = np.tile([[1.0, 2.0]], (4, 1))
        model = models.gaussian_init_iid(data)  # ridge floor keeps this PD
        assert np.all(np.diag(model.sigma_pipi) > 0)
        with pytest.raises(ValueError):
            models.gaussian_init_iid(data, ridge=None)

    def test_rejects_single_row(self):
        with pytest.raises(DataError):
            models.gaussian_init_iid(np.array([[1.0, 2.0]]))


class TestTabular:
    def test_conditional_columns_normalize(self):
        rng = np.random.default_rng(8)
        model = random_tabular(rng, dims=2, k=3)
        for parent in itertools.product(range(3), range(3)):
            total = sum(np.exp(model.log_conditional(np.array(child), np.array(parent)))
                        for child in itertools.product(range(3), range(3)))
            assert abs(total - 1.0) < 1e-10

    def test_beta_entries_come_from_tables(self):
        rng = np.random.default_rng(9)
        model = random_tabular(rng, dims=1, k=2)
        data = np.array([[0], [1], [0]])
        beta, _ = models.build_beta(data, model)
        table_logs = {x for x in model._log_cond[0].ravel()}
        off = ~np.eye(3, dtype=bool)
        assert set(np.round(beta.log_entries[off], 12)) <= set(np.round(list(table_logs), 12))

    def test_param_round_trip(self):
        rng = np.random.default_rng(10)
        model = random_tabular(rng, dims=2, k=3)
        back = model.with_params(model.param_vector())
        for d in range(2):
            assert np.allclose(back.root_tables[d], model.root_tables[d], atol=1e-12)
            assert np.allclose(back.cond_tables[d], model.cond_tables[d], atol=1e-12)

    def test_rejects_out_of_range_values(self):
        model = random_tabular(np.random.default_rng(11), k=2)
        with pytest.raises(DataError):
            model.validate_data(np.array([[0], [2]]))


class TestKernel:
    def test_zero_alpha_ignores_parent(self):
        rng = np.random.default_rng(12)
        model = models.KernelModel(anchors=rng.normal(size=(5, 2)),
                                   alpha=np.zeros((5, 2)), mu=[0.1, -0.4],
                                   sigma=[1.0, 0.8], kernel="rbf", gamma=1.0)
        xc = rng.normal(size=2)
        assert np.isclose(model.log_conditional(xc, rng.normal(size=2)),
                          model.log_marginal(xc), atol=1e-12)

    def test_linear_kernel_recovers_gaussian(self):
        rng = np.random.default_rng(13)
        d, n = 2, 6
        anchors = rng.normal(size=(n, d))
        a = rng.normal(size=(d, d)) * 0.5
        sigma = rng.uniform(0.5, 1.5, d)
        mu = rng.normal(size=d)
        alpha = np.linalg.lstsq(anchors.T, a.T, rcond=None)[0] @ np.eye(d)
        kernel = models.KernelModel(anchors=anchors, alpha=alpha, mu=mu, sigma=sigma,
                                    kernel="linear")
        gauss = models.GaussianModel(mu_c=mu, mu_pi=mu, sigma_c_given_pi=a,
                                     sigma_cc=np.diag(sigma ** 2),
                                     sigma_pipi=np.diag(sigma ** 2))
        for _ in range(5):
            xc, xp = rng.normal(size=d), rng.normal(size=d)
            assert abs(kernel.log_conditional(xc, xp)
                       - gauss.log_conditional(xc, xp)) < 1e-10

    def test_rbf_localizes_as_bandwidth_shrinks(self):
        rng = np.random.default_rng(14)
        anchors = rng.normal(size=(4, 1)) * 3
        alpha = rng.normal(size=(4, 1))
        mu = np.array([0.2])
        model = models.KernelModel(anchors=anchors, alpha=alpha, mu=mu,
                                   sigma=[1.0], kernel="rbf", gamma=1e-3)
        feats = model._features(anchors[2])
        mean = feats[0] @ alpha + mu
        assert np.isclose(mean[0], alpha[2, 0] + 0.2, atol=1e-8)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            models.KernelModel(anchors=[[0.0]], alpha=[[0.0]], mu=[0.0], sigma=[0.0],
                               kernel="linear")

    def test_param_round_trip(self):
        model = random_kernel(np.random.default_rng(15))
        back = model.with_params(model.param_vector())
        assert np.allclose(back.alpha, model.alpha, atol=1e-12)
        assert np.allclose(back.sigma, model.sigma, atol=1e-12)
        assert np.isclose(back.gamma, model.gamma, atol=1e-12)


def _kernel_outputs(model, data, rng):
    size = len(data)
    W = rng.uniform(0.0, 1.0, (size, size))
    np.fill_diagonal(W, 0.0)
    rho = rng.dirichlet(np.ones(size))
    return (model.log_conditional_matrix(data).tobytes(),
            model.grad_from_marginals(data, W, rho).tobytes())


class TestAnchorDistances:
    """The anchors' squared distances are computed once and reused for
    rows equal to the anchors; any other rows take a fresh computation."""

    @pytest.fixture
    def sq_dist_calls(self, monkeypatch):
        calls = []
        sq_dists = models.KernelModel._sq_dists

        def counted(self, points):
            calls.append(len(points))
            return sq_dists(self, points)

        monkeypatch.setattr(models.KernelModel, "_sq_dists", counted)
        return calls

    @staticmethod
    def _fresh_outputs(model, data, seed, monkeypatch):
        # the same model, made to compute every distance afresh
        with monkeypatch.context() as patch:
            patch.setattr(models.KernelModel, "_data_sq_dists",
                          lambda self, points: self._sq_dists(points))
            return _kernel_outputs(model, data, np.random.default_rng(seed))

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_reused_bytes_equal_fresh_ones(self, kernel, monkeypatch, sq_dist_calls):
        rng = np.random.default_rng(16)
        model = random_kernel(rng, size=40, kernel=kernel)
        anchors = model.anchors.copy()  # equal rows, another array
        fresh = self._fresh_outputs(model, anchors, 17, monkeypatch)
        sq_dist_calls.clear()
        for _ in range(3):
            assert _kernel_outputs(model, anchors, np.random.default_rng(17)) == fresh
        assert sq_dist_calls == ([40] if kernel == "rbf" else [])

    @pytest.mark.parametrize("rows", ["held_out", "permuted"])
    def test_other_rows_take_the_fresh_path(self, rows, monkeypatch, sq_dist_calls):
        rng = np.random.default_rng(18)
        model = random_kernel(rng, size=30)
        data = rng.normal(size=(30, 2)) if rows == "held_out" \
            else model.anchors[rng.permutation(30)]
        fresh = self._fresh_outputs(model, data, 19, monkeypatch)
        sq_dist_calls.clear()
        assert _kernel_outputs(model, data, np.random.default_rng(19)) == fresh
        # one computation per call, none of them stored
        assert sq_dist_calls == [30, 30]
        assert model._anchor_sq == {}

    def test_stored_distances_are_shared_and_read_only(self, sq_dist_calls):
        model = random_kernel(np.random.default_rng(20), size=25)
        derived = model.with_params(model.param_vector() + 0.1)
        derived.log_conditional_matrix(model.anchors)
        stored = derived._anchor_sq["sq"]
        assert model._anchor_sq is derived._anchor_sq
        assert derived.with_params(derived.param_vector())._anchor_sq is model._anchor_sq
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0, 0] = 1.0
        assert stored.tobytes() == model._sq_dists(model.anchors).tobytes()
        model.grad_from_marginals(model.anchors, np.zeros((25, 25)), np.ones(25) / 25)
        assert sq_dist_calls == [25, 25]  # the stored one, then the check above

    def test_anchors_are_a_read_only_copy(self):
        anchors = np.random.default_rng(21).normal(size=(5, 2))
        model = models.kernel_init_iid(anchors)
        assert anchors.flags.writeable and model.anchors is not anchors
        assert np.array_equal(model.anchors, anchors)
        with pytest.raises(ValueError):
            model.anchors[0, 0] = 1.0
        assert model.with_params(model.param_vector()).anchors is model.anchors


class TestBuildBeta:
    def test_smallest_case(self):
        rng = np.random.default_rng(16)
        model = random_gaussian(rng)
        data = rng.normal(size=(2, 2))
        beta, roots = models.build_beta(data, model)
        off = ~np.eye(2, dtype=bool)
        assert np.all(np.isfinite(beta.log_entries[off]))
        assert beta.size == 2 and roots.size == 2

    def test_permuting_rows_permutes_beta(self):
        rng = np.random.default_rng(17)
        model = random_gaussian(rng)
        data = rng.normal(size=(6, 2))
        sigma = rng.permutation(6)
        beta, roots = models.build_beta(data, model)
        beta_p, roots_p = models.build_beta(data[sigma], model)
        assert np.allclose(beta_p.log_entries, beta.log_entries[np.ix_(sigma, sigma)])
        assert np.allclose(roots_p.log_values, roots.log_values[sigma])

    def test_stationarity_identical_pairs_identical_weights(self):
        rng = np.random.default_rng(18)
        model = random_gaussian(rng)
        row_a, row_b = rng.normal(size=2), rng.normal(size=2)
        data = np.stack([row_a, row_b, row_a, row_b])
        beta, _ = models.build_beta(data, model)
        assert beta.log_entries[0, 1] == beta.log_entries[2, 3]
        assert beta.log_entries[1, 0] == beta.log_entries[3, 2]

    def test_zero_probability_pair_is_named(self):
        model = models.TabularModel([[0.5, 0.5]], [np.array([[1.0, 0.0], [0.0, 1.0]])])
        data = np.array([[0], [1]])
        with pytest.raises(DataError, match=r"\(0, 1\)|\(1, 0\)"):
            models.build_beta(data, model)


# ---------------------------------------------------------------------------
# Row-blocked weight construction against the unblocked expressions


def _block_sizes():
    """2, 3, one row less than a block, one block, one block plus one and
    2.5 blocks, where a block of a T-row matrix has ``_block_rows(T)`` rows."""
    one = max(t for t in range(2, 4096) if treemath._block_rows(t) >= t)
    halves = next(t for t in itertools.count(one) if 2 * t >= 5 * treemath._block_rows(t))
    return [2, 3, one - 1, one, one + 1, halves]


def _reference_log_conditionals(model, data):
    """Each family's log-conditionals as computed with T x T temporaries."""
    size = len(data)
    if isinstance(model, models.GaussianModel):
        white = data @ model._white_cc.T
        white_means = (data @ model.sigma_c_given_pi.T + model.mu_c) @ model._white_cc.T
        maha = np.zeros((size, size))
        for i in range(model.dim):
            maha += (white[:, i, None] - white_means[None, :, i]) ** 2
        out = -0.5 * (model.dim * models.LOG_2PI + model._logdet_cc + maha)
    elif isinstance(model, models.KernelModel):
        means = model._features(data) @ model.alpha + model.mu
        out = np.full((size, size), -0.5 * model.dim * models.LOG_2PI
                      - np.log(model.sigma).sum())
        for j in range(model.dim):
            out -= 0.5 * ((data[:, j, None] - means[None, :, j]) / model.sigma[j]) ** 2
    else:
        out = np.zeros((size, size))
        for d in range(model.dim):
            out += model._log_cond[d][np.ix_(data[:, d], data[:, d])]
    np.fill_diagonal(out, -np.inf)
    return out


def _reference_weights(log_entries):
    """Weights and their rescaled matrix, derived from log-weights in
    whole-matrix expressions."""
    row_scales = log_entries.max(axis=1)
    row_scales[row_scales == -np.inf] = 0.0
    with np.errstate(under="ignore"):
        scaled = np.exp(log_entries - row_scales[:, None])
    beta = treemath.WeightMatrix.__new__(treemath.WeightMatrix)
    beta._set(log_entries, row_scales, False)
    return beta, scaled


def _reference_posterior_weights(record):
    inv = record._invert()
    core = inv[1:, 1:]
    gain = np.diag(core)[:, None] - core.T
    w = _reference_weights(record.beta.log_entries)[1] * gain
    np.fill_diagonal(w, 0.0)
    border = inv[1:, 0] - inv[0, 1:]
    p = record.normalized
    return w, p * (1.0 + border - p @ border)


def _family(name, rng, size):
    if name == "gaussian":
        return random_gaussian(rng, d=3), rng.normal(size=(size, 3))
    if name == "tabular":
        return random_tabular(rng, dims=2, k=3), rng.integers(0, 3, size=(size, 2))
    return random_kernel(rng, size=6, d=2, kernel=name), rng.normal(size=(size, 2))


class TestBlockedWeights:
    @pytest.mark.parametrize("size", _block_sizes())
    @pytest.mark.parametrize("family", ["gaussian", "rbf", "linear", "tabular"])
    def test_bytes_equal_the_unblocked_expressions(self, family, size):
        rng = np.random.default_rng(size)
        model, data = _family(family, rng, size)
        data = model.validate_data(data)
        beta, roots = models.build_beta(data, model)
        want, want_scaled = _reference_weights(_reference_log_conditionals(model, data))
        for field in ("log_entries", "row_scales"):
            assert getattr(beta, field).tobytes() == getattr(want, field).tobytes(), field
        assert beta.scaled.tobytes() == want_scaled.tobytes()
        assert beta.scale_total == want.scale_total and not beta.structural_zeros
        got_record, want_record = treemath._Bordered(beta, roots), treemath._Bordered(want, roots)
        assert got_record.matrix.tobytes() == want_record.matrix.tobytes()
        assert got_record.log_z == want_record.log_z
        for got, ref in zip(got_record.posterior_weights(),
                            _reference_posterior_weights(want_record)):
            assert got.flags.c_contiguous and got.tobytes() == ref.tobytes()

    def test_sizes_span_the_block_boundary(self):
        sizes = _block_sizes()
        blocks = [-(-t // treemath._block_rows(t)) for t in sizes]
        assert blocks[:4] == [1, 1, 1, 1] and blocks[4] == 2 and blocks[5] == 3

    def test_overflow_is_a_named_pair(self):
        rng = np.random.default_rng(50)
        size = _block_sizes()[4]
        data = rng.normal(size=(size, 2))
        # with no regression only the child row overflows, and it lies in
        # the second block
        model = models.gaussian_init_iid(data)
        data[-1] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            log_cond = model.log_conditional_matrix(data)
            want = _reference_log_conditionals(model, data)
            u, v = np.argwhere(~np.eye(size, dtype=bool) & ~np.isfinite(want))[0]
            assert log_cond[u, v] == -np.inf
            assert log_cond.tobytes() == want.tobytes()
            with pytest.raises(DataError, match=rf"pair \({u}, {v}\)"):
                models.build_beta(data, model)

    @pytest.mark.parametrize("diagonal", [np.nan, 0.0])
    def test_model_diagonal_must_be_minus_inf(self, monkeypatch, diagonal):
        conditionals = models.GaussianModel.log_conditional_matrix

        def faulty(self, data):
            out = conditionals(self, data)
            np.fill_diagonal(out, diagonal)
            return out

        monkeypatch.setattr(models.GaussianModel, "log_conditional_matrix", faulty)
        rng = np.random.default_rng(51)
        with pytest.raises(ValueError, match="diagonal log-weights must be -inf"):
            models.build_beta(rng.normal(size=(5, 2)), random_gaussian(rng))

    def test_weights_own_the_model_array(self, monkeypatch):
        conditionals = models.GaussianModel.log_conditional_matrix
        returned = []

        def kept(self, data):
            returned.append(conditionals(self, data))
            return returned[-1]

        monkeypatch.setattr(models.GaussianModel, "log_conditional_matrix", kept)
        rng = np.random.default_rng(52)
        beta, _ = models.build_beta(rng.normal(size=(7, 2)), random_gaussian(rng))
        assert beta.log_entries is returned[0]
        assert np.shares_memory(beta.log_entries, returned[0])
        assert not beta.log_entries.flags.writeable

    def test_public_constructor_copies(self):
        rng = np.random.default_rng(53)
        log = rng.normal(size=(6, 6))
        np.fill_diagonal(log, -np.inf)
        before = log.copy()
        beta = treemath.WeightMatrix(log_entries=log)
        assert log.flags.writeable and log.tobytes() == before.tobytes()
        assert not np.shares_memory(beta.log_entries, log)

    @pytest.mark.parametrize("bad", ["nan", "inf", "diagonal"])
    def test_owning_callers_keep_the_checks(self, bad):
        rng = np.random.default_rng(54)
        log = rng.normal(size=(5, 5))
        np.fill_diagonal(log, -np.inf)
        if bad == "diagonal":
            log[2, 2] = 0.0
        else:
            log[1, 3] = float(bad)
        label_model = semisup.LabelModel(alpha=0.9, n_classes=2)
        with pytest.raises(ValueError):
            semisup._joint_weights(log, np.zeros(5), np.array([0, 1, 0, 1, 1]), label_model)
        table = rng.normal(size=(3, 3))
        table[0, 1] = np.nan if bad == "nan" else np.inf
        data = np.array([[0], [1], [2], [1]])
        if bad != "diagonal":
            with pytest.raises(ValueError, match="log-weights"):
                vb._log_weights(data, [table])


class TestGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_gaussian_finite_differences(self, seed):
        rng = np.random.default_rng(20 + seed)
        model = random_gaussian(rng)
        data = rng.normal(size=(5, 2))
        fd_gradient_check(model, data)

    @pytest.mark.parametrize("seed", range(3))
    def test_tabular_finite_differences(self, seed):
        rng = np.random.default_rng(30 + seed)
        model = random_tabular(rng, dims=2, k=3)
        data = rng.integers(0, 3, size=(6, 2))
        fd_gradient_check(model, data)

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_kernel_finite_differences(self, kernel):
        rng = np.random.default_rng(40)
        model = random_kernel(rng, size=5, d=2, kernel=kernel)
        data = rng.normal(size=(5, 2))
        fd_gradient_check(model, data)

    def test_gaussian_mu_c_score_formula(self):
        rng = np.random.default_rng(41)
        model = random_gaussian(rng)
        data = rng.normal(size=(3, 2))
        u, v = 0, 2
        resid = data[u] - model.sigma_c_given_pi @ data[v] - model.mu_c
        want = np.linalg.inv(model.sigma_cc) @ resid
        assert np.allclose(edge_gradient(model, data, u, v)[:2], want, atol=1e-10)

    def test_regression_gradient_nonzero_at_iid_seed(self):
        rng = np.random.default_rng(42)
        data = rng.normal(size=(6, 2))
        model = models.gaussian_init_iid(data)
        data = model.validate_data(data)
        block = np.stack([edge_gradient(model, data, u, v)[4:8]  # the regression matrix
                          for u in range(6) for v in range(6) if u != v])
        assert np.abs(block).max() > 1e-3

    def test_gaussian_param_round_trip(self):
        rng = np.random.default_rng(43)
        model = random_gaussian(rng)
        back = model.with_params(model.param_vector())
        for name in ("mu_c", "mu_pi", "sigma_c_given_pi", "sigma_cc", "sigma_pipi"):
            assert np.allclose(getattr(back, name), getattr(model, name), atol=1e-12)
