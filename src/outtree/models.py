"""Mutation models: a root marginal plus one stationary parent-to-child
conditional shared by every edge.

Three families are provided. The linear Gaussian family has a root
N(mu_pi, Sigma_pipi) and conditional N(A x_parent + mu_c, Sigma_cc). The
tabular family keeps one categorical table per attribute dimension, with
child dimension d conditioned on parent dimension d only. The kernel family
replaces the linear conditional mean with a kernel regression on the parent
attributes.

Every family exposes an unconstrained flat parameter vector (covariances
via Cholesky factors with log diagonals, probability tables via log-odds
with the last category as reference), so gradient ascent needs no
projection step. Gradients come as a vector-Jacobian product: the
derivative of sum_uv W_uv log beta_uv + sum_r rho_r log p(x_r) for given
edge weights W and root weights rho, which with the posterior edge
marginals and root posterior is the gradient of ln Z. Each family computes
it from W-weighted moments or counts in O(T^2 D), never forming the
derivative of each log-weight.
"""

from __future__ import annotations

import abc

import numpy as np

from .errors import DataError
from .treemath import RootWeights, WeightMatrix, _block_rows, _count_finite

LOG_2PI = float(np.log(2.0 * np.pi))


class MutationModel(abc.ABC):
    """Contract shared by all model families.

    The same conditional parameter governs every edge; models are immutable
    once constructed, and ``with_params`` returns a fresh instance.
    """

    @abc.abstractmethod
    def log_marginal(self, x) -> float:
        """Log density (or mass) of one attribute row under the root marginal."""

    @abc.abstractmethod
    def log_conditional(self, x_child, x_parent) -> float:
        """Log density of a child row given its parent row."""

    @abc.abstractmethod
    def param_vector(self) -> np.ndarray:
        """Unconstrained flat parameter vector."""

    @abc.abstractmethod
    def with_params(self, vector) -> "MutationModel":
        """New model of the same family from an unconstrained vector."""

    @abc.abstractmethod
    def grad_from_marginals(self, data, W, rho) -> np.ndarray:
        """Gradient of sum_uv W_uv log beta_uv + sum_r rho_r log p(x_r).

        ``data`` is validated, ``W`` is T x T with a zero diagonal (entry
        (u, v) weights the edge v -> u) and ``rho`` has length T. Returns a
        vector the length of the unconstrained parameter vector. W and rho
        are taken as given: negative entries are not clipped.
        """

    @abc.abstractmethod
    def sample_root(self, rng) -> np.ndarray:
        """Draw one attribute row from the root marginal."""

    @abc.abstractmethod
    def sample_child(self, x_parent, rng) -> np.ndarray:
        """Draw one child row given a parent row."""

    @abc.abstractmethod
    def validate_data(self, data) -> np.ndarray:
        """Check and canonicalize a T x D data matrix for this family."""

    def penalty(self, vector):
        """Additive regularizer (value, gradient) for fitting; zero by default."""
        return 0.0, np.zeros_like(vector)

    @abc.abstractmethod
    def log_marginal_vector(self, data) -> np.ndarray:
        """Root log densities of every row of validated data."""

    @abc.abstractmethod
    def log_conditional_matrix(self, data) -> np.ndarray:
        """All pairwise conditionals, entry (u, v) = log p(x_u | x_v); -inf diagonal."""


def build_beta(data, model: MutationModel):
    """Weight matrix and root weights for a dataset under a model.

    log beta_uv = log p(x_u | x_v) for u != v (diagonal structurally zero),
    log root weight r = log p(x_r). Any non-finite log density aborts with
    the offending pair. The weights take the model's array as their own,
    uncopied and read-only.
    """
    data = model.validate_data(data)
    log_cond = np.asarray(model.log_conditional_matrix(data), dtype=float)
    log_marg = model.log_marginal_vector(data)
    size = len(data)
    # T(T-1) finite entries and a -inf diagonal leave no bad pair off it
    clean = (log_cond.shape == (size, size) and np.all(np.diag(log_cond) == -np.inf)
             and _count_finite(log_cond) == size * (size - 1))
    if not clean:
        off_diag = ~np.eye(size, dtype=bool)
        if not np.all(np.isfinite(log_cond[off_diag])):
            u, v = np.argwhere(off_diag & ~np.isfinite(log_cond))[0]
            raise DataError(f"non-finite log conditional for pair ({u}, {v})")
    if not np.all(np.isfinite(log_marg)):
        r = int(np.flatnonzero(~np.isfinite(log_marg))[0])
        raise DataError(f"non-finite log marginal for row {r}")
    # weights that failed the count are validated again, which names the fault
    return (WeightMatrix._owning(log_cond, structural_zeros=False if clean else None),
            RootWeights(log_values=log_marg))


# ---------------------------------------------------------------------------
# Cholesky packing shared by the Gaussian family


def _pack_chol(chol):
    d = chol.shape[0]
    packed = chol[np.tril_indices(d)].copy()
    diag_slots = np.cumsum(np.arange(1, d + 1)) - 1
    packed[diag_slots] = np.log(chol[np.diag_indices(d)])
    return packed, diag_slots


def _unpack_chol(packed, d):
    chol = np.zeros((d, d))
    chol[np.tril_indices(d)] = packed
    chol[np.diag_indices(d)] = np.exp(np.diag(chol))
    return chol


def _chol_or_raise(sigma, name):
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be symmetric positive definite") from None


def _chol_grad_block(sym_grads, chol):
    """Map d/dSigma gradients (stacked ..., D, D) to packed-Cholesky coords."""
    d = chol.shape[0]
    full = 2.0 * sym_grads @ chol
    rows, cols = np.tril_indices(d)
    block = full[..., rows, cols]
    diag_slots = np.cumsum(np.arange(1, d + 1)) - 1
    block[..., diag_slots] *= chol[np.diag_indices(d)]
    return block


class GaussianModel(MutationModel):
    """Linear Gaussian mutation model.

    Root marginal N(mu_pi, Sigma_pipi); conditional of child given parent
    N(Sigma_c_given_pi @ x_parent + mu_c, Sigma_cc).
    """

    def __init__(self, mu_c, mu_pi, sigma_c_given_pi, sigma_cc, sigma_pipi):
        self.mu_c = np.asarray(mu_c, dtype=float)
        self.mu_pi = np.asarray(mu_pi, dtype=float)
        self.sigma_c_given_pi = np.atleast_2d(np.asarray(sigma_c_given_pi, dtype=float))
        self.sigma_cc = np.atleast_2d(np.asarray(sigma_cc, dtype=float))
        self.sigma_pipi = np.atleast_2d(np.asarray(sigma_pipi, dtype=float))
        d = self.mu_c.shape[0]
        self.dim = d
        for name, mat in (("sigma_c_given_pi", self.sigma_c_given_pi),
                          ("sigma_cc", self.sigma_cc),
                          ("sigma_pipi", self.sigma_pipi)):
            if mat.shape != (d, d):
                raise ValueError(f"{name} must be {d} x {d}")
        self._chol_cc = _chol_or_raise(self.sigma_cc, "sigma_cc")
        self._chol_pipi = _chol_or_raise(self.sigma_pipi, "sigma_pipi")
        self._inv_cc = np.linalg.inv(self.sigma_cc)
        self._inv_pipi = np.linalg.inv(self.sigma_pipi)
        # inverse Cholesky factors: |white @ r|^2 = r^T Sigma^-1 r
        self._white_cc = np.linalg.inv(self._chol_cc)
        self._white_pipi = np.linalg.inv(self._chol_pipi)
        self._logdet_cc = 2.0 * np.log(np.diag(self._chol_cc)).sum()
        self._logdet_pipi = 2.0 * np.log(np.diag(self._chol_pipi)).sum()

    def validate_data(self, data):
        data = np.atleast_2d(np.asarray(data, dtype=float))
        if data.shape[1] != self.dim:
            raise DataError(f"expected {self.dim} attribute columns, got {data.shape[1]}")
        if not np.all(np.isfinite(data)):
            raise DataError("attributes must be finite")
        return data

    def _log_normal(self, resid, inv, logdet):
        maha = resid @ inv @ resid
        return -0.5 * (self.dim * LOG_2PI + logdet + maha)

    def log_marginal(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise DataError("attributes must be finite")
        return float(self._log_normal(x - self.mu_pi, self._inv_pipi, self._logdet_pipi))

    def log_conditional(self, x_child, x_parent):
        x_child = np.asarray(x_child, dtype=float)
        x_parent = np.asarray(x_parent, dtype=float)
        if not (np.all(np.isfinite(x_child)) and np.all(np.isfinite(x_parent))):
            raise DataError("attributes must be finite")
        resid = x_child - self.sigma_c_given_pi @ x_parent - self.mu_c
        return float(self._log_normal(resid, self._inv_cc, self._logdet_cc))

    def log_marginal_vector(self, data):
        white = (data - self.mu_pi) @ self._white_pipi.T
        maha = (white ** 2).sum(axis=1)
        return -0.5 * (self.dim * LOG_2PI + self._logdet_pipi + maha)

    def log_conditional_matrix(self, data):
        # whitening is linear, so whiten the rows and the conditional means
        # once and sum D squared differences instead of T^2 quadratic forms
        white = data @ self._white_cc.T
        white_means = (data @ self.sigma_c_given_pi.T + self.mu_c) @ self._white_cc.T
        const = self.dim * LOG_2PI + self._logdet_cc
        size = len(data)
        out = np.empty((size, size))
        step = _block_rows(size)
        part = np.empty((min(step, size), size))
        # one row block at a time: the squared differences of each dimension
        # are summed into the block, then the constant is added and scaled
        for start in range(0, size, step):
            block = out[start:start + step]
            rows = white[start:start + step]
            np.square(np.subtract.outer(rows[:, 0], white_means[:, 0], out=block), out=block)
            for i in range(1, self.dim):
                sq = part[:len(block)]
                np.square(np.subtract.outer(rows[:, i], white_means[:, i], out=sq), out=sq)
                block += sq
            block += const
            block *= -0.5
        np.fill_diagonal(out, -np.inf)
        return out

    def param_vector(self):
        cc, _ = _pack_chol(self._chol_cc)
        pipi, _ = _pack_chol(self._chol_pipi)
        return np.concatenate([self.mu_c, self.mu_pi,
                               self.sigma_c_given_pi.ravel(), cc, pipi])

    def with_params(self, vector):
        d = self.dim
        tri = d * (d + 1) // 2
        parts = np.split(np.asarray(vector, dtype=float),
                         np.cumsum([d, d, d * d, tri]))
        chol_cc = _unpack_chol(parts[3], d)
        chol_pipi = _unpack_chol(parts[4], d)
        return GaussianModel(parts[0], parts[1], parts[2].reshape(d, d),
                             chol_cc @ chol_cc.T, chol_pipi @ chol_pipi.T)

    def grad_from_marginals(self, data, W, rho):
        rows, cols = W.sum(axis=1), W.sum(axis=0)
        means = data @ self.sigma_c_given_pi.T + self.mu_c
        # W-weighted moments of the residuals r_uv = x_u - means_v
        first = rows @ data - cols @ means                      # sum W r
        weighted_means = means.T * cols
        cross = data.T @ (W @ data) - weighted_means @ data     # sum W r x_v^T
        mixed = data.T @ (W @ means)
        second = ((data.T * rows) @ data - mixed - mixed.T
                  + weighted_means @ means)                     # sum W r r^T
        inv = self._inv_cc
        sigma_cc = 0.5 * (inv @ second @ inv - rows.sum() * inv)

        resid0 = data - self.mu_pi
        inv0 = self._inv_pipi
        sigma_pipi = 0.5 * (inv0 @ ((resid0.T * rho) @ resid0) @ inv0 - rho.sum() * inv0)
        return np.concatenate([inv @ first,                                     # mu_c
                               inv0 @ (rho @ resid0),                           # mu_pi
                               (inv @ cross).ravel(),                           # A
                               _chol_grad_block(sigma_cc, self._chol_cc),       # chol(sigma_cc)
                               _chol_grad_block(sigma_pipi, self._chol_pipi)])  # chol(sigma_pipi)

    def sample_root(self, rng):
        return self.mu_pi + self._chol_pipi @ rng.standard_normal(self.dim)

    def sample_child(self, x_parent, rng):
        mean = self.sigma_c_given_pi @ np.asarray(x_parent, dtype=float) + self.mu_c
        return mean + self._chol_cc @ rng.standard_normal(self.dim)

    def scaled_noise(self, factor):
        """Copy with the conditional covariance multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("noise scale must be positive")
        return GaussianModel(self.mu_c, self.mu_pi, self.sigma_c_given_pi,
                             factor * self.sigma_cc, self.sigma_pipi)


def gaussian_init_iid(data, ridge=1e-6) -> GaussianModel:
    """Seed model matching the iid Gaussian fit.

    mu_pi = mu_c = sample mean, both covariances the (ridge-regularized)
    sample covariance, and a zero regression matrix, so the conditional
    equals the marginal and the out-tree likelihood at this point equals
    the iid likelihood exactly. ``ridge=None`` disables regularization and
    rejects degenerate data instead.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    size, d = data.shape
    if size < 2:
        raise DataError("need at least 2 rows to fit a seed model")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (size - 1)
    if ridge is not None:
        eps = max(ridge * np.trace(cov) / d, 1e-12)
        cov = cov + eps * np.eye(d)
    return GaussianModel(mu_c=mean, mu_pi=mean, sigma_c_given_pi=np.zeros((d, d)),
                         sigma_cc=cov, sigma_pipi=cov)


# ---------------------------------------------------------------------------
# Tabular family


def tabular_counts(column, k, W, rho):
    """(counts, root_counts): W mass of edges from parent value b to child
    value a at [a, b], and rho mass of the rows valued a at [a]."""
    onehot = (column[:, None] == np.arange(k)).astype(float)
    return onehot.T @ W @ onehot, rho @ onehot


def _check_prob_vector(p, name):
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError(f"{name} must be a probability vector (sum within 1e-12)")


class TabularModel(MutationModel):
    """Per-dimension categorical tables over small integer alphabets.

    ``root_tables[d]`` is the marginal over values of dimension d;
    ``cond_tables[d][a, b]`` is p(child value a | parent value b), every
    column summing to one. Dimensions are conditionally independent given
    the parent row.
    """

    def __init__(self, root_tables, cond_tables):
        if len(root_tables) != len(cond_tables):
            raise ValueError("need one root table and one conditional table per dimension")
        self.root_tables = [np.asarray(t, dtype=float) for t in root_tables]
        self.cond_tables = [np.atleast_2d(np.asarray(t, dtype=float)) for t in cond_tables]
        self.alphabet_sizes = []
        for d, (root, cond) in enumerate(zip(self.root_tables, self.cond_tables)):
            k = root.shape[0]
            if cond.shape != (k, k):
                raise ValueError(f"conditional table {d} must be {k} x {k}")
            _check_prob_vector(root, f"root table {d}")
            for b in range(k):
                _check_prob_vector(cond[:, b], f"conditional table {d} column {b}")
            self.alphabet_sizes.append(k)
        self.dim = len(self.root_tables)
        with np.errstate(divide="ignore"):
            self._log_root = [np.log(t) for t in self.root_tables]
            self._log_cond = [np.log(t) for t in self.cond_tables]
        self._root_cdf = [np.cumsum(t) for t in self.root_tables]
        self._cond_cdf = [np.cumsum(t, axis=0) for t in self.cond_tables]

    def validate_data(self, data):
        data = np.atleast_2d(np.asarray(data))
        if data.shape[1] != self.dim:
            raise DataError(f"expected {self.dim} attribute columns, got {data.shape[1]}")
        if not np.issubdtype(data.dtype, np.integer):
            as_int = data.astype(np.int64)
            if not np.array_equal(as_int, data):
                raise DataError("tabular attributes must be integers")
            data = as_int
        for d, k in enumerate(self.alphabet_sizes):
            if data[:, d].min() < 0 or data[:, d].max() >= k:
                raise DataError(f"column {d} has values outside [0, {k})")
        return data

    def log_marginal(self, x):
        return float(sum(self._log_root[d][x[d]] for d in range(self.dim)))

    def log_conditional(self, x_child, x_parent):
        return float(sum(self._log_cond[d][x_child[d], x_parent[d]]
                         for d in range(self.dim)))

    def log_marginal_vector(self, data):
        out = np.zeros(len(data))
        for d in range(self.dim):
            out += self._log_root[d][data[:, d]]
        return out

    def log_conditional_matrix(self, data):
        size = len(data)
        out = np.zeros((size, size))
        for d in range(self.dim):
            out += self._log_cond[d][np.ix_(data[:, d], data[:, d])]
        np.fill_diagonal(out, -np.inf)
        return out

    def param_vector(self):
        parts = []
        for d, k in enumerate(self.alphabet_sizes):
            if np.any(self.root_tables[d] == 0) or np.any(self.cond_tables[d] == 0):
                raise ValueError("zero probabilities have no finite log-odds")
            parts.append(self._log_root[d][:-1] - self._log_root[d][-1])
            for b in range(k):
                parts.append(self._log_cond[d][:-1, b] - self._log_cond[d][-1, b])
        return np.concatenate(parts)

    def with_params(self, vector):
        vector = np.asarray(vector, dtype=float)
        root_tables, cond_tables, pos = [], [], 0
        for k in self.alphabet_sizes:
            root_tables.append(_softmax_with_reference(vector[pos:pos + k - 1]))
            pos += k - 1
            cond = np.empty((k, k))
            for b in range(k):
                cond[:, b] = _softmax_with_reference(vector[pos:pos + k - 1])
                pos += k - 1
            cond_tables.append(cond)
        return TabularModel(root_tables, cond_tables)

    def grad_from_marginals(self, data, W, rho):
        parts = []
        for d, k in enumerate(self.alphabet_sizes):
            counts, root_counts = tabular_counts(data[:, d], k, W, rho)
            parts.append(root_counts[:-1] - root_counts.sum() * self.root_tables[d][:-1])
            gain = counts[:-1] - counts.sum(axis=0) * self.cond_tables[d][:-1]
            parts.append(gain.T.ravel())
        return np.concatenate(parts)

    def sample_root(self, rng):
        u = rng.random(self.dim)
        return np.array([int(np.searchsorted(self._root_cdf[d], u[d], side="right"))
                         for d in range(self.dim)], dtype=np.int64)

    def sample_child(self, x_parent, rng):
        u = rng.random(self.dim)
        return np.array(
            [int(np.searchsorted(self._cond_cdf[d][:, x_parent[d]], u[d], side="right"))
             for d in range(self.dim)], dtype=np.int64)


def _softmax_with_reference(logits):
    full = np.concatenate([logits, [0.0]])
    full -= full.max()
    exp = np.exp(full)
    return exp / exp.sum()


def tabular_init_iid(data, alphabet_sizes, pseudocount=1.0) -> TabularModel:
    """Seed tabular model: empirical marginals, conditional columns all equal
    to the marginal (so the out-tree likelihood matches iid exactly)."""
    data = np.atleast_2d(np.asarray(data, dtype=np.int64))
    root_tables, cond_tables = [], []
    for d, k in enumerate(alphabet_sizes):
        counts = np.bincount(data[:, d], minlength=k).astype(float) + pseudocount
        marginal = counts / counts.sum()
        root_tables.append(marginal)
        cond_tables.append(np.tile(marginal[:, None], (1, k)))
    return TabularModel(root_tables, cond_tables)


# ---------------------------------------------------------------------------
# Kernelized Gaussian family


class KernelModel(MutationModel):
    """Per-dimension Gaussians whose conditional mean is a kernel regression
    over fixed training anchors.

    mean_d(x_parent) = sum_t alpha[t, d] * k(x_parent, anchor_t) + mu[d],
    with standard deviation sigma[d]. The marginal drops the kernel term.
    Every gradient is analytic, the RBF bandwidth's included: it enters
    through the derivative of each feature, k * |x - anchor|^2 / gamma^2 in
    log gamma. Fitting penalizes alpha with an L2 term of weight
    ``alpha_penalty``.
    """

    def __init__(self, anchors, alpha, mu, sigma, kernel="rbf", gamma=None,
                 alpha_penalty=1e-3):
        self.anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
        self.alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
        self.mu = np.asarray(mu, dtype=float)
        self.sigma = np.asarray(sigma, dtype=float)
        if kernel not in ("rbf", "linear"):
            raise ValueError("kernel must be 'rbf' or 'linear'")
        self.kernel = kernel
        self.gamma = float(gamma) if gamma is not None else None
        self.alpha_penalty = float(alpha_penalty)
        self.dim = self.mu.shape[0]
        if self.anchors.shape[0] == 0:
            raise ValueError("anchors must be non-empty")
        if self.alpha.shape != (self.anchors.shape[0], self.dim):
            raise ValueError("alpha must be (num anchors) x D")
        if self.sigma.shape != (self.dim,) or np.any(self.sigma <= 0):
            raise ValueError("sigma must be length-D and positive")
        if kernel == "rbf" and (self.gamma is None or self.gamma <= 0):
            raise ValueError("rbf kernel needs a positive bandwidth")

    def validate_data(self, data):
        data = np.atleast_2d(np.asarray(data, dtype=float))
        if data.shape[1] != self.dim:
            raise DataError(f"expected {self.dim} attribute columns, got {data.shape[1]}")
        if not np.all(np.isfinite(data)):
            raise DataError("attributes must be finite")
        return data

    def _sq_dists(self, points):
        """Squared distances from each row of ``points`` to each anchor."""
        sq = np.zeros((len(points), len(self.anchors)))
        for j in range(self.dim):
            sq += (points[:, j, None] - self.anchors[None, :, j]) ** 2
        return sq

    def _rbf(self, sq):
        with np.errstate(under="ignore"):
            return np.exp(-sq / (2.0 * self.gamma ** 2))

    def _features(self, points):
        points = np.atleast_2d(points)
        if self.kernel == "linear":
            return points @ self.anchors.T
        return self._rbf(self._sq_dists(points))

    def _univariate_log_normal(self, resid):
        return (-0.5 * LOG_2PI - np.log(self.sigma) - 0.5 * (resid / self.sigma) ** 2).sum(axis=-1)

    def log_marginal(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise DataError("attributes must be finite")
        return float(self._univariate_log_normal(x - self.mu))

    def log_conditional(self, x_child, x_parent):
        x_child = np.asarray(x_child, dtype=float)
        mean = self._features(x_parent)[0] @ self.alpha + self.mu
        return float(self._univariate_log_normal(x_child - mean))

    def log_marginal_vector(self, data):
        return self._univariate_log_normal(data - self.mu)

    def log_conditional_matrix(self, data):
        means = self._features(data) @ self.alpha + self.mu
        const = -0.5 * self.dim * LOG_2PI - np.log(self.sigma).sum()
        size = len(data)
        out = np.empty((size, size))
        step = _block_rows(size)
        part = np.empty((min(step, size), size))
        # one row block at a time: the constant, less each dimension's scaled
        # squared differences in turn
        for start in range(0, size, step):
            block = out[start:start + step]
            block.fill(const)
            sq = part[:len(block)]
            for j in range(self.dim):
                np.subtract.outer(data[start:start + step, j], means[:, j], out=sq)
                sq /= self.sigma[j]
                np.square(sq, out=sq)
                sq *= 0.5
                block -= sq
        np.fill_diagonal(out, -np.inf)
        return out

    def param_vector(self):
        parts = [self.alpha.ravel(), self.mu, np.log(self.sigma)]
        if self.kernel == "rbf":
            parts.append(np.array([np.log(self.gamma)]))
        return np.concatenate(parts)

    def with_params(self, vector):
        vector = np.asarray(vector, dtype=float)
        n, d = self.alpha.shape
        alpha = vector[:n * d].reshape(n, d)
        mu = vector[n * d:n * d + d]
        sigma = np.exp(vector[n * d + d:n * d + 2 * d])
        gamma = np.exp(vector[-1]) if self.kernel == "rbf" else None
        return KernelModel(self.anchors, alpha, mu, sigma, kernel=self.kernel,
                           gamma=gamma, alpha_penalty=self.alpha_penalty)

    def penalty(self, vector):
        n, d = self.alpha.shape
        grad = np.zeros_like(vector)
        alpha_flat = vector[:n * d]
        grad[:n * d] = -2.0 * self.alpha_penalty * alpha_flat
        return float(-self.alpha_penalty * (alpha_flat ** 2).sum()), grad

    def grad_from_marginals(self, data, W, rho):
        var = self.sigma ** 2
        rows, cols = W.sum(axis=1), W.sum(axis=0)
        if self.kernel == "rbf":
            sq = self._sq_dists(data)
            feats = self._rbf(sq)
        else:
            feats = self._features(data)
        means = feats @ self.alpha + self.mu
        children = W.T @ data                   # sum_u W_uv x_u, per parent v
        # d(sum_uv W_uv log beta_uv) / d means_v, per dimension
        score = (children - cols[:, None] * means) / var
        second = rows @ data ** 2 - 2.0 * (means * children).sum(axis=0) + cols @ means ** 2
        resid0 = data - self.mu
        parts = [(feats.T @ score).ravel(),                                  # alpha
                 score.sum(axis=0) + rho @ resid0 / var,                     # mu
                 (second + rho @ resid0 ** 2) / var - rows.sum() - rho.sum()]  # log sigma
        if self.kernel == "rbf":
            d_feats = feats * sq / self.gamma ** 2                           # d/d log gamma
            parts.append([np.sum((d_feats @ self.alpha) * score)])
        return np.concatenate(parts)

    def sample_root(self, rng):
        return self.mu + self.sigma * rng.standard_normal(self.dim)

    def sample_child(self, x_parent, rng):
        mean = self._features(x_parent)[0] @ self.alpha + self.mu
        return mean + self.sigma * rng.standard_normal(self.dim)


def kernel_init_iid(data, kernel="rbf", gamma=None, alpha_penalty=1e-3) -> KernelModel:
    """Seed kernel model anchored at the training rows, with zero regression
    weights (conditional = marginal) and per-dimension moment-matched
    mu/sigma. The RBF bandwidth defaults to the median pairwise distance."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if gamma is None and kernel == "rbf":
        dists = np.sqrt(((data[:, None, :] - data[None, :, :]) ** 2).sum(axis=2))
        off = dists[~np.eye(len(data), dtype=bool)]
        gamma = float(np.median(off)) or 1.0
    sigma = data.std(axis=0, ddof=1)
    sigma[sigma == 0] = 1e-6
    return KernelModel(anchors=data, alpha=np.zeros_like(data), mu=data.mean(axis=0),
                       sigma=sigma, kernel=kernel, gamma=gamma,
                       alpha_penalty=alpha_penalty)
