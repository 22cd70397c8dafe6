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

Each family's log-conditionals come from one row-block kernel
(``_conditional_rows``): a per-dataset precompute (whitened rows and
means, kernel features and means, or table lookups), then a fill of any
block of rows into a caller's contiguous block. One check,
``_checked_rows``, validates every block of weights made from data:
``build_beta``, the public weights API, keeps the checked blocks as a
T x T ``WeightMatrix`` (the semi-supervised joint weights start from it,
and VB's expected-log weights run the tabular kernel ``_table_rows``
through the same check); ``_build_bordered`` rescales them straight into
the bordered Laplacian, so the likelihood makes no T x T log-weights, and
VB's type graph is set up the same way.
"""

from __future__ import annotations

import abc
import functools

import numpy as np

from .errors import DataError
from .treemath import RootWeights, WeightMatrix, _Bordered, _row_blocks, _row_scales

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
    def _conditional_rows(self, data):
        """Row-block kernel of the log-conditionals of validated ``data``.

        Runs the family's per-dataset precompute and returns ``fill(rows,
        out, work)``, which writes log p(x_u | x_v) for u in the row slice
        ``rows`` and every v into ``out``, a contiguous len(rows) x T block;
        ``work`` is a contiguous scratch block of the same shape that it may
        overwrite. The diagonal entries written are ignored. Each entry is
        computed as the same expression whatever the block, so any blocking
        gives the same bytes. For the continuous families that expression is
        an entry of one matrix product (``_expanded_rows``), so it rests on
        the BLAS computing an entry of a product of a row block as it does
        in the whole product: a sum of d + 2 terms in one order, which the
        tests check bit for bit across block boundaries.
        """


def _check_conditional_rows(block, start):
    """Raise ``DataError`` naming the first non-finite off-diagonal entry of
    ``block``, rows ``start`` onwards of a log-conditional matrix."""
    finite = np.isfinite(block)
    finite.reshape(-1)[start::block.shape[1] + 1] = True
    if not finite.all():
        u, v = np.argwhere(~finite)[0]
        raise DataError(f"non-finite log conditional for pair ({start + u}, {v})")


def _checked_rows(fill, size, row_scales):
    """Row source (see ``_Bordered._set_up``) that runs the row-block kernel
    ``fill`` (see ``MutationModel._conditional_rows``) of a size x size
    matrix and checks each block.

    A block whose row minima, over the diagonal as written, and row maxima,
    over the -inf diagonal, are finite holds no bad pair; only a block that
    fails is searched, for ``_check_conditional_rows``' ``DataError``. The
    block's row scales are written into ``row_scales``. Callers ignore
    overflow and invalid operations in the kernel's arithmetic and leave
    them to this check, which names the pair.
    """
    def log_rows(rows, out, work):
        fill(rows, out, work)
        lowest = np.min(out, axis=1)
        out.reshape(-1)[rows.start::size + 1] = -np.inf
        scales = _row_scales(out, out=row_scales[rows])
        if not (np.isfinite(lowest).all() and np.isfinite(scales).all()):
            _check_conditional_rows(out, rows.start)
        return out, scales

    return log_rows


def _checked_weights(fill, size):
    """The ``WeightMatrix`` of the log-weights that the row-block kernel
    ``fill`` writes, checked a row block at a time by ``_checked_rows``."""
    log_entries, row_scales = np.empty((size, size)), np.empty(size)
    log_rows = _checked_rows(fill, size, row_scales)
    blocks = _row_blocks(size)
    work = np.empty((blocks[0].stop, size))
    for rows in blocks:
        log_rows(rows, log_entries[rows], work[:rows.stop - rows.start])
    return WeightMatrix._owning(log_entries, row_scales)


def build_beta(data, model: MutationModel):
    """Weight matrix and root weights for a dataset under a model.

    log beta_uv = log p(x_u | x_v) for u != v (diagonal structurally zero),
    log root weight r = log p(x_r). Any non-finite log density, overflow
    included, aborts with the offending pair or row.
    """
    data = model.validate_data(data)
    with np.errstate(over="ignore", invalid="ignore"):
        beta = _checked_weights(model._conditional_rows(data), len(data))
        return beta, _root_weights(data, model)


def _root_weights(data, model):
    """The root weights p(x_r) of validated ``data``; a non-finite root log
    density raises ``DataError`` naming the first such row. Callers ignore
    overflow in the model's arithmetic."""
    log_marg = model.log_marginal_vector(data)
    if not np.all(np.isfinite(log_marg)):
        r = int(np.flatnonzero(~np.isfinite(log_marg))[0])
        raise DataError(f"non-finite log marginal for row {r}")
    return RootWeights(log_values=log_marg)


def _build_bordered(data, model: MutationModel):
    """The bordered-Laplacian record of validated ``data`` under ``model``,
    filled straight from the model's row-block kernel with no T x T
    log-weights.

    The blocks are checked as ``build_beta``'s are (``_checked_rows``) and
    rescaled into the bordered matrix in place, so the record is
    ``_Bordered(*build_beta(data, model))`` byte for byte; it holds no
    ``WeightMatrix``.
    """
    size = len(data)
    row_scales = np.empty(size)
    with np.errstate(over="ignore", invalid="ignore"):
        log_rows = _checked_rows(model._conditional_rows(data), size, row_scales)
        return _Bordered._set_up(size, log_rows, row_scales,
                                 lambda: _root_weights(data, model))


def _continuous_values(data, dim):
    """``data`` as float rows of ``dim`` finite attributes; anything else
    raises ``DataError``."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[1] != dim:
        raise DataError(f"expected {dim} attribute columns, got {data.shape[1]}")
    if not np.all(np.isfinite(data)):
        raise DataError("attributes must be finite")
    return data


def _expanded_rows(points, means, const, scale=1.0):
    """Row-block kernel (see ``MutationModel._conditional_rows``) of
    const - |(points_u - means_v) / scale|^2 / 2, one matrix product per
    block: with a = (points - c) / scale and m = (means - c) / scale, each
    entry is [a_u, const - |a_u|^2 / 2, 1] . [m_v, 1, -|m_v|^2 / 2].

    Its rounding error grows with |a_u|^2 + |m_v|^2, so the centre c is the
    row of ``points`` nearest their mean in the max norm: a far row moves
    the mean by its distance over T but is not picked, no square overflows
    in the choice, and no column is sorted (a median's would be). c is
    subtracted before ``scale`` divides, so rows and means near c lose no
    digit to it however far they lie from the origin. A squared distance to
    c that overflows writes a non-finite entry for the check to name.
    """
    centre = points[np.argmin(np.abs(points - points.mean(axis=0)).max(axis=1))]
    a, m = (points - centre) / scale, (means - centre) / scale
    left = np.column_stack([a, const - 0.5 * np.square(a).sum(axis=1), np.ones(len(a))])
    # a C-ordered copy: with the transpose as operand, a block's product
    # missed the whole product's rows in their last bits at T=285
    right = np.column_stack([m, np.ones(len(m)), -0.5 * np.square(m).sum(axis=1)]).T.copy()

    def fill(rows, out, work):
        np.matmul(left[rows], right, out=out)

    return fill


# ---------------------------------------------------------------------------
# Cholesky packing shared by the Gaussian family


@functools.cache
def _tril_slots(d):
    """Row and column indices of a d x d lower triangle in packed (row-major)
    order, and the packed slots of its diagonal; made once per dimension."""
    rows, cols = np.tril_indices(d)
    diag_slots = np.flatnonzero(rows == cols)
    for index in (rows, cols, diag_slots):
        index.setflags(write=False)
    return rows, cols, diag_slots


def _pack_chol(chol):
    rows, cols, diag_slots = _tril_slots(chol.shape[0])
    packed = chol[rows, cols]
    packed[diag_slots] = np.log(packed[diag_slots])
    return packed


def _unpack_chol(packed, d):
    rows, cols, diag_slots = _tril_slots(d)
    chol = np.zeros((d, d))
    chol[rows, cols] = packed
    np.fill_diagonal(chol, np.exp(packed[diag_slots]))
    return chol


def _check_finite(**params):
    """Raise ``ValueError`` naming the first parameter with a NaN or an
    infinite entry."""
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")


def _chol_or_raise(sigma, name):
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be symmetric positive definite") from None


def _chol_grad_block(sym_grads, chol):
    """Map d/dSigma gradients (stacked ..., D, D) to packed-Cholesky coords."""
    rows, cols, diag_slots = _tril_slots(chol.shape[0])
    full = 2.0 * sym_grads @ chol
    block = full[..., rows, cols]
    block[..., diag_slots] *= np.diagonal(chol)
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
        if self.mu_c.ndim != 1:
            raise ValueError("mu_c must be a vector")
        d = self.mu_c.shape[0]
        self.dim = d
        if self.mu_pi.shape != (d,):
            raise ValueError(f"mu_pi must have length {d}")
        for name, mat in (("sigma_c_given_pi", self.sigma_c_given_pi),
                          ("sigma_cc", self.sigma_cc),
                          ("sigma_pipi", self.sigma_pipi)):
            if mat.shape != (d, d):
                raise ValueError(f"{name} must be {d} x {d}")
        _check_finite(mu_c=self.mu_c, mu_pi=self.mu_pi,
                      sigma_c_given_pi=self.sigma_c_given_pi, sigma_cc=self.sigma_cc,
                      sigma_pipi=self.sigma_pipi)
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
        return _continuous_values(data, self.dim)

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

    def _conditional_rows(self, data):
        # whitening is linear, so whiten the rows and the conditional means
        # once: each log-weight is then the constant less half a squared
        # distance, expanded into one product of the rows and the means
        white = data @ self._white_cc.T
        white_means = (data @ self.sigma_c_given_pi.T + self.mu_c) @ self._white_cc.T
        return _expanded_rows(white, white_means,
                              -0.5 * (self.dim * LOG_2PI + self._logdet_cc))

    def param_vector(self):
        cc = _pack_chol(self._chol_cc)
        pipi = _pack_chol(self._chol_pipi)
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


def _seed_rows(data):
    """The rows a seed model is fitted to, as a float matrix of at least
    two rows (a sample variance needs two)."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if len(data) < 2:
        raise DataError("need at least 2 rows to fit a seed model")
    return data


def gaussian_init_iid(data, ridge=1e-6) -> GaussianModel:
    """Seed model matching the iid Gaussian fit.

    mu_pi = mu_c = sample mean, both covariances the (ridge-regularized)
    sample covariance, and a zero regression matrix, so the conditional
    equals the marginal and the out-tree likelihood at this point equals
    the iid likelihood exactly. ``ridge=None`` disables regularization and
    rejects degenerate data instead.
    """
    data = _seed_rows(data)
    size, d = data.shape
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
    if np.any(p < 0) or not abs(p.sum() - 1.0) <= 1e-12:  # NaN fails the sum
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
        return _tabular_values(data, self.alphabet_sizes)

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

    def _conditional_rows(self, data):
        return _table_rows(data, self._log_cond)

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


def _tabular_values(data, alphabet_sizes):
    """``data`` as int64 rows of one value in [0, k) per dimension of an
    alphabet of k letters; anything else, NaN and infinities included,
    raises ``DataError`` before a cast could warn."""
    data = np.atleast_2d(np.asarray(data))
    if data.shape[1] != len(alphabet_sizes):
        raise DataError(f"expected {len(alphabet_sizes)} attribute columns, "
                        f"got {data.shape[1]}")
    if not np.issubdtype(data.dtype, np.integer) and not np.all(np.floor(data) == data):
        raise DataError("tabular attributes must be integers")
    for d, k in enumerate(alphabet_sizes):
        if data[:, d].min() < 0 or data[:, d].max() >= k:
            raise DataError(f"column {d} has values outside [0, {k})")
    return data.astype(np.int64, copy=False)


def _table_rows(data, tables):
    """Row-block kernel (see ``MutationModel._conditional_rows``) of the
    log-weights sum_d tables[d][x_ud, x_vd] of integer ``data`` whose
    values index the tables' rows and columns."""
    # each dimension's table, its columns taken at the parents' values:
    # lookup[a, v] = tables[d][a, x_vd]
    lookups = [(table[:, data[:, d]], data[:, d]) for d, table in enumerate(tables)]

    def fill(rows, out, work):
        out.fill(0.0)
        for lookup, column in lookups:
            # the values are in range, so "clip" moves none; numpy copies
            # an out= result through a buffer under the default "raise"
            out += np.take(lookup, column[rows], axis=0, out=work, mode="clip")

    return fill


def _softmax_with_reference(logits):
    full = np.concatenate([logits, [0.0]])
    full -= full.max()
    exp = np.exp(full)
    return exp / exp.sum()


def tabular_init_iid(data, alphabet_sizes) -> TabularModel:
    """Seed tabular model: empirical marginals with one pseudo-count per
    value, conditional columns all equal to the marginal (so the out-tree
    likelihood matches iid exactly)."""
    data = np.atleast_2d(np.asarray(data, dtype=np.int64))
    root_tables, cond_tables = [], []
    for d, k in enumerate(alphabet_sizes):
        counts = np.bincount(data[:, d], minlength=k).astype(float) + 1.0
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
        # the stored anchor distances below stay valid only while the anchors
        # do, so the model keeps a read-only copy of writable ones
        if self.anchors.flags.writeable:
            self.anchors = self.anchors.copy()
            self.anchors.flags.writeable = False
        self.alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
        self.mu = np.asarray(mu, dtype=float)
        self.sigma = np.asarray(sigma, dtype=float)
        if kernel not in ("rbf", "linear"):
            raise ValueError("kernel must be 'rbf' or 'linear'")
        self.kernel = kernel
        self.gamma = float(gamma) if gamma is not None else None
        self.alpha_penalty = float(alpha_penalty)
        if self.mu.ndim != 1:
            raise ValueError("mu must be a vector")
        self.dim = self.mu.shape[0]
        if self.anchors.shape[0] == 0:
            raise ValueError("anchors must be non-empty")
        if self.anchors.shape[1] != self.dim:
            raise ValueError(f"anchors must have {self.dim} columns")
        if self.alpha.shape != (self.anchors.shape[0], self.dim):
            raise ValueError("alpha must be (num anchors) x D")
        _check_finite(anchors=self.anchors, alpha=self.alpha, mu=self.mu)
        # NaN fails both bounds
        if self.sigma.shape != (self.dim,) or not np.all((self.sigma > 0) & (self.sigma < np.inf)):
            raise ValueError("sigma must be length-D, positive and finite")
        if kernel == "rbf" and not (self.gamma is not None and 0 < self.gamma < np.inf):
            raise ValueError("rbf kernel needs a positive finite bandwidth gamma")
        # the anchors' squared distances to themselves, computed on first use
        # and shared with every model ``with_params`` derives from this one
        self._anchor_sq = {}
        # the anchors' RBF features, computed on first use and kept by this
        # model alone: they depend on gamma
        self._anchor_features = None

    def validate_data(self, data):
        return _continuous_values(data, self.dim)

    def _sq_dists(self, points):
        """Squared distances from each row of ``points`` to each anchor."""
        sq = np.zeros((len(points), len(self.anchors)))
        for j in range(self.dim):
            sq += (points[:, j, None] - self.anchors[None, :, j]) ** 2
        return sq

    def _at_anchors(self, points):
        return points.shape == self.anchors.shape and np.array_equal(points, self.anchors)

    def _data_sq_dists(self, data):
        """``_sq_dists(data)``, read from the stored anchor distances when
        the rows are the anchors themselves; the stored array is read-only."""
        if not self._at_anchors(data):
            return self._sq_dists(data)
        if "sq" not in self._anchor_sq:
            sq = self._sq_dists(self.anchors)
            sq.flags.writeable = False
            self._anchor_sq["sq"] = sq
        return self._anchor_sq["sq"]

    def _rbf(self, sq):
        with np.errstate(under="ignore"):
            return np.exp(-sq / (2.0 * self.gamma ** 2))

    def _features(self, points, sq=None):
        """Kernel features of each row of ``points`` against the anchors, from
        their squared distances ``sq`` when given; the anchors' own RBF
        features are computed once per model and read-only."""
        points = np.atleast_2d(points)
        if self.kernel == "linear":
            return points @ self.anchors.T
        if not self._at_anchors(points):
            return self._rbf(self._sq_dists(points) if sq is None else sq)
        if self._anchor_features is None:
            features = self._rbf(self._data_sq_dists(points))
            features.flags.writeable = False
            self._anchor_features = features
        return self._anchor_features

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

    def _conditional_rows(self, data):
        # each log-weight is the constant less half the squared distance of
        # the row and the mean scaled by sigma, expanded into one product
        means = self._features(data) @ self.alpha + self.mu
        return _expanded_rows(data, means, -0.5 * self.dim * LOG_2PI - np.log(self.sigma).sum(),
                              self.sigma)

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
        model = KernelModel(self.anchors, alpha, mu, sigma, kernel=self.kernel,
                            gamma=gamma, alpha_penalty=self.alpha_penalty)
        model._anchor_sq = self._anchor_sq
        return model

    def penalty(self, vector):
        n, d = self.alpha.shape
        grad = np.zeros_like(vector)
        alpha_flat = vector[:n * d]
        grad[:n * d] = -2.0 * self.alpha_penalty * alpha_flat
        return float(-self.alpha_penalty * (alpha_flat ** 2).sum()), grad

    def grad_from_marginals(self, data, W, rho):
        var = self.sigma ** 2
        rows, cols = W.sum(axis=1), W.sum(axis=0)
        sq = self._data_sq_dists(data) if self.kernel == "rbf" else None
        feats = self._features(data, sq)
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
    data = _seed_rows(data)
    if gamma is None and kernel == "rbf":
        # a row block of distances at a time, each summed over the dimensions
        # as before; the median reads the off-diagonal entries as a view
        size = len(data)
        dists = np.empty((size, size))
        for rows in _row_blocks(size):
            dists[rows] = np.sqrt(((data[rows, None, :] - data[None, :, :]) ** 2).sum(axis=2))
        off = dists.reshape(-1)[1:].reshape(size - 1, size + 1)[:, :size]
        gamma = float(np.median(off)) or 1.0
    sigma = data.std(axis=0, ddof=1)
    sigma[sigma == 0] = 1e-6
    return KernelModel(anchors=data, alpha=np.zeros_like(data), mu=data.mean(axis=0),
                       sigma=sigma, kernel=kernel, gamma=gamma,
                       alpha_penalty=alpha_penalty)
