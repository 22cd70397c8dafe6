"""Variational Bayes over tree structure and tabular parameters.

For the tabular model with Dirichlet priors, the posterior over (root
choice, tree, conditional tables) is approximated by a factorized family:
q(r) over roots, a Gibbs tree posterior q_r per root, and Dirichlet q_c
over the conditional tables. Coordinate ascent alternates: update q_c from
edge-marginal-weighted sufficient statistics, then the structure step:
rebuild the expected-log weight matrix (digammas), read the new q(r) and
the q(r)-mixed edge marginals off one inverse of the bordered
out-Laplacian, and the bound off one determinant. A fit starts with the
structure step on its starting counts (the prior's, or a checkpoint's),
so no per-root quantity is ever computed. Every step increases a
closed-form evidence lower bound.

The root-table integral is kept exact against its prior (only one node is
the root, so no variational distribution is introduced for the root
parameters); the companion posterior root pseudo-counts are maintained as
the fitted root model. An exact enumeration of the log-evidence is
provided for small T as the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import treemath
from .errors import DataError, NumericalFaultError
from .models import tabular_counts
from .treemath import WeightMatrix, _logsumexp

# digamma's asymptotic series: the coefficients -B_2n / 2n (Bernoulli
# numbers) of y^-2n, n = 1..7, and the powers -2n
_DIGAMMA_SERIES = np.array([-1 / 12, 1 / 120, -1 / 252, 1 / 240, -1 / 132, 691 / 32760,
                            -1 / 12])
_DIGAMMA_POWERS = -2.0 * np.arange(1, 8)
_DIGAMMA_SHIFT = np.arange(10.0)


def _digamma(x):
    """digamma of every entry of an array of positive numbers.

    digamma(x) = digamma(y) - sum_{k<10} 1 / (x + k) with y = x + 10, and
    at y >= 10 the asymptotic series ln y - 1/(2y) - sum_n B_2n / (2n y^2n)
    through y^-14 leaves a remainder below 1e-16. The error is within
    4e-15 * max(1, |digamma(x)|) on [1e-3, 1e8].
    """
    x = np.asarray(x, dtype=float)
    y = x + 10.0
    shift = (1.0 / (x[..., None] + _DIGAMMA_SHIFT)).sum(axis=-1)
    series = (y[..., None] ** _DIGAMMA_POWERS) @ _DIGAMMA_SERIES
    return np.log(y) - (0.5 / y + shift) + series


def _gammaln(x):
    """ln Gamma of every entry of an array of positive numbers; the arrays
    here are alphabet-sized, so one ``math.lgamma`` per entry is cheap."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.lgamma, x.ravel().tolist()), float, x.size).reshape(x.shape)


@dataclass(frozen=True)
class DirichletPrior:
    """Per-dimension pseudo-counts: root vectors and conditional tables
    (column b = prior over child values given parent value b); all > 0."""

    root: tuple
    cond: tuple

    def __post_init__(self):
        root = tuple(np.asarray(a, dtype=float) for a in self.root)
        cond = tuple(np.atleast_2d(np.asarray(a, dtype=float)) for a in self.cond)
        if len(root) != len(cond):
            raise ValueError("need one root and one conditional block per dimension")
        for d, (a, big_a) in enumerate(zip(root, cond)):
            k = a.shape[0]
            if big_a.shape != (k, k):
                raise ValueError(f"conditional prior {d} must be {k} x {k}")
            if np.any(a <= 0) or np.any(big_a <= 0):
                raise ValueError("pseudo-counts must be strictly positive")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "cond", cond)

    @classmethod
    def uniform(cls, alphabet_sizes, count=1.0):
        return cls(root=tuple(np.full(k, count) for k in alphabet_sizes),
                   cond=tuple(np.full((k, k), count) for k in alphabet_sizes))

    @property
    def alphabet_sizes(self):
        return [a.shape[0] for a in self.root]


@dataclass
class VariationalState:
    """One snapshot of the variational fit."""

    counts_root: list
    counts_cond: list
    beta_tilde: WeightMatrix
    q_root: np.ndarray
    edge_marginals: treemath.EdgeMarginals
    elbo: float
    elbo_trace: list = field(default_factory=list)


def _check_data(data, prior):
    data = np.atleast_2d(np.asarray(data, dtype=np.int64))
    sizes = prior.alphabet_sizes
    if data.shape[1] != len(sizes):
        raise DataError(f"expected {len(sizes)} attribute columns, got {data.shape[1]}")
    for d, k in enumerate(sizes):
        if data[:, d].min() < 0 or data[:, d].max() >= k:
            raise DataError(f"column {d} has values outside [0, {k})")
    if data.shape[0] < 2:
        raise DataError("need at least 2 rows")
    return data


def _with_sums(big_a):
    """A table with its column sums appended as a last row."""
    return np.concatenate([big_a, big_a.sum(axis=0, keepdims=True)])


def _expected_log_table(big_a):
    """E[ln theta_{a|b}] = digamma(A[a, b]) - digamma(sum_a A[a, b]) of one
    table of pseudo-counts, from one digamma call, and ``_with_sums(A)``."""
    big_a = np.asarray(big_a, dtype=float)
    if not big_a.min() > 0:
        raise ValueError("pseudo-counts must be strictly positive")
    counts = _with_sums(big_a)
    psi = _digamma(counts)
    return psi[:-1] - psi[-1], counts


def _log_weights(data, elogs):
    """Weight matrix whose (i, j) log-entry sums elogs[d][x_id, x_jd] over d."""
    size = data.shape[0]
    log_beta = np.zeros((size, size))
    for d, elog in enumerate(elogs):
        values = data[:, d]
        log_beta += elog[values][:, values]
    np.fill_diagonal(log_beta, -np.inf)
    return WeightMatrix._owning(log_beta)


def expected_log_weights(data, counts_cond):
    """Weight matrix of exponentiated expected log-conditionals.

    E[ln theta_{a|b}] = digamma(A[a, b]) - digamma(sum_a A[a, b]), summed
    over dimensions.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.int64))
    return _log_weights(data, [_expected_log_table(big_a)[0] for big_a in counts_cond])


def root_log_evidence(data, prior: DirichletPrior) -> np.ndarray:
    """ln of the exact prior integral of the root likelihood per node:
    ln m(X_r) = sum_d ln(a0_d[x_rd] / sum a0_d)."""
    data = _check_data(data, prior)
    out = np.zeros(data.shape[0])
    for d, a in enumerate(prior.root):
        out += np.log(a / a.sum())[data[:, d]]
    return out


def _per_root_quantities(beta_tilde):
    """ln Z_r and the T x T x T stack of P_r: the O(T^4) test oracle."""
    log_z = treemath.log_partition_per_root(beta_tilde)
    stack = np.stack([treemath.per_root_marginal(beta_tilde, r)
                      for r in range(beta_tilde.size)])
    return log_z, stack


def update_q_root(beta_tilde, root_log_m, per_root_log_z=None, per_root=None,
                  check_tol=1e-9):
    """New q(r), computed two ways that must agree (a test oracle).

    Route (a) is the literal update: tree entropy plus the expected edge
    score plus the root evidence. Route (b) is the algebraic simplification
    q(r) proportional to m(X_r) * Z_r of the expected-log weights, which
    follows from H(q_r) + E_{q_r}[ln weight] = ln Z_r. Disagreement beyond
    ``check_tol`` raises, since it would mean the marginal/entropy
    machinery is inconsistent.
    """
    if per_root_log_z is None:
        per_root_log_z, per_root = _per_root_quantities(beta_tilde)
    logits_b = root_log_m + per_root_log_z
    if per_root is not None:
        size = beta_tilde.size
        logits_a = np.empty(size)
        for r in range(size):
            entropy = treemath.tree_entropy(beta_tilde, r)
            mask = per_root[r] > 0
            edge_score = np.sum(per_root[r][mask] * beta_tilde.log_entries[mask])
            logits_a[r] = root_log_m[r] + entropy + edge_score
        norm_a = logits_a - _logsumexp(logits_a)
        norm_b = logits_b - _logsumexp(logits_b)
        if np.abs(norm_a - norm_b).max() > check_tol:
            raise NumericalFaultError("q(r) update routes disagree")
    with np.errstate(under="ignore"):
        return np.exp(logits_b - _logsumexp(logits_b))


def update_q_c(data, prior: DirichletPrior, q_root, W):
    """Posterior pseudo-counts from edge-marginal-weighted statistics.

    W = sum_r q(r) P_r; the conditional counts absorb W-weighted child and
    parent indicators, the root counts absorb q(r)-weighted root values.
    """
    data = _check_data(data, prior)
    counts_root, counts_cond = [], []
    for d, (a0, big_a0) in enumerate(zip(prior.root, prior.cond)):
        counts, root_counts = tabular_counts(data[:, d], a0.shape[0], W, q_root)
        counts_cond.append(big_a0 + counts)
        counts_root.append(a0 + root_counts)
    return counts_root, counts_cond


def _kl_columns(elog, counts, prior_counts):
    """KL(Dirichlet(A[:, b]) || Dirichlet(A0[:, b])) of every column b, from
    A's ``_expected_log_table`` (elog, counts) and prior_counts =
    ``_with_sums(A0)``. ln Gamma is differenced entry by entry before
    summing: at pseudo-counts near 1e6 its values reach 1e7, and summing
    each table first keeps their roundoff in the KL."""
    log_gamma = _gammaln(np.stack([counts, prior_counts]))
    diff = log_gamma[0] - log_gamma[1]
    return (diff[-1] - diff[:-1].sum(axis=0)
            + ((counts[:-1] - prior_counts[:-1]) * elog).sum(axis=0))


def dirichlet_kl(a, b) -> float:
    """KL divergence between Dirichlet(a) and Dirichlet(b)."""
    b = _with_sums(np.asarray(b, dtype=float)[:, None])
    return float(_kl_columns(*_expected_log_table(np.asarray(a)[:, None]), b)[0])


def _kl_and_tree_prior(prior: DirichletPrior, tables, size) -> float:
    """KL(q_c || prior) plus the uniform tree prior's (T - 1) ln T, given
    the ``_expected_log_table`` of every table of q_c."""
    kl = sum(float(_kl_columns(elog, counts, _with_sums(big_a0)).sum())
             for (elog, counts), big_a0 in zip(tables, prior.cond))
    return kl + (size - 1) * math.log(size)


def elbo(data, prior: DirichletPrior, counts_cond, q_root, beta_tilde) -> float:
    """Evidence lower bound at any q(r), every term in closed form (a test
    oracle: it runs the O(T^4) per-root path).

    The expected edge score and the entropy of each q_r add up to ln Z_r,
    so the bound is q.(ln m + ln Z_r) + H(q) - KL(q_c || prior)
    - (T - 1) ln T, with ln Z_r from ``log_partition_per_root``.
    """
    data = _check_data(data, prior)
    per_root_log_z = treemath.log_partition_per_root(beta_tilde)
    q_root = np.asarray(q_root, dtype=float)
    held = q_root > 0.0
    q = q_root[held]
    logits = root_log_evidence(data, prior)[held] + per_root_log_z[held]
    tables = [_expected_log_table(big_a) for big_a in counts_cond]
    return float(q @ (logits - np.log(q))) \
        - _kl_and_tree_prior(prior, tables, data.shape[0])


def _structure_step(data, prior: DirichletPrior, counts_cond, roots):
    """The structure half of a round, a pure function of ``counts_cond``.

    Returns (beta_tilde, W, q(r), ELBO): the expected-log weights, then
    q(r) proportional to m(X_r) Z_r and W = sum_r q(r) P_r as the root
    posterior and edge marginals of one bordered inverse with root weights
    m(X_r); with that q(r) the ELBO is ln Z_m - KL - (T - 1) ln T. The
    weights and the KL share one digamma evaluation per dimension.
    """
    tables = [_expected_log_table(big_a) for big_a in counts_cond]
    beta_tilde = _log_weights(data, [elog for elog, _ in tables])
    record = treemath._Bordered(beta_tilde, roots)
    w, q_root = record.posterior_weights()
    w = treemath._clip_probabilities(w, "VB edge marginals")
    q_root = treemath._clip_probabilities(q_root, "VB root posterior")
    value = record.log_z - _kl_and_tree_prior(prior, tables, data.shape[0])
    return beta_tilde, w, q_root, value


def vb_fit(data, prior: DirichletPrior, *, max_rounds=200, tol=1e-8,
           init_state: VariationalState | None = None) -> VariationalState:
    """Coordinate-ascent variational fit; the ELBO trace is nondecreasing.

    A round updates q_c from the current W, then runs the structure step
    (``_structure_step``). The fit starts with the structure step on the
    prior's counts; a resumed fit starts with it on ``init_state``'s
    counts and keeps its ELBO trace, and reads nothing else from the state:
    a round's q(r) and W are a pure function of its counts, so a resumed
    fit repeats the straight run bit for bit. A decrease beyond roundoff
    raises, since exactly evaluated coordinate ascent cannot go down.
    """
    data = _check_data(data, prior)
    if init_state is None:
        counts_root = [a.copy() for a in prior.root]
        counts_cond = [big_a.copy() for big_a in prior.cond]
        trace = []
    else:
        counts_root = [np.asarray(a, dtype=float).copy() for a in init_state.counts_root]
        counts_cond = [np.asarray(a, dtype=float).copy() for a in init_state.counts_cond]
        trace = [float(v) for v in init_state.elbo_trace]
    roots = treemath.RootWeights(log_values=root_log_evidence(data, prior))
    beta_tilde, w, q_root, start = _structure_step(data, prior, counts_cond, roots)
    trace = trace or [start]
    current = trace[-1]
    # the KL terms cancel gammaln values of magnitude ~ count * log(count),
    # so huge pseudo-counts carry proportionate roundoff; the decrease guard
    # must not trip on that noise
    biggest = max(float(np.max(big_a)) for big_a in prior.cond)
    slack = 1e-10 + 4e-15 * biggest * np.log(biggest + 2.0) * data.shape[1]
    for _ in range(max_rounds):
        counts_root, counts_cond = update_q_c(data, prior, q_root, w)
        beta_tilde, w, q_root, value = _structure_step(data, prior, counts_cond, roots)
        if value < current - slack:
            raise NumericalFaultError(
                f"ELBO decreased from {current} to {value}; coordinate ascent "
                "cannot do that, so this is a bug")
        improvement = value - current
        current = value
        trace.append(current)
        if improvement < tol:
            break
    return VariationalState(counts_root=counts_root, counts_cond=counts_cond,
                            beta_tilde=beta_tilde, q_root=q_root,
                            edge_marginals=treemath.EdgeMarginals(W=w), elbo=current,
                            elbo_trace=trace)


def exact_log_evidence(data, prior: DirichletPrior) -> float:
    """Enumerated log-evidence: sum over every (root, tree) of the exact
    Dirichlet integrals. Exponential in T; the oracle for small instances."""
    data = _check_data(data, prior)
    size = data.shape[0]
    root_log_m = root_log_evidence(data, prior)
    # the prior's ln Gamma terms, the same for every tree
    prior_terms = [(big_a0, _gammaln(big_a0.sum(axis=0)), _gammaln(big_a0))
                   for big_a0 in prior.cond]
    terms = []
    for tree in treemath.enumerate_out_trees(size):
        log_marginal_lik = root_log_m[tree.root]
        for d, (big_a0, log_gamma0_sum, log_gamma0) in enumerate(prior_terms):
            k = big_a0.shape[0]
            counts = np.zeros((k, k))
            for child, parent in tree.edges():
                counts[data[child, d], data[parent, d]] += 1.0
            total = big_a0 + counts
            log_marginal_lik += float(
                (log_gamma0_sum - _gammaln(total.sum(axis=0))).sum()
                + (_gammaln(total) - log_gamma0).sum())
        terms.append(log_marginal_lik)
    return float(_logsumexp(terms) - (size - 1) * np.log(size))
