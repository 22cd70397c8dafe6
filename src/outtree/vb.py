"""Variational Bayes over tree structure and tabular parameters.

For the tabular model with Dirichlet priors, the posterior over (root
choice, tree, conditional tables) is approximated by a factorized family:
q(r) over roots, a Gibbs tree posterior q_r per root, and Dirichlet q_c
over the conditional tables. Coordinate ascent alternates: update q_c from
edge-marginal-weighted sufficient statistics, then the structure step:
rebuild the expected-log weights (digammas), read the new q(r) and the
q(r)-mixed edge marginals off one inverse of a bordered out-Laplacian,
and the bound off one determinant. A fit starts with the structure step
on its starting counts (the prior's, or a checkpoint's), so no per-root
quantity is ever computed. Every step increases a closed-form evidence
lower bound.

Rows with equal attributes are exchangeable nodes (a lumpable partition,
Kemeny & Snell 1960), so every round runs over the k distinct rows of the
data with their multiplicities n: the bordered Laplacian of the type
graph has dimension k + 1, and each row type adds one closed-form term
(``_type_posterior``). A round costs O(T D + k^3) for T rows of D
attributes instead of O(T^3), and the constants of a fit (the grouping,
the type root weights, the prior's ln Gamma terms) are made once, before
its rounds. The returned q(r) is expanded to the T rows at the end, and W
only when it is first read, so a fit holds O(T + k^2) numbers. Categorical
data with repeated rows gain: 61 of the 70 rows of the ``vb`` benchmark
repeat one of 9 distinct rows. With all rows distinct the type graph is
the data's, and the fit is the ungrouped one, with nothing to expand.

The root-table integral is kept exact against its prior (only one node is
the root, so no variational distribution is introduced for the root
parameters); the companion posterior root pseudo-counts are maintained as
the fitted root model. An exact enumeration of the log-evidence is
provided for small T as the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import treemath
from .errors import DataError, NumericalFaultError
from .models import (_checked_rows, _checked_weights, _table_rows, _tabular_values,
                     tabular_counts)
from .treemath import _logsumexp

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
    """One snapshot of the variational fit. A fit's ``edge_marginals``
    expand W to the T rows on first read (``_RowEdgeMarginals``)."""

    counts_root: list
    counts_cond: list
    q_root: np.ndarray
    edge_marginals: treemath.EdgeMarginals
    elbo: float
    elbo_trace: list = field(default_factory=list)


def _check_data(data, prior):
    data = _tabular_values(data, prior.alphabet_sizes)
    if data.shape[0] < 2:
        raise DataError("need at least 2 rows")
    return data


def _group_rows(data):
    """(rows, inverse, counts): the distinct rows of integer ``data`` in
    order of first occurrence, the index among them of every row, and how
    many rows equal each."""
    data = np.ascontiguousarray(data)
    # each row as one opaque record: equal rows are equal bytes, so sorting
    # the records groups them, in an order that is not the numeric one but
    # that the first occurrences undo. This unique took 24 us on the ``vb``
    # benchmark's 70 rows against 80 us for numpy's unique over axis 0 (one
    # core of a shared 2-core Xeon VM)
    records = data.view(np.dtype((np.void, data.itemsize * data.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(
        records, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return data[first[order]], rank[inverse], counts[order].astype(float)


def _with_sums(big_a):
    """A table with its column sums appended as a last row."""
    return np.concatenate([big_a, big_a.sum(axis=0, keepdims=True)])


def _expected_log_tables(tables):
    """E[ln theta_{a|b}] = digamma(A[a, b]) - digamma(sum_a A[a, b]) of every
    table A of pseudo-counts, with ``_with_sums(A)``: a list of (E[ln theta],
    counts) pairs, from one digamma call over all the tables."""
    counts = [_with_sums(np.asarray(big_a, dtype=float)) for big_a in tables]
    flat = np.concatenate([table.ravel() for table in counts])
    if not flat.min() > 0:
        raise ValueError("pseudo-counts must be strictly positive")
    psi, start, out = _digamma(flat), 0, []
    for table in counts:
        block = psi[start:start + table.size].reshape(table.shape)
        start += table.size
        out.append((block[:-1] - block[-1], table))
    return out


def _log_weights(data, elogs):
    """Weight matrix whose (i, j) log-entry sums elogs[d][x_id, x_jd] over d,
    filled and checked as ``build_beta``'s."""
    return _checked_weights(_table_rows(data, elogs), data.shape[0])


def expected_log_weights(data, counts_cond):
    """Weight matrix of exponentiated expected log-conditionals.

    E[ln theta_{a|b}] = digamma(A[a, b]) - digamma(sum_a A[a, b]), summed
    over dimensions.
    """
    data = _tabular_values(data, [big_a.shape[0] for big_a in counts_cond])
    return _log_weights(data, [elog for elog, _ in _expected_log_tables(counts_cond)])


def root_log_evidence(data, prior: DirichletPrior) -> np.ndarray:
    """ln of the exact prior integral of the root likelihood per node:
    ln m(X_r) = sum_d ln(a0_d[x_rd] / sum a0_d)."""
    return _root_log_m(_check_data(data, prior), prior)


def _root_log_m(data, prior):
    """``root_log_evidence`` of checked rows, any number of them."""
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


def update_q_root(beta_tilde, root_log_m, per_root_log_z=None, per_root=None):
    """New q(r), computed two ways that must agree (a test oracle).

    Route (a) is the literal update: tree entropy plus the expected edge
    score plus the root evidence. Route (b) is the algebraic simplification
    q(r) proportional to m(X_r) * Z_r of the expected-log weights, which
    follows from H(q_r) + E_{q_r}[ln weight] = ln Z_r. Disagreement beyond
    1e-9 raises, since it would mean the marginal/entropy machinery is
    inconsistent.
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
        if np.abs(norm_a - norm_b).max() > 1e-9:
            raise NumericalFaultError("q(r) update routes disagree")
    with np.errstate(under="ignore"):
        return np.exp(logits_b - _logsumexp(logits_b))


def update_q_c(data, prior: DirichletPrior, q_root, W):
    """Posterior pseudo-counts from edge-marginal-weighted statistics.

    W = sum_r q(r) P_r; the conditional counts absorb W-weighted child and
    parent indicators, the root counts absorb q(r)-weighted root values.
    The statistics are linear in W and q(r), so ``data`` may also be the
    distinct rows with W and q(r) summed over the rows equal to each.
    """
    data = _tabular_values(data, prior.alphabet_sizes)
    counts_root, counts_cond = [], []
    for d, (a0, big_a0) in enumerate(zip(prior.root, prior.cond)):
        counts, root_counts = tabular_counts(data[:, d], a0.shape[0], W, q_root)
        counts_cond.append(big_a0 + counts)
        counts_root.append(a0 + root_counts)
    return counts_root, counts_cond


def _prior_terms(prior: DirichletPrior):
    """The per-fit constants of the KL: every conditional prior table with
    its column sums (``_with_sums``) and their ln Gamma, as a list of
    (counts, ln Gamma) pairs."""
    return [(counts, _gammaln(counts)) for counts in map(_with_sums, prior.cond)]


def _kl_columns(elog, counts, prior_counts, prior_log_gamma):
    """KL(Dirichlet(A[:, b]) || Dirichlet(A0[:, b])) of every column b, from
    A's ``_expected_log_tables`` pair (elog, counts) and A0's
    ``_prior_terms`` pair. ln Gamma is differenced entry by entry before
    summing: at pseudo-counts near 1e6 its values reach 1e7, and summing
    each table first keeps their roundoff in the KL."""
    diff = _gammaln(counts) - prior_log_gamma
    return (diff[-1] - diff[:-1].sum(axis=0)
            + ((counts[:-1] - prior_counts[:-1]) * elog).sum(axis=0))


def dirichlet_kl(a, b) -> float:
    """KL divergence between Dirichlet(a) and Dirichlet(b)."""
    b = _with_sums(np.asarray(b, dtype=float)[:, None])
    [table] = _expected_log_tables([np.asarray(a)[:, None]])
    return float(_kl_columns(*table, b, _gammaln(b))[0])


def _kl_and_tree_prior(prior_terms, tables, size) -> float:
    """KL(q_c || prior) plus the uniform tree prior's (T - 1) ln T, given
    the prior's ``_prior_terms`` and the ``_expected_log_tables`` of q_c."""
    kl = sum(float(_kl_columns(elog, counts, *terms).sum())
             for (elog, counts), terms in zip(tables, prior_terms))
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
    return float(q @ (logits - np.log(q))) - _kl_and_tree_prior(
        _prior_terms(prior), _expected_log_tables(counts_cond), data.shape[0])


class _RowTypes:
    """The distinct rows of a fit's data and the constants of its rounds.

    ``rows``, ``inverse`` and ``counts`` are ``_group_rows(data)``;
    ``roots`` are the type root weights m(x_a) n_a; ``log_counts``,
    ``repeated`` (the types of more than one row), ``extra`` (their
    n_a - 1), ``log_count_total`` and ``pairs`` (per dimension, the flat
    index of (x_a, x_b) into its table at [b, a], for a repeated and b any)
    are ``_type_posterior``'s invariants, and ``prior_terms`` the KL's
    (``_prior_terms``).
    """

    def __init__(self, data, prior: DirichletPrior):
        self.size = data.shape[0]
        self.rows, self.inverse, self.counts = _group_rows(data)
        self.log_counts = np.log(self.counts)
        self.log_count_total = self.log_counts.sum()
        self.repeated = np.flatnonzero(self.counts > 1.0)
        self.extra = self.counts[self.repeated] - 1.0
        self.pairs = [column[self.repeated] * k + column[:, None]
                      for column, k in zip(self.rows.T, prior.alphabet_sizes)]
        self.roots = treemath.RootWeights(
            log_values=_root_log_m(self.rows, prior) + self.log_counts)
        self.prior_terms = _prior_terms(prior)


def _type_graph(types: _RowTypes, elogs):
    """The bordered record of the type graph, set up as
    ``models._build_bordered`` sets up a model's: the log-weights
    l_ab + ln n_a + ln n_b are checked a row block at a time
    (``models._checked_rows``) and rescaled into the bordered matrix, with no
    weight matrix behind it."""
    table_fill, log_counts = _table_rows(types.rows, elogs), types.log_counts

    def fill(rows, out, work):
        table_fill(rows, out, work)
        out += log_counts[rows, None]
        out += log_counts

    size = len(types.rows)
    row_scales = np.empty(size)
    return treemath._Bordered._set_up(size, _checked_rows(fill, size, row_scales),
                                      row_scales, lambda: types.roots)


def _type_posterior(types: _RowTypes, elogs):
    """(ln Z, W, rho) of the T rows from their k distinct rows ``types``
    under expected-log tables ``elogs``: W and rho summed over the rows of
    each type.

    A row of type a weights each row of type b by exp(l_ab), l_aa between
    two rows of type a. The type graph has log-weights
    l_ab + ln n_a + ln n_b off the diagonal and root log-weights
    ln m(x_a) + ln n_a; its bordered record gives ln Z_types, the edge
    masses between types and the root masses. The n_a - 1 vectors that sum
    to zero over the rows of type a are eigenvectors of the T-row Laplacian
    with eigenvalue s_a = sum_b n_b exp(l_ab), so
    ln Z = ln Z_types - sum_a ln n_a + sum_a (n_a - 1) ln s_a, and the edge
    mass from type b to type a gains (n_a - 1) n_b exp(l_ab) / s_a, within
    a type too. A single type is a one-node graph: Z_types = n m(x_a).
    """
    repeated = types.repeated
    if len(types.rows) == 1:
        log_z, w, rho = float(types.roots.log_values[0]), np.zeros((1, 1)), np.ones(1)
    else:
        record = _type_graph(types, elogs)
        w, rho = record.posterior_weights()
        log_z = record.log_z
    if repeated.size:
        # l_ab + ln n_b of every repeated type a; ln s_a is their logsumexp.
        # The terms are gathered at [b, a] and transposed: the layout sets
        # the order in which the sums over b add, and so the bytes
        terms = types.log_counts + sum(elog.take(pairs).T
                                       for elog, pairs in zip(elogs, types.pairs))
        top = terms.max(axis=1)
        with np.errstate(under="ignore"):
            share = np.exp(terms - top[:, None])
        total = share.sum(axis=1)
        share /= total[:, None]
        log_z += float(types.extra @ (top + np.log(total)) - types.log_count_total)
        w[repeated] += types.extra[:, None] * share
    return log_z, w, rho


def _structure_step(types: _RowTypes, counts_cond):
    """The structure half of a round, a pure function of ``counts_cond``,
    over the distinct rows ``types`` of the T rows (``_type_posterior``).

    Returns (W, q(r), ELBO): q(r) proportional to m(X_r) Z_r
    and W = sum_r q(r) P_r, the root posterior and edge marginals of the T
    rows summed over the rows of each type; with that q(r) the ELBO is
    ln Z_m - KL - (T - 1) ln T. The weights and the KL share one digamma
    call over every dimension's table.
    """
    tables = _expected_log_tables(counts_cond)
    log_z, w, q_root = _type_posterior(types, [elog for elog, _ in tables])
    w = treemath._clip_probabilities(w, "VB edge marginals")
    q_root = treemath._clip_probabilities(q_root, "VB root posterior")
    value = log_z - _kl_and_tree_prior(types.prior_terms, tables, types.size)
    return w, q_root, value


class _RowEdgeMarginals:
    """The ``treemath.EdgeMarginals`` of the T rows of a fit, held as the
    edge masses summed over row types (``w``, k x k). ``W`` expands them on
    first read and keeps the result: an edge between rows of types b and a
    has W_ab / (n_a n_b), W_aa / (n_a (n_a - 1)) within a type. With all
    rows distinct, W is ``w`` itself."""

    def __init__(self, w, types: _RowTypes):
        self._w, self._counts, self._inverse = w, types.counts, types.inverse

    @cached_property
    def W(self):
        counts, inverse = self._counts, self._inverse
        if len(counts) == len(inverse):  # the type graph is the data's
            return self._w
        pairs = counts[:, None] * counts
        np.fill_diagonal(pairs, counts * np.maximum(counts - 1.0, 1.0))
        w = (self._w / pairs)[np.ix_(inverse, inverse)]
        np.fill_diagonal(w, 0.0)
        return w


def vb_fit(data, prior: DirichletPrior, *, max_rounds=200, tol=1e-8,
           init_state: VariationalState | None = None) -> VariationalState:
    """Coordinate-ascent variational fit; the ELBO trace is nondecreasing.

    A round updates q_c from the current W, then runs the structure step
    (``_structure_step``). Both run over the k distinct rows of ``data``
    with their multiplicities, so a round costs O(T D + k^3) for T rows of
    D attributes. The returned q(r) is expanded to the T rows (a row of
    type a has q(r) = rho_a / n_a), and W is expanded when it is first read
    (``_RowEdgeMarginals``), so the fit holds O(T + k^2) numbers. The fit
    starts with the structure step on the prior's counts; a resumed fit
    starts with it on ``init_state``'s counts and keeps its ELBO trace, and
    reads nothing else from the state: a round's q(r) and W are a pure
    function of its counts, so a resumed fit repeats the straight run bit
    for bit. The fit stops after a round that improves the bound by less
    than ``tol``; a decrease within roundoff counts as no improvement, so
    ``tol=0`` runs every round. A decrease beyond roundoff raises, since
    exactly evaluated coordinate ascent cannot go down, and so do edge
    marginals read off an inaccurate inverse (``posterior_weights``).
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
    types = _RowTypes(data, prior)
    w, q_root, start = _structure_step(types, counts_cond)
    trace = trace or [start]
    current = trace[-1]
    # the KL terms cancel ln Gamma values of magnitude ~ count * ln(count),
    # so large counts carry proportionate roundoff, and the decrease guard
    # must not trip on that noise. No count of q_c exceeds the prior's
    # largest, column sums included, by more than the T - 1 edges
    biggest = max(float(counts.max()) for counts, _ in types.prior_terms) + types.size - 1
    slack = 1e-10 + 4e-15 * biggest * np.log(biggest + 2.0) * data.shape[1]
    for _ in range(max_rounds):
        counts_root, counts_cond = update_q_c(types.rows, prior, q_root, w)
        w, q_root, value = _structure_step(types, counts_cond)
        if value < current - slack:
            raise NumericalFaultError(
                f"ELBO decreased from {current} to {value}; coordinate ascent "
                "cannot do that, so this is a bug")
        improvement = max(value - current, 0.0)
        current = value
        trace.append(current)
        if improvement < tol:
            break
    return VariationalState(counts_root=counts_root, counts_cond=counts_cond,
                            q_root=(q_root / types.counts)[types.inverse],
                            edge_marginals=_RowEdgeMarginals(w, types),
                            elbo=current, elbo_trace=trace)


def exact_log_evidence(data, prior: DirichletPrior) -> float:
    """Enumerated log-evidence: sum over every (root, tree) of the exact
    Dirichlet integrals. Exponential in T; the oracle for small instances.
    The trees of each root are walked as one array of parent indices, and
    their edge counts are tallied in one array per dimension."""
    data = _check_data(data, prior)
    size = data.shape[0]
    root_log_m = root_log_evidence(data, prior)
    # the prior's ln Gamma terms, the same for every tree
    prior_terms = [(big_a0, _gammaln(big_a0.sum(axis=0)), _gammaln(big_a0))
                   for big_a0 in prior.cond]
    terms = []
    for root, others, parents in treemath._out_tree_parents(size):
        trees = len(parents)
        log_marginal_lik = np.full(trees, root_log_m[root])
        for d, (big_a0, log_gamma0_sum, log_gamma0) in enumerate(prior_terms):
            k = big_a0.shape[0]
            # tree t's edge from a parent valued b to a child valued a at [t, a, b]
            cells = data[others, d] * k + data[parents, d] + k * k * np.arange(trees)[:, None]
            counts = np.bincount(cells.ravel(), minlength=trees * k * k).reshape(trees, k, k)
            total = big_a0 + counts
            log_marginal_lik += ((log_gamma0_sum - _gammaln(total.sum(axis=1))).sum(axis=1)
                                 + (_gammaln(total) - log_gamma0).sum(axis=(1, 2)))
        terms.append(log_marginal_lik)
    return float(_logsumexp(np.concatenate(terms)) - (size - 1) * np.log(size))
