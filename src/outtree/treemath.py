"""Weighted out-tree combinatorics via the directed matrix tree theorem.

An out-tree on T nodes is a rooted directed tree whose edges all point away
from the root. Given a nonnegative weight matrix beta with beta[u, v] the
weight of edge v -> u, the cofactor of the out-Laplacian at a root r equals
the total weight of all out-trees rooted at r. This module computes those
partition functions (exactly, in log domain), root posteriors, edge
marginals and tree entropies. A brute-force enumeration oracle is provided
for small T.

One private record per (weights, roots) pair, ``_Bordered``, sets up the
row-rescaled bordered Laplacian once: ln Z is read off its determinant,
the edge marginals and root posterior off its inverse, each computed only
when read. ``log_partition``, ``posterior_weights`` and the greedy-search
session read such records, so a value and its gradient share one set-up.
The per-root routes (``log_partition_per_root``, ``per_root_marginal``,
``tree_entropy``) read a record whose root weight is all on r: its border
is e_r, so its determinant is the cofactor at r and its inverse gives P_r.
Only this module knows the record's layout: other modules set one up
(``_Bordered(beta, roots)``, ``_Bordered._set_up``) and read it through
``log_z``, ``factor()``, ``posterior_weights()`` (which checks the one
kept inverse and drops it), ``release()`` and the session's flip patch and
candidate screen.
The likelihood's records come straight from a model instead
(``models._build_bordered``): the record's one fill loop takes each row
block of log-weights from either a ``WeightMatrix`` or the model's
row-block kernel, so no T x T log-weights are made on that path.
Above dimension ``_BLOCK_LEAF`` the inverse is assembled by recursive block
elimination on matrix products, with LAPACK leaves of at most half that
dimension, and kept only if it passes an O(T^2) residual certificate;
otherwise, and at or below that dimension, it is numpy's ``inv``, bit for
bit. The elimination runs in place in one array, the inverse followed by
a scratch of about T^2 / 2 floats, so it makes no temporary per level.
It gives ln det too, as the sum of its leaves' log-determinants: each of
``fit_ml``'s line-search trials, whose gradient may follow, is factored
once by ``_Bordered.factor`` and takes its value off the certified
recursion. Every ln Z that is compared with another record's (the
held-out score, the semi-supervised session's flips, restarts and theta
steps), the paths that read no inverse (``log_partition``,
``tdid_log_likelihood``) and every matrix at or below ``_BLOCK_LEAF``
read it off numpy's ``slogdet``.
Weights built from a fresh array (``build_beta``, the semi-supervised joint
weights, the VB expected-log weights) take it through the private
``WeightMatrix._owning``, which does not copy it and, given the row scales
of a checked fill (``models._checked_rows``), validates nothing again; the
public constructor copies. A weight matrix holds its log-weights and their
row maxima, and nothing else. The bordered matrix is the one home of the
rescaled weights: it is filled one block of rows of about ``_BLOCK_BYTES``
at a time (log-weights in a scratch block, row maxima, subtraction and
exp, row sums, negation into the matrix), and the edge marginals and the
greedy search's screen read the rescaled weights back from it.
They need no finite mask, because validation leaves -inf as the only
non-finite log-weight and exp maps it to exactly 0. A replaced row and
column (a label flip) is patched into a copy of the current bordered
matrix, equal bit for bit to a fresh fill.

Z = 0 is decided once, from the weights' support. Z is a sum of
nonnegative tree weights (Tutte's directed matrix tree theorem), so it is
0 exactly when no out-tree from a root of positive weight fits inside the
support of the log-weights: a record's set-up checks that
(``_check_support``) and raises ``ZeroPartitionError``, and nothing else
in a record does. Every later failure of a record's factorization (an LU
sign <= 0 or an exactly singular LU, a singular LAPACK inverse, an inverse
that fails its accuracy check) raises ``NumericalFaultError``: a pivot
that underflowed is roundoff, not a structural zero.

Weights, root weights and trees are immutable after construction and safe
to share across threads; a record computes its determinant and inverse on
first read, and it and the factorization session are single-writer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalFaultError, ZeroPartitionError

# Enumeration is capped here: T=7 already means 7^6 = 117649 out-trees.
MAX_ENUMERATION_NODES = 7


def _frozen(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


class WeightMatrix:
    """T x T nonnegative edge weights; entry (u, v) weights the edge v -> u.

    The log-domain matrix is authoritative: structural zeros are stored as
    -inf, and the diagonal is always -inf (no self edges). Because every
    out-tree uses exactly one entry from each non-root row, row rescaling
    factors out of all partition functions exactly; computations therefore
    use the rescaled weights exp(log_entries - row_scales[:, None]) with
    ``row_scales`` the largest finite log entry of each row. Scaled entries
    lie in [0, 1] with a 1 in every row, which keeps the best tree's weight
    product (and hence the determinant) within floating-point range no
    matter how many thousands of nats the raw rows span. ln Z_r picks up
    the correction scale_total - row_scales[r], and the root weights absorb
    exp(-row_scales[r]) inside the augmented determinant. The bordered
    Laplacian (``_Bordered``) is filled from ``log_entries`` directly and
    holds the rescaled weights; ``scaled`` derives them afresh.

    Validation admits no NaN and no +inf, so -inf is the only non-finite
    log-weight: the row maximum is the largest finite entry (or -inf for a
    row of structural zeros, whose scale is 0), and exp maps -inf to exactly
    0, so the derivation needs no finite mask. ``structural_zeros`` says
    whether an off-diagonal log-weight is -inf, from the same count of
    finite entries as validation; weights of a checked fill have none.
    """

    __slots__ = ("log_entries", "size", "row_scales", "scale_total", "structural_zeros")

    def __init__(self, entries=None, *, log_entries=None):
        if (entries is None) == (log_entries is None):
            raise ValueError("pass exactly one of entries= or log_entries=")
        if entries is not None:
            entries = np.asarray(entries, dtype=float)
            _check_square(entries)
            if not np.all(np.isfinite(entries)) or np.any(entries < 0):
                raise ValueError("weights must be finite and nonnegative")
            if np.any(np.diag(entries) != 0.0):
                raise ValueError("diagonal weights must be zero")
            with np.errstate(divide="ignore"):
                log_entries = np.log(entries)
        else:
            log_entries = np.array(log_entries, dtype=float)
        self._set(log_entries)

    @classmethod
    def _owning(cls, log_entries, row_scales=None):
        """Matrix that takes the fresh float64 array ``log_entries`` as its
        own: not copied, and read-only from here on; see ``_set``."""
        matrix = cls.__new__(cls)
        matrix._set(log_entries, row_scales)
        return matrix

    def _set(self, log_entries, row_scales=None):
        """Set every field, taking ownership of ``log_entries``. They are
        validated as by the public constructor unless their ``row_scales``
        are given, which a caller does only for log-weights it has checked
        to hold no non-finite entry off a -inf diagonal (a checked fill,
        ``models._checked_rows``, or a flip patch of such weights)."""
        if row_scales is None:
            structural_zeros = _validated_zeros(log_entries)
            row_scales = _row_scales(log_entries)
        else:
            structural_zeros = False
        log_entries.setflags(write=False)
        row_scales.setflags(write=False)
        self.log_entries = log_entries
        self.size = log_entries.shape[0]
        self.row_scales = row_scales
        self.scale_total = float(row_scales.sum())
        self.structural_zeros = structural_zeros

    @property
    def scaled(self):
        """exp(log_entries - row_scales[:, None]), derived on each read one
        row block at a time (the bordered fill's bytes), and read-only."""
        scaled = np.empty((self.size, self.size))
        with np.errstate(under="ignore"):
            for rows in _row_blocks(self.size):
                _scaled_rows(*self._log_rows(rows), scaled[rows])
        scaled.setflags(write=False)
        return scaled

    def _log_rows(self, rows, out=None, work=None):
        """Log-weights and row scales of the row slice ``rows``; a row source
        of ``_Bordered._fill`` that writes into neither block."""
        return self.log_entries[rows], self.row_scales[rows]

    @property
    def entries(self):
        """Weights in the linear domain (may underflow for extreme logs)."""
        with np.errstate(under="ignore"):
            out = np.exp(self.log_entries)
        return out


class RootWeights:
    """Nonnegative per-node root weights p(X_r), kept in log domain."""

    __slots__ = ("log_values", "size", "log_total", "normalized")

    def __init__(self, values=None, *, log_values=None):
        if (values is None) == (log_values is None):
            raise ValueError("pass exactly one of values= or log_values=")
        if values is not None:
            values = np.asarray(values, dtype=float)
            if not np.all(np.isfinite(values)) or np.any(values < 0):
                raise ValueError("root weights must be finite and nonnegative")
            with np.errstate(divide="ignore"):
                log_values = np.log(values)
        else:
            log_values = np.array(log_values, dtype=float)
            if np.any(np.isnan(log_values)) or np.any(log_values == np.inf):
                raise ValueError("log root weights must be < +inf and not NaN")
        if log_values.ndim != 1:
            raise ValueError("root weights must be a vector")
        self.log_values = _frozen(log_values)
        self.size = log_values.shape[0]
        self.log_total = float(_logsumexp(self.log_values))
        if not np.isfinite(self.log_total):
            raise ValueError("at least one root weight must be positive")
        with np.errstate(under="ignore"):
            self.normalized = _frozen(np.exp(self.log_values - self.log_total))


@dataclass(frozen=True)
class OutTree:
    """Rooted directed tree over node indices.

    ``parent[t]`` is the parent of node t; the root's entry is -1.
    """

    root: int
    parent: np.ndarray

    def __post_init__(self):
        parent = _frozen(self.parent, dtype=np.int64)
        object.__setattr__(self, "parent", parent)
        size = parent.shape[0]
        if not 0 <= self.root < size:
            raise ValueError("root index out of range")
        if parent[self.root] != -1:
            raise ValueError("root must have no parent")
        if np.count_nonzero(parent == -1) != 1:
            raise ValueError("exactly one node may lack a parent")
        if np.any((parent < -1) | (parent >= size)):
            raise ValueError("parent indices out of range")
        if not _reaches_root(parent.tolist(), self.root):
            raise ValueError("parent links contain a cycle")

    @property
    def size(self):
        return self.parent.shape[0]

    def edges(self):
        """(child, parent) pairs; the root contributes no edge."""
        return [(t, int(p)) for t, p in enumerate(self.parent) if p != -1]

    def topological_order(self):
        """Node indices root-first, every parent before its children."""
        children = [[] for _ in range(self.size)]
        for child, par in self.edges():
            children[par].append(child)
        order, stack = [], [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(children[node])
        return order


@dataclass(frozen=True)
class LogPartition:
    """ln Z, optionally with the per-root vector ln Z_r."""

    log_z: float
    per_root_log_z: np.ndarray | None = None


@dataclass(frozen=True)
class EdgeMarginals:
    """Posterior edge probabilities W[u, v] = P(edge v -> u in the tree)."""

    W: np.ndarray


def _check_square(a):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("weight matrix must be square")


def _validated_zeros(log_entries):
    """Check square log-weights with a -inf diagonal and at least 2 nodes,
    and return whether they hold a structural zero off the diagonal."""
    _check_square(log_entries)
    if np.any(np.diag(log_entries) != -np.inf):
        raise ValueError("diagonal log-weights must be -inf")
    if log_entries.shape[0] < 2:
        raise ValueError("need at least 2 nodes")
    # the diagonal was checked to hold ``size`` -inf entries
    return _has_log_zeros(log_entries, log_entries.shape[0])


# The O(T^2) passes over a weight matrix (the model's log-conditionals and
# their check, the row scales and exp) run over blocks of whole rows of
# about this many bytes of float64, so each block's temporaries stay in
# cache and no T x T temporary is made. Every matrix of up to 181 rows is
# one block, so the semi-supervised (T=90) and VB (T=70) weights take one
# pass each, as unblocked; fixed blocks of 32 rows made their set-up slower.
_BLOCK_BYTES = 256 * 1024


# The scratch block that W's scaled weights are read back into is smaller.
# Reading W off a kept inverse at T+1 = 301 took a median 942-981 us with
# 256 KiB blocks, 872-921 us with these and 815-849 us from a stored
# rescaled copy (one OpenBLAS thread on a shared 2-core Xeon VM, 300 calls
# in each of two runs).
_SCRATCH_BYTES = 64 * 1024


# Elements per operand of the buffers numpy gives a ufunc call with a
# broadcast or strided operand (the row-scale subtraction, 0 - x into the
# strided core) during a fill; numpy's default is 8192, 64 KiB each.
# Buffering only copies, and the row sums reduce contiguous rows, which need
# no buffer, so the bytes are the same. Filling the bordered matrix of a
# Gaussian model at T=1000 took a median 4.49-4.56 ms with these against
# 4.85-4.90 ms with the default, and at T=300 0.57-0.59 against 0.59-0.62 ms
# (one OpenBLAS thread on a shared 2-core Xeon VM, three runs of 30 and 100
# alternating calls); the default's buffers also added 0.045 T^2 float64 to
# the peak memory of a fill at T=400.
_UFUNC_BUFSIZE = 1024


def _block_rows(columns, block_bytes=_BLOCK_BYTES):
    """Rows per block of a float64 matrix with ``columns`` columns."""
    return max(1, block_bytes // (8 * max(columns, 1)))


def _row_blocks(size, block_bytes=_BLOCK_BYTES):
    """Slices of ``_block_rows`` rows covering a size x size matrix."""
    step = _block_rows(size, block_bytes)
    return [slice(start, min(start + step, size)) for start in range(0, size, step)]


def _row_scales(log_rows, out=None):
    """The largest entry of each row of validated log-weights, 0 for a row
    of structural zeros; written into ``out`` when given."""
    scales = np.max(log_rows, axis=1, out=out)
    scales[scales == -np.inf] = 0.0
    return scales


def _scaled_rows(log_rows, scales, out):
    """Write exp(log_rows - scales[:, None]), the rescaled weights of a row
    block, into ``out`` (which may be ``log_rows``) and return it; the
    caller ignores underflow."""
    np.subtract(log_rows, scales[:, None], out=out)
    return np.exp(out, out=out)


def _has_log_zeros(a, known=0):
    """Whether ``a`` holds a -inf beyond the ``known`` -inf entries already
    checked; NaN and +inf raise ``ValueError``.

    One finite count settles the common case: only an array with more
    non-finite entries than the known ones is searched for NaN and +inf.
    """
    zeros = a.size - np.count_nonzero(np.isfinite(a)) - known
    if zeros and (np.isnan(a).any() or (a == np.inf).any()):
        raise ValueError("log-weights must be < +inf and not NaN")
    return zeros > 0


def _logsumexp(a):
    """ln sum exp(a) of a vector.

    The maximum is separated out and its ties counted, so the result is
    log1p(rest / ties) + log(ties) + max: the formula, and bit for bit the
    result, of the library logsumexp the tests compare against.
    """
    a = np.asarray(a)
    a_max = a.max()
    if not np.isfinite(a_max):
        return a_max
    ties = a == a_max
    count = np.count_nonzero(ties)
    # the ties stay in place as -inf (exp 0), so the sum pairs terms as the reference's does
    with np.errstate(under="ignore"):
        rest = np.exp(np.where(ties, -np.inf, a) - a_max).sum()
    return np.log1p(rest / count) + np.log(count) + a_max


def _check_sizes(beta, roots):
    if beta.size != roots.size:
        raise ValueError("weight matrix and root weights disagree on T")


def _check_support(beta, roots):
    """Raise ``ZeroPartitionError`` where weights with structural zeros
    support no out-tree from a root of positive weight."""
    if beta.structural_zeros:
        candidates = np.flatnonzero(roots.log_values > -np.inf)
        if not _has_positive_arborescence(beta.log_entries > -np.inf, candidates):
            raise ZeroPartitionError("no out-tree has positive weight")


class _Bordered:
    """The row-rescaled bordered Laplacian of one (weights, roots) pair.

    ``matrix`` is [[1, p^T], [-p, Q]], Q = diag(row sums) - scaled weights
    and p the root weights p(X_r) exp(-row_scales[r]), normalized: its
    determinant is sum_r p(r) Z_r of the scaled weights, and ln Z =
    ``offset`` + ``logdet`` exactly. Q is written one row block at a time
    (exp, row sums, 0 - x) from the log-weights of a ``WeightMatrix``, or
    of a model's row-block kernel (``_set_up``; ``beta`` is then None),
    so 0 - Q off the diagonal is the scaled weights exactly, and the record
    is their only home.
    ``logdet`` (numpy's ``slogdet``) and the record's one inverse, a
    ``_block_inverse`` triple (X, residual, ln det) that
    ``posterior_weights`` checks and drops, are made on first read and
    kept; X is numpy's ``inv`` up to dimension ``_BLOCK_LEAF`` and wherever
    the certificate fails. ``factor`` reads ln Z off a certified triple
    instead, for a ``fit_ml`` trial whose gradient may follow; ``logdet``
    stays ``slogdet``'s, so every ln Z compared with another record's is
    taken one way. The paths that read no inverse (``log_partition``,
    ``tdid_log_likelihood``, the held-out score's union, the label flips)
    take only ``slogdet``: an inverse at dimension 1001 costs about 2.3 of
    them. Against mpmath at 30 digits the recursion's ln Z was
    within 2.1e-11 at T=300 and 2.7e-12 at T=150, LU's within 3.0e-12 and
    1.9e-12 (spiral rows under ``gaussian_init_iid``); on the benchmark
    fits' records the two agreed within 5.4e-14 relative. Weights
    with structural zeros are first checked for an out-tree over their
    support: where none exists Z = 0 exactly, but the LU can still return a
    small positive determinant made of roundoff, so this raises
    ``ZeroPartitionError`` before any factoring. That check alone decides
    Z = 0: a record that passed it and then fails to factor (an LU sign
    <= 0, a singular or inaccurate inverse) raises ``NumericalFaultError``.
    """

    beta = None  # the weights of a record set up from a ``WeightMatrix``

    def __init__(self, beta: WeightMatrix, roots: RootWeights):
        _check_sizes(beta, roots)
        _check_support(beta, roots)
        self._fill(beta.size, beta._log_rows)
        self.beta = beta
        self._border(beta.row_scales, roots)

    def _rebordered(self, roots):
        """Record of this record's weights under other root weights: a copy
        of the matrix whose border alone is written again, equal bit for bit
        to a fresh record of ``(self.beta, roots)``."""
        _check_support(self.beta, roots)
        record = _Bordered.__new__(_Bordered)
        record.matrix = self.matrix.copy()
        record.beta = self.beta
        record._border(self.beta.row_scales, roots)
        return record

    @classmethod
    def _set_up(cls, size, log_rows, row_scales, roots):
        """Record with no ``WeightMatrix`` behind it, filled from the row
        source ``log_rows`` (see ``_fill``), which leaves the row scales in
        ``row_scales``, and bordered with ``roots()``, called after the fill
        so that a fault of the weights is raised before one of the roots."""
        record = cls.__new__(cls)
        record._fill(size, log_rows)
        record._border(row_scales, roots())
        return record

    def _fill(self, size, log_rows):
        """Write Q into the core of a fresh bordered matrix, one block of
        ``_row_blocks(size)`` at a time. ``log_rows(rows, out, work)``
        returns the validated log-weights of the row slice ``rows`` and their
        row scales; it may write the log-weights into ``out``, a contiguous
        scratch block of that many rows, and overwrite ``work``, a second
        one."""
        self.matrix = np.empty((size + 1, size + 1))
        # Q = diag(row sums) - weights, filled in place (the diagonal weights
        # are 0); 0 - x, not -x, keeps a zero weight +0.0, so 0 - Q gives the
        # weights back bit for bit. Each block is scaled in a contiguous
        # scratch array: ufuncs on the strided core ran at half the speed.
        # The block's own rows of the matrix are not written until its last
        # step, so until then their memory is the ``work`` block
        core, flat = self.matrix[1:, 1:], self.matrix.reshape(-1)
        blocks = _row_blocks(size)
        scratch, sums = np.empty((blocks[0].stop, size)), np.empty(size)
        with np.errstate(under="ignore"):
            np.setbufsize(_UFUNC_BUFSIZE)  # restored as the errstate exits
            for rows in blocks:
                count = rows.stop - rows.start
                part = scratch[:count]
                start = (rows.start + 1) * (size + 1)
                work = flat[start:start + count * size].reshape(count, size)
                part = _scaled_rows(*log_rows(rows, part, work), part)
                np.add.reduce(part, axis=1, out=sums[rows])
                np.subtract(0.0, part, out=core[rows])
        self.matrix.reshape(-1)[size + 2::size + 2] += sums

    def _border(self, row_scales, roots):
        """Write the root border of ``matrix`` and set the record's row
        scales, root weights, normalized border p and ln Z offset."""
        adjusted_log = roots.log_values - row_scales
        adjusted_total = float(_logsumexp(adjusted_log))
        with np.errstate(under="ignore"):
            self.normalized = np.exp(adjusted_log - adjusted_total)
        self.matrix[0, 0] = 1.0
        self.matrix[0, 1:] = self.normalized
        self.matrix[1:, 0] = -self.normalized
        self.row_scales, self.roots = row_scales, roots
        self.offset = float(row_scales.sum()) + adjusted_total

    def _crossed(self, node, row_logs, column_logs):
        """Record of these weights with row and column ``node`` replaced by
        ``row_logs`` and ``column_logs`` (their diagonal entries ignored),
        not yet factored.

        Equal bit for bit to a fresh record of the same log-weights, but the
        bordered matrix is a copy of this one in which only row ``node``,
        column ``node`` and the rows whose scale moved are exponentiated
        again, each the same exp of the same difference as in a fresh fill.
        The row scales are taken again in one pass; a maximum is exact in
        any order. Every row sum is taken again as the sum of the row's
        entries 0 - x with the diagonal zeroed, and negated: pairwise
        summation commutes with negation, and no sum is zero (each row holds
        a 1), so this is the fresh fill's sum bit for bit. Weights with
        structural zeros, before or after, get a fresh record of validated
        weights. A NaN or +inf in either vector raises ``ValueError``.
        """
        log_entries = self.beta.log_entries.copy()
        log_entries[node] = row_logs
        log_entries[:, node] = column_logs
        log_entries[node, node] = -np.inf
        column = log_entries[:, node]
        zeros = _has_log_zeros(log_entries[node], 1) | _has_log_zeros(column, 1)
        if self.beta.structural_zeros or zeros:
            return _Bordered(WeightMatrix._owning(log_entries), self.roots)
        row_scales = log_entries.max(axis=1)
        moved = row_scales != self.beta.row_scales
        moved[node] = True
        rows = np.flatnonzero(moved)
        beta = WeightMatrix._owning(log_entries, row_scales)
        record = _Bordered.__new__(_Bordered)
        record.matrix = self.matrix.copy()
        core = record.matrix[1:, 1:]
        with np.errstate(under="ignore"):
            core[:, node] = np.subtract(0.0, np.exp(column - row_scales))
            core[rows] = np.subtract(0.0, np.exp(log_entries[rows] - row_scales[rows, None]))
        np.fill_diagonal(core, 0.0)
        np.fill_diagonal(core, np.subtract(0.0, np.add.reduce(core, axis=1)))
        record.beta = beta
        record._border(row_scales, self.roots)
        return record

    def _screen(self, node, row_logs, column_logs):
        """First-order change in ln Z when row and column ``node`` of the
        log-weights take ``row_logs`` and ``column_logs``, read off the kept
        ``inverse`` unchecked (it only ranks candidates): an edit of the
        scaled weight of v -> u by delta moves it
        by delta * (inv[u, u] - inv[v, u]) (indices shifted by the border).
        The current scaled weights are read off the matrix as -Q: x - (0 - q)
        is x + q exactly, and each delta's diagonal entry, a row sum, is
        multiplied by an exact 0."""
        q, core = self.matrix[1:, 1:], self.inverse[1:, 1:]
        with np.errstate(under="ignore"):
            row_delta = np.exp(row_logs - self.row_scales[node]) + q[node]
            column_delta = np.exp(column_logs - self.row_scales) + q[:, node]
        return float(row_delta @ (core[node, node] - core[:, node])
                     + column_delta @ (np.diag(core) - core[node]))

    @cached_property
    def logdet(self) -> float:
        return _augmented_logdet(self.matrix)

    @property
    def log_z(self) -> float:
        return self.offset + self.logdet

    @cached_property
    def _inverted(self):
        """``_block_inverse(matrix)``: (X, residual, ln det)."""
        try:
            return _block_inverse(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise NumericalFaultError("singular bordered Laplacian whose weights "
                                      "support an out-tree") from exc

    @property
    def inverse(self) -> np.ndarray:
        """The kept inverse of ``matrix`` (do not mutate)."""
        return self._inverted[0]

    def factor(self) -> float:
        """ln Z of a record whose gradient follows, read off the inverse that
        gradient reads. Above dimension ``_BLOCK_LEAF`` this inverts
        ``matrix`` and returns ``offset`` plus the certified recursion's
        log-determinant if that is finite. Where the certificate fails (the
        inverse is then LAPACK's), and at or below that dimension, where
        this inverts nothing, it returns ``log_z``. ``logdet`` and ``log_z``
        are ``_augmented_logdet``'s throughout, so a value compared with
        another record's ln Z (the held-out score's union) never mixes the
        two methods."""
        if self.matrix.shape[0] > _BLOCK_LEAF:
            logdet = self._inverted[2]
            if np.isfinite(logdet):
                return self.offset + float(logdet)
        return self.log_z

    def release(self):
        """Drop the kept inverse, if any, and with it its scratch."""
        self.__dict__.pop("_inverted", None)

    def posterior_weights(self):
        """(W, rho) read off the kept inverse, made now if need be, which is
        then dropped (so a record held on after its one gradient holds no
        (T+1)^2 inverse) and checked; see ``posterior_weights``."""
        inv, residual, _ = self._inverted
        self.release()
        if not residual <= _RESIDUAL_BOUND:
            raise NumericalFaultError(f"inaccurate inverse: residual {residual:.3g}")
        core = inv[1:, 1:]
        # W = the gain d ln Z / d scaled, times the scaled weights read back
        # from the bordered matrix as 0 - Q off the diagonal (exact to the
        # sign of a zero), in one C-ordered array (an F-ordered W moves the
        # gradient's sums by roundoff). The gain takes numpy's transposing
        # copy, faster than a transposed operand.
        w = np.empty(core.shape)
        np.copyto(w, core.T)
        diag, q = np.diag(core), self.matrix[1:, 1:]
        rows = _row_blocks(len(w), _SCRATCH_BYTES)
        scaled = np.empty((rows[0].stop, len(w)))
        for block in rows:
            gain = np.subtract(diag[block, None], w[block], out=w[block])
            gain *= np.subtract(0.0, q[block], out=scaled[:len(gain)])
        np.fill_diagonal(w, 0.0)
        border = inv[1:, 0] - inv[0, 1:]
        p = self.normalized
        return w, p * (1.0 + border - p @ border)


# Matrices of at most this dimension are inverted by LAPACK directly. Above
# it the recursive block inverse runs at matrix-product speed. Medians on one
# OpenBLAS thread of a shared 2-core Xeon VM, against ``np.linalg.inv``:
# 2.4-3.1 ms against 5.4-6.9 ms at dimension 301 (leaves of 75), 0.46-0.75
# against 1.1-1.3 ms at 151. Leaves of 150 took 3.2-4.1 ms at 301, and
# blocking gained only 20-25 % at 91, so the bound sits in [91, 149]; 128
# keeps the semisup benchmark size (T+1 = 91) on LAPACK's bytes. Inside the
# recursion the leaves are at most half of it: 64 against 128 took a median
# 2.02 against 2.22 ms at 301 and 0.46 against 0.57 ms at 151, faster in
# 30 of 30 alternating blocks at each size on the same VM.
_BLOCK_LEAF = 128


# the largest max |diag(M X) - 1| of an inverse X of M that the certificate
# passes and that edge marginals are read off
_RESIDUAL_BOUND = 1e-9


def _block_inverse(matrix):
    """(X, r, ln det) of a square ``matrix``: its inverse X, the residual
    r = max |diag(matrix @ X) - 1| (NaN if X holds a NaN) and, when X came
    from recursive 2 x 2 block elimination (above ``_BLOCK_LEAF``), the
    log-determinant that the elimination gives with it, else NaN.

    The leading half is inverted by recursion, then its Schur complement,
    and the four blocks are assembled with matrix products (Strassen 1969),
    which run at several times the speed of LAPACK's triangular solves. No
    leading block is pivoted across, so the result X must pass an O(n^2)
    certificate (Demmel, Higham & Schreiber 1995): every entry finite,
    every diagonal entry of ``matrix @ X`` within ``_RESIDUAL_BOUND`` (1e-9)
    of 1, and y = X v for v of alternating signs solving ``matrix @ y = v``
    to within 1e-9 in every entry and with a normwise backward error of at
    most 16 n eps. For
    the bordered Laplacian the diagonal is the residual of "each non-root
    row of W sums to 1 - rho"; the probe catches a wrong off-diagonal that
    the diagonal misses, and its absolute bound a huge wrong X that the
    normwise error, divided by max |y|, lets pass. Every entry of X enters
    y with weight +-1, so y is finite only if X is. When the certificate
    fails, or a leaf is singular, X is ``np.linalg.inv(matrix)`` (and its
    ``LinAlgError`` raised) exactly as without blocking.
    """
    if matrix.shape[0] > _BLOCK_LEAF:
        certified = _certified_recursion(matrix)
        if certified is not None:
            return certified
    inverse = np.linalg.inv(matrix)
    with np.errstate(all="ignore"):
        return inverse, float(_diagonal_residual(matrix, inverse)), np.nan


def _diagonal_residual(matrix, inverse):
    """max |diag(matrix @ inverse) - 1|, NaN if either holds a NaN. The
    einsum "ij,ji->i" copies the inverse whole; "ij,ij->i" against its
    transpose gives the same bytes without the copy."""
    return np.abs(np.einsum("ij,ij->i", matrix, inverse.T) - 1.0).max()


def _certified_recursion(matrix):
    """``_block_recursion(matrix)``'s inverse, the diagonal residual of its
    certificate and its log-determinant, if the inverse passes
    ``_block_inverse``'s certificate, else None. The certificate's row sums
    of |matrix| are taken a block of rows at a time in the recursion's
    scratch."""
    size = matrix.shape[0]
    buffer = np.empty(_block_buffer_size(size))
    scratch = buffer[size * size:]
    with np.errstate(all="ignore"):
        try:
            out, logdet = _block_recursion(matrix, buffer)
        except np.linalg.LinAlgError:
            return None
        residual = _diagonal_residual(matrix, out)
        probe = np.where(np.arange(size) % 2, -1.0, 1.0)
        solved = out @ probe
        sums, step = np.empty(size), len(scratch) // size
        for start in range(0, size, step):
            rows = matrix[start:start + step]
            absolute = np.abs(rows, out=scratch[:rows.size].reshape(rows.shape))
            np.add.reduce(absolute, axis=1, out=sums[start:start + step])
        missed = np.abs(matrix @ solved - probe).max()
        backward = missed / (sums.max() * np.abs(solved).max())
    if np.isfinite(solved).all() and residual <= _RESIDUAL_BOUND and missed <= 1e-9 \
            and backward <= 16 * size * np.finfo(float).eps:
        return out, float(residual), logdet
    return None


def _recursion_leaf():
    """Largest block the recursion hands to ``np.linalg.inv``: half of
    ``_BLOCK_LEAF`` (see there), at least 1."""
    return max(1, _BLOCK_LEAF // 2)


def _block_buffer_size(size):
    """Floats of the one array ``_block_recursion`` works in at dimension
    n = ``size``: X, then a scratch of k n floats, k = n - n // 2. A level
    keeps A^-1 B (h k floats) while the Schur complement's recursion runs
    in the k^2 after it, which by induction is enough."""
    return size * size + (size - size // 2) * size


def _block_recursion(matrix, buffer=None):
    """Uncertified block inverse of ``matrix`` and its log-determinant, split
    at n // 2 down to leaves of at most ``_recursion_leaf()`` that
    ``np.linalg.inv`` inverts.

    X is the leading n x n of ``buffer``, a flat array of at least
    ``_block_buffer_size(n)`` floats (allocated when not given), and the
    rest is the scratch: X starts as a copy of ``matrix`` and is inverted
    in place, every product written into a view of X or of the scratch, so
    no array is made per level. One allocation rather than two also keeps
    a fit's heap in place: it is half as large again as the T x T arrays a
    fit frees, and glibc trims its heap only when more than twice the
    largest block it has unmapped is free at the top (see the README's
    numerical notes). A kept X keeps its scratch too. The log-determinant
    is ``_invert_in_place``'s sum over the leaves.
    """
    size = matrix.shape[0]
    if buffer is None:
        buffer = np.empty(_block_buffer_size(size))
    out = buffer[:size * size].reshape(size, size)
    np.copyto(out, matrix)
    logdet = _invert_in_place(out, buffer[size * size:], _recursion_leaf())
    return out, logdet


def _invert_in_place(block, scratch, leaf):
    """Overwrite the square view ``block`` with its block inverse (see
    ``_block_recursion``), working in the flat array ``scratch`` and
    inverting blocks of at most ``leaf`` with LAPACK, and return ln det of
    ``block``: NaN if a leaf's determinant is not positive.

    With blocks [[A, B], [C, D]] and S = D - C A^-1 B, the inverse is
    [[A^-1 - U C A^-1, U], [-S^-1 C A^-1, S^-1]], U = -A^-1 B S^-1, and
    ln det = ln det A + ln det S, so the log-determinant is the sum of the
    leaves'. Each leaf runs ``slogdet`` before ``inv``. The leading blocks
    and Schur complements of the bordered Laplacian have positive
    determinants, so a leaf of another sign is roundoff. Each quadrant is
    read for the last time before its result is written there: A^-1
    overwrites A, S and then S^-1 overwrite D, and U and the lower left
    overwrite B and C once A^-1 B and C A^-1 are in the scratch.
    """
    size = block.shape[0]
    if size <= leaf:
        sign, logdet = np.linalg.slogdet(block)
        block[...] = np.linalg.inv(block)
        return logdet if sign == 1.0 else np.nan
    h, k = size // 2, size - size // 2
    a, b, c, d = block[:h, :h], block[:h, h:], block[h:, :h], block[h:, h:]
    logdet = _invert_in_place(a, scratch, leaf)
    a_inv_b = np.matmul(a, b, out=scratch[:h * k].reshape(h, k))
    rest = scratch[h * k:]
    np.subtract(d, np.matmul(c, a_inv_b, out=rest[:k * k].reshape(k, k)), out=d)
    logdet += _invert_in_place(d, rest, leaf)
    c_a_inv = np.matmul(c, a, out=rest[:k * h].reshape(k, h))
    np.negative(np.matmul(a_inv_b, d, out=b), out=b)
    np.negative(np.matmul(d, c_a_inv, out=c), out=c)
    # A^-1 - U C A^-1, the product in the space A^-1 B has left
    np.subtract(a, np.matmul(b, c_a_inv, out=scratch[:h * h].reshape(h, h)), out=a)
    return logdet


def _has_positive_arborescence(support, root_order):
    """Whether some candidate root reaches every node over positive edges.

    ``support[u, v]`` marks a positive weight for the edge v -> u. A
    breadth-first sweep runs per candidate root, cheap at the desk scales
    where structural zeros occur.
    """
    size = support.shape[0]
    # a node reached from a failed root reaches no more than that root did
    ruled_out = np.zeros(size, dtype=bool)
    for root in root_order:
        if ruled_out[root]:
            continue
        reached = np.zeros(size, dtype=bool)
        reached[root] = True
        while True:
            frontier = support[:, reached].any(axis=1) & ~reached
            if not frontier.any():
                break
            reached |= frontier
        if reached.all():
            return True
        ruled_out |= reached
    return False


def _augmented_logdet(matrix):
    """ln det of a bordered matrix whose weights passed ``_check_support``.

    Its determinant is sum_r p(r) Z_r of the scaled weights, a sum of tree
    weights with at least one positive term, so it is positive. An LU sign
    <= 0 (0 for an exactly zero pivot) is roundoff: on chain-structured or
    near-disconnected weights the smallest singular value can fall below
    roundoff, or a scaled weight underflow to 0, while the determinant
    stays positive. That raises ``NumericalFaultError``, never
    ``ZeroPartitionError``.
    """
    # det M^T = det M, and numpy copies the Fortran-ordered transpose for
    # LAPACK contiguously; an exactly singular LU's -inf raises below
    with np.errstate(divide="ignore"):
        sign, logdet = np.linalg.slogdet(matrix.T)
    if not sign > 0.0:
        raise NumericalFaultError(f"LU sign {sign:g} for a bordered Laplacian "
                                  "whose weights support an out-tree")
    return float(logdet)


def _rooted(beta, r, like=None):
    """The ``_Bordered`` record of ``beta`` with all root weight on r. Its
    border is e_r, so its determinant is det(Q + e_r e_r^T), the cofactor
    of the out-Laplacian Q at r: ``log_z`` is ln Z_r, and the W of
    ``posterior_weights`` is P_r up to roundoff in row r. Given ``like``, a
    record of ``beta``, the record is its ``_rebordered`` copy, with no
    fill of its own."""
    log_values = np.full(beta.size, -np.inf)
    log_values[r] = 0.0
    roots = RootWeights(log_values=log_values)
    return _Bordered(beta, roots) if like is None else like._rebordered(roots)


def _rooted_marginal(beta, r):
    """(ln Z_r, P_r) off one ``_rooted`` record (whose set-up raises where
    Z_r = 0), its ``slogdet`` and then its checked inverse; row r of P_r is
    zeros."""
    record = _rooted(beta, r)
    log_z = record.log_z
    p, _ = record.posterior_weights()
    p[r] = 0.0
    return log_z, p


def log_partition_per_root(beta: WeightMatrix) -> np.ndarray:
    """ln Z_r for every root r, the ``log_z`` of its ``_rooted`` record.

    Q is filled once: each root's record copies the matrix of the one
    before it and writes its own border. Entries are -inf where no out-tree
    rooted at r fits the weights' support; a record that passes that check
    and fails to factor raises ``NumericalFaultError``.
    """
    out, record = np.full(beta.size, -np.inf), None
    for r in range(beta.size):
        try:
            record = _rooted(beta, r, record)
        except ZeroPartitionError:
            continue
        out[r] = record.log_z
    return out


def log_partition(beta: WeightMatrix, roots: RootWeights) -> LogPartition:
    """ln Z = ln(sum_r p(X_r)) + logdet of the augmented Laplacian.

    One O(T^3) determinant covers all roots at once; the per-root vector
    ln Z_r is ``log_partition_per_root``'s.
    """
    return LogPartition(log_z=_Bordered(beta, roots).log_z)


def enumerate_out_trees(size: int) -> list[OutTree]:
    """Every out-tree on ``size`` labeled nodes (there are size**(size-1))."""
    trees = []
    for root, others, parents in _out_tree_parents(size):
        parent = np.full(size, -1, dtype=np.int64)
        for combo in parents.tolist():
            parent[others] = combo
            trees.append(OutTree(root, parent.copy()))
    return trees


def _out_tree_parents(size):
    """(root, others, parents) for every root: ``parents[t, i]`` is the
    parent of node ``others[i]`` in the t-th out-tree rooted there, in
    ``enumerate_out_trees``' order. The enumeration oracles read these
    arrays instead of one validated ``OutTree`` per tree."""
    if size > MAX_ENUMERATION_NODES:
        raise ValueError(f"enumeration limited to T <= {MAX_ENUMERATION_NODES}")
    if size < 1:
        raise ValueError("need at least one node")
    for root in range(size):
        others = [u for u in range(size) if u != root]
        candidates = [[v for v in range(size) if v != u] for u in others]
        parent, valid = [-1] * size, []
        for combo in itertools.product(*candidates):
            for node, par in zip(others, combo):
                parent[node] = par
            if _reaches_root(parent, root):
                valid.append(combo)
        yield root, np.array(others, dtype=np.int64), \
            np.array(valid, dtype=np.int64).reshape(len(valid), size - 1)


def _reaches_root(parent, root):
    """Whether the parent links of every node, a list of ints, lead to
    ``root``."""
    size = len(parent)
    for start in range(size):
        node, steps = start, 0
        while node != root:
            node = parent[node]
            steps += 1
            if steps > size:
                return False
    return True


def brute_force_log_partition(beta: WeightMatrix, roots: RootWeights) -> LogPartition:
    """Enumeration oracle: sum edge-weight products over every out-tree.

    Exact (in log domain) but exponential; guarded at T <= 7.
    """
    _check_sizes(beta, roots)
    per_root = np.empty(beta.size)
    for root, others, parents in _out_tree_parents(beta.size):
        per_root[root] = _logsumexp(beta.log_entries[others, parents].sum(axis=1))
    log_z = float(_logsumexp(roots.log_values + per_root))
    if not np.isfinite(log_z):
        raise ZeroPartitionError("no out-tree has positive weight")
    return LogPartition(log_z=log_z, per_root_log_z=per_root)


def root_posterior(beta: WeightMatrix, roots: RootWeights) -> np.ndarray:
    """Posterior over the latent root: p(r | X) proportional to p(X_r) Z_r."""
    _check_sizes(beta, roots)
    logits = roots.log_values + log_partition_per_root(beta)
    total = _logsumexp(logits)
    if not np.isfinite(total):
        raise ZeroPartitionError("no out-tree has positive weight")
    with np.errstate(under="ignore"):
        return np.exp(logits - total)


def _clip_probabilities(p, what):
    low = p.min()
    if low < -1e-9:
        raise NumericalFaultError(f"{what} produced probability {low}")
    return np.maximum(p, 0.0)


def per_root_marginal(beta: WeightMatrix, r: int) -> np.ndarray:
    """P_r[u, v] = probability of edge v -> u under trees rooted at r.

    Read off the inverse of the ``_rooted`` record and clipped at zero.
    Every non-root row sums to one (each non-root node has exactly one
    parent). Returns all zeros when Z_r = 0; raises ``NumericalFaultError``
    as ``posterior_weights`` does.
    """
    try:
        _, p = _rooted_marginal(beta, r)
    except ZeroPartitionError:
        return np.zeros((beta.size, beta.size))
    return _clip_probabilities(p, f"per-root marginal at {r}")


def edge_marginals(beta: WeightMatrix, roots: RootWeights) -> EdgeMarginals:
    """Posterior edge probabilities W in one O(T^3) pass from the inverse of
    the augmented Laplacian, clipped at zero; raises as ``posterior_weights``."""
    w, _ = posterior_weights(beta, roots)
    return EdgeMarginals(W=_frozen(_clip_probabilities(w, "edge marginals")))


def posterior_weights(beta: WeightMatrix, roots: RootWeights):
    """(W, rho): edge marginals and root posterior from one bordered inverse.

    W[u, v] = d ln Z / d ln beta_uv and rho[r] = d ln Z / d ln p(X_r), so
    the gradient of ln Z in any parameter is sum W d ln beta + sum rho
    d ln p. The normalized root vector p enters the bordered matrix at
    (0, r) and (r, 0), which gives rho = p * (1 + b - p.b) with
    b = inv[1:, 0] - inv[0, 1:]. W is the gain diag(C)[:, None] - C^T
    (C the inverse's core) times the scaled weights, read back from the
    bordered matrix.
    Neither output is clipped: on ill-conditioned weights roundoff can make
    entries negative. Raises ``NumericalFaultError`` where the inverse X
    misses diag(M X) = 1 by more than ``_RESIDUAL_BOUND`` (1e-9) or is NaN:
    each non-root row of W would miss 1 - rho by that much.
    """
    return _Bordered(beta, roots).posterior_weights()


def tree_entropy(beta: WeightMatrix, r: int) -> float:
    """Shannon entropy of the tree posterior q_r over out-trees rooted at r.

    H(q_r) = ln Z_r - sum_uv P_r(u, v) ln beta_uv, both read off one
    ``_rooted`` record; zero when the weights support exactly one tree at
    r. Raises ``ZeroPartitionError`` when Z_r = 0, and
    ``NumericalFaultError`` as ``posterior_weights`` does.
    """
    log_z, p = _rooted_marginal(beta, r)
    mask = p > 0.0
    return float(log_z - np.sum(p[mask] * beta.log_entries[mask]))


class IncrementalLogdet:
    """The ``_Bordered`` record of the current weights, factored.

    A row-and-column replacement (a label flip) is ranked by the record's
    ``_screen`` and takes ``_cross``, which patches a copy of the current
    bordered matrix (``_Bordered._crossed``), and ``_commit`` swaps in such
    a record without setting it up or factoring it again. The record's
    inverse is computed on the first screen, so a search that never screens
    candidates (two classes) never inverts. Weights with no out-tree of
    positive weight raise ``ZeroPartitionError`` and a record whose LU
    sign is not positive ``NumericalFaultError``, at construction too; a
    replacement whose record raises leaves the session unchanged.
    Single-writer: one mutable session at a time.
    """

    def __init__(self, beta: WeightMatrix, roots: RootWeights):
        self._record = _Bordered(beta, roots)
        self._record.logdet  # factor now, so a record that cannot be factored raises here

    @property
    def log_partition(self) -> float:
        return self._record.log_z

    def _cross(self, node, row_logs, column_logs):
        """Unfactored record of the current weights with row and column
        ``node`` replaced; see ``_Bordered._crossed``."""
        return self._record._crossed(node, row_logs, column_logs)

    def _commit(self, record) -> float:
        """Swap in ``record``, returning its log-partition. It is factored
        first (a no-op for a previewed record), so one that raises leaves
        the session unchanged."""
        log_z = record.log_z
        self._record = record
        return log_z
