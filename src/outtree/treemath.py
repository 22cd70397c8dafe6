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
Above dimension ``_BLOCK_LEAF`` the inverse is assembled by recursive block
elimination on matrix products and kept only if it passes an O(T^2)
residual certificate; otherwise, and at or below that dimension, it is
numpy's ``inv``, bit for bit.
Weights built from a fresh array (``build_beta``, the semi-supervised joint
weights, the VB expected-log weights) take it through the private
``WeightMatrix._owning``, which neither copies it nor, when the caller has
already counted its finite entries, counts them again; the public
constructor copies. A weight matrix holds its log-weights and their row
maxima, and nothing else. The bordered matrix is the one home of the
rescaled weights: it is filled straight from the log-weights, one block of
rows of about ``_BLOCK_BYTES`` at a time (subtraction and exp into a
scratch block, row sums, negation into the matrix), and the edge marginals
and the greedy search's screen read the rescaled weights back from it.
They need no finite mask, because validation leaves -inf as the only
non-finite log-weight and exp maps it to exactly 0. A replaced row and
column (a label flip) is patched into a copy of the current bordered
matrix, equal bit for bit to a fresh fill.

Weights, root weights and trees are immutable after construction and safe
to share across threads; a record computes its determinant and inverse on
first read, and the factorization session is single-writer.
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
    finite entries as validation.
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
        self._derive(log_entries, _validated_zeros(log_entries))

    @classmethod
    def _owning(cls, log_entries, structural_zeros=None):
        """Matrix that takes the fresh float64 array ``log_entries`` as its
        own: not copied, and read-only from here on. It is validated as by
        the public constructor, unless the caller passes ``structural_zeros``
        after checking the diagonal and counting the finite entries itself.
        """
        if structural_zeros is None:
            structural_zeros = _validated_zeros(log_entries)
        matrix = cls.__new__(cls)
        matrix._derive(log_entries, structural_zeros)
        return matrix

    def _derive(self, log_entries, structural_zeros):
        """Set every field from validated log-weights, taking ownership of
        them."""
        row_scales = log_entries.max(axis=1)
        row_scales[row_scales == -np.inf] = 0.0
        self._set(log_entries, row_scales, structural_zeros)

    def _set(self, log_entries, row_scales, structural_zeros):
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
                self._scaled_rows(rows, scaled[rows])
        scaled.setflags(write=False)
        return scaled

    def _scaled_rows(self, rows, out):
        """Write the scaled weights of the row slice ``rows`` into ``out`` and
        return it; the caller ignores underflow."""
        np.subtract(self.log_entries[rows], self.row_scales[rows, None], out=out)
        return np.exp(out, out=out)

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
        for start in range(size):
            node, steps = start, 0
            while node != self.root:
                node = int(parent[node])
                steps += 1
                if steps > size:
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


# The O(T^2) passes over a weight matrix (the model's log-conditionals, the
# finite count, the row scales and exp) run over blocks of whole rows of
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


def _block_rows(columns, block_bytes=_BLOCK_BYTES):
    """Rows per block of a float64 matrix with ``columns`` columns."""
    return max(1, block_bytes // (8 * max(columns, 1)))


def _row_blocks(size, block_bytes=_BLOCK_BYTES):
    """Slices of ``_block_rows`` rows covering a size x size matrix."""
    step = _block_rows(size, block_bytes)
    return [slice(start, min(start + step, size)) for start in range(0, size, step)]


def _count_finite(a):
    """Number of finite entries of ``a``, counted a row block at a time."""
    step = _block_rows(a.shape[-1]) if a.ndim == 2 else len(a)
    if step >= len(a):
        return np.count_nonzero(np.isfinite(a))
    mask = np.empty((min(step, len(a)), a.shape[1]), dtype=bool)
    count = 0
    for start in range(0, len(a), step):
        block = a[start:start + step]
        count += np.count_nonzero(np.isfinite(block, out=mask[:len(block)]))
    return count


def _has_log_zeros(a, known=0):
    """Whether ``a`` holds a -inf beyond the ``known`` -inf entries already
    checked; NaN and +inf raise ``ValueError``.

    One finite count settles the common case: only an array with more
    non-finite entries than the known ones is searched for NaN and +inf.
    """
    zeros = a.size - _count_finite(a) - known
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


class _Bordered:
    """The row-rescaled bordered Laplacian of one (weights, roots) pair.

    ``matrix`` is [[1, p^T], [-p, Q]], Q = diag(row sums) - scaled weights
    and p the root weights p(X_r) exp(-row_scales[r]), normalized: its
    determinant is sum_r p(r) Z_r of the scaled weights, and ln Z =
    ``offset`` + ``logdet`` exactly. Q is written one row block at a time
    from ``log_entries`` (exp, row sums, 0 - x), so 0 - Q off the diagonal
    is the scaled weights exactly, and the record is their only home.
    ``logdet`` and ``inverse`` are computed on first read and kept; the
    inverse is ``_block_inverse``'s, which is numpy's ``inv`` up to
    dimension ``_BLOCK_LEAF`` and wherever its certificate fails. Weights
    with structural zeros are first checked for an out-tree over their
    support: where none exists Z = 0 exactly, but the LU can still return a
    small positive determinant made of roundoff, so this raises
    ``ZeroPartitionError`` before any factoring.
    """

    def __init__(self, beta: WeightMatrix, roots: RootWeights):
        _check_sizes(beta, roots)
        if beta.structural_zeros:
            candidates = np.flatnonzero(roots.log_values > -np.inf)
            if not _has_positive_arborescence(beta.log_entries > -np.inf, candidates):
                raise ZeroPartitionError("no out-tree has positive weight")
        size = beta.size
        self.matrix = np.empty((size + 1, size + 1))
        # Q = diag(row sums) - weights, filled in place (the diagonal weights
        # are 0); 0 - x, not -x, keeps a zero weight +0.0, so 0 - Q gives the
        # weights back bit for bit. Each block is scaled in a contiguous
        # scratch array: ufuncs on the strided core ran at half the speed
        core = self.matrix[1:, 1:]
        rows = _row_blocks(size)
        scaled, sums = np.empty((rows[0].stop, size)), np.empty(size)
        with np.errstate(under="ignore"):
            for block in rows:
                part = beta._scaled_rows(block, scaled[:block.stop - block.start])
                np.add.reduce(part, axis=1, out=sums[block])
                np.subtract(0.0, part, out=core[block])
        self.matrix.reshape(-1)[size + 2::size + 2] += sums
        self._border(beta, roots)

    def _border(self, beta, roots):
        """Write the root border of ``matrix`` and set the record's weights,
        root weights, normalized border p and ln Z offset."""
        adjusted_log = roots.log_values - beta.row_scales
        adjusted_total = float(_logsumexp(adjusted_log))
        with np.errstate(under="ignore"):
            self.normalized = np.exp(adjusted_log - adjusted_total)
        self.matrix[0, 0] = 1.0
        self.matrix[0, 1:] = self.normalized
        self.matrix[1:, 0] = -self.normalized
        self.beta, self.roots = beta, roots
        self.offset = beta.scale_total + adjusted_total

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
        beta = WeightMatrix.__new__(WeightMatrix)
        beta._set(log_entries, row_scales, False)
        record = _Bordered.__new__(_Bordered)
        record.matrix = self.matrix.copy()
        core = record.matrix[1:, 1:]
        with np.errstate(under="ignore"):
            core[:, node] = np.subtract(0.0, np.exp(column - row_scales))
            core[rows] = np.subtract(0.0, np.exp(log_entries[rows] - row_scales[rows, None]))
        np.fill_diagonal(core, 0.0)
        np.fill_diagonal(core, np.subtract(0.0, np.add.reduce(core, axis=1)))
        record._border(beta, self.roots)
        return record

    @cached_property
    def logdet(self) -> float:
        return _augmented_logdet(self.matrix, self.normalized)

    @property
    def log_z(self) -> float:
        return self.offset + self.logdet

    def _invert(self) -> np.ndarray:
        """Explicit inverse of ``matrix`` (do not mutate), by ``_block_inverse``."""
        try:
            return _block_inverse(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise ZeroPartitionError("no out-tree has positive weight") from exc

    inverse = cached_property(_invert)  # kept for repeated reads

    def posterior_weights(self):
        """(W, rho) read off the kept ``inverse`` when a screen has already
        read it, else off an inverse that is not kept, so a record held on
        after its one gradient does not hold a (T+1)^2 inverse too; see
        ``posterior_weights``."""
        inv = self.__dict__.get("inverse")
        if inv is None:
            inv = self._invert()
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
# keeps the semisup (T+1 = 91) and VB (71) benchmark sizes on LAPACK's bytes.
_BLOCK_LEAF = 128


def _block_inverse(matrix):
    """Inverse of a square ``matrix``, by recursive 2 x 2 block elimination
    when it is larger than ``_BLOCK_LEAF``.

    The leading half is inverted by recursion, then its Schur complement,
    and the four blocks are assembled with matrix products (Strassen 1969),
    which run at several times the speed of LAPACK's triangular solves. No
    leading block is pivoted across, so the result X must pass an O(n^2)
    certificate (Demmel, Higham & Schreiber 1995): every entry finite,
    every diagonal entry of ``matrix @ X`` within 1e-9 of 1, and y = X v
    for v of alternating signs solving ``matrix @ y = v`` with a normwise
    backward error of at most 16 n eps. For the bordered Laplacian the
    diagonal is the residual of "each non-root row of W sums to 1 - rho";
    the probe catches a wrong off-diagonal that the diagonal misses. Every
    entry of X enters y with weight +-1, so y is finite only if X is. When
    the certificate fails, or a leaf is singular, ``np.linalg.inv(matrix)``
    is returned (and its ``LinAlgError`` raised) exactly as without blocking.
    """
    size = matrix.shape[0]
    if size <= _BLOCK_LEAF:
        return np.linalg.inv(matrix)
    with np.errstate(all="ignore"):
        try:
            out = _block_recursion(matrix)
        except np.linalg.LinAlgError:
            out = None
        else:
            diagonal = np.einsum("ij,ji->i", matrix, out) - 1.0
            probe = np.where(np.arange(size) % 2, -1.0, 1.0)
            solved = out @ probe
            backward = np.abs(matrix @ solved - probe).max() \
                / (np.abs(matrix).sum(axis=1).max() * np.abs(solved).max())
    if out is not None and np.isfinite(solved).all() and np.abs(diagonal).max() <= 1e-9 \
            and backward <= 16 * size * np.finfo(float).eps:
        return out
    return np.linalg.inv(matrix)


def _block_recursion(matrix):
    """Uncertified block inverse of ``matrix``, split at n // 2 down to leaves
    of at most ``_BLOCK_LEAF`` that ``np.linalg.inv`` inverts."""
    size = matrix.shape[0]
    if size <= _BLOCK_LEAF:
        return np.linalg.inv(matrix)
    h = size // 2
    a_inv = _block_recursion(matrix[:h, :h])
    a_inv_b = a_inv @ matrix[:h, h:]
    c_a_inv = matrix[h:, :h] @ a_inv
    # the blocks are written in place: np.block's copies cost 10 % at 301
    out = np.empty_like(matrix)
    s_inv = out[h:, h:]
    s_inv[...] = _block_recursion(matrix[h:, h:] - matrix[h:, :h] @ a_inv_b)  # Schur complement
    upper = np.negative(a_inv_b @ s_inv, out=out[:h, h:])
    np.negative(s_inv @ c_a_inv, out=out[h:, :h])
    np.subtract(a_inv, upper @ c_a_inv, out=out[:h, :h])
    return out


def _logdet_nonneg(matrix, what):
    """Log-determinant of a matrix that is a nonnegative sum of tree weights.

    Returns -inf for an exactly singular matrix; a negative determinant is
    impossible for valid inputs and reported as a numerical fault.
    """
    sign, logdet = np.linalg.slogdet(matrix)
    if sign == 0.0 or logdet == -np.inf:
        return -np.inf
    if sign < 0.0:
        raise NumericalFaultError(f"negative determinant for {what}")
    return float(logdet)


def _has_positive_arborescence(support, root_order):
    """Whether some candidate root reaches every node over positive edges.

    ``support[u, v]`` marks a positive weight for the edge v -> u. Complete
    support (every off-diagonal weight positive, the generic continuous
    case) short-circuits; sparse supports run a breadth-first sweep per
    candidate root, cheap at the desk scales where structural zeros occur.
    """
    size = support.shape[0]
    off_diag = ~np.eye(size, dtype=bool)
    if np.all(support[off_diag]):
        return True
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


def _augmented_logdet(q_hat, adjusted_norm):
    """Log |det| of the bordered matrix, robust to indeterminate LU signs.

    The true determinant is a nonnegative sum of tree weights, but chain-
    structured instances are nonsymmetric operators whose smallest singular
    value shrinks exponentially in T while the determinant stays a healthy
    positive number, so LU may report a zero or negative pivot that is pure
    roundoff. When that happens, reachability over the positive-weight
    support decides whether the partition function is structurally zero
    (``ZeroPartitionError``); if not, the log-magnitude is taken as the sum
    of log singular values. A clearly negative determinant (smallest
    singular value well above the roundoff floor) is a numerical fault.
    """
    sign, logdet = np.linalg.slogdet(q_hat)
    if sign > 0.0 and logdet != -np.inf:
        return float(logdet)
    root_order = np.argsort(adjusted_norm)[::-1]
    root_order = [int(r) for r in root_order if adjusted_norm[r] > 0.0]
    # a positive weight is a negative off-diagonal entry of Q; its diagonal is >= 0
    if not _has_positive_arborescence(q_hat[1:, 1:] < 0.0, root_order):
        raise ZeroPartitionError("no out-tree has positive weight")
    singular = np.linalg.svd(q_hat, compute_uv=False)
    floor = singular[0] * np.finfo(float).eps * q_hat.shape[0]
    if sign < 0.0 and singular[-1] > floor:
        raise NumericalFaultError("negative determinant for augmented Laplacian")
    with np.errstate(divide="ignore"):
        return float(np.log(np.maximum(singular, floor)).sum())


def log_partition_per_root(beta: WeightMatrix) -> np.ndarray:
    """ln Z_r for every root r: the log-cofactor of the out-Laplacian at r.

    Entries are -inf where no out-tree rooted at r has positive weight.
    """
    size = beta.size
    scaled = beta.scaled
    q = np.diag(scaled.sum(axis=1)) - scaled
    out = np.empty(size)
    for r in range(size):
        keep = np.arange(size) != r
        logdet = _logdet_nonneg(q[np.ix_(keep, keep)], f"cofactor at root {r}")
        shift = beta.scale_total - beta.row_scales[r]
        out[r] = logdet + shift if logdet != -np.inf else -np.inf
    return out


def log_partition(beta: WeightMatrix, roots: RootWeights) -> LogPartition:
    """ln Z = ln(sum_r p(X_r)) + logdet of the augmented Laplacian.

    One O(T^3) determinant covers all roots at once; the per-root vector
    ln Z_r is ``log_partition_per_root``'s.
    """
    return LogPartition(log_z=_Bordered(beta, roots).log_z)


def enumerate_out_trees(size: int) -> list[OutTree]:
    """Every out-tree on ``size`` labeled nodes (there are size**(size-1))."""
    if size > MAX_ENUMERATION_NODES:
        raise ValueError(f"enumeration limited to T <= {MAX_ENUMERATION_NODES}")
    if size < 1:
        raise ValueError("need at least one node")
    trees = []
    for root in range(size):
        others = [u for u in range(size) if u != root]
        candidates = [[v for v in range(size) if v != u] for u in others]
        parent = np.full(size, -1, dtype=np.int64)
        for combo in itertools.product(*candidates):
            parent[others] = combo
            if _reaches_root(parent, root):
                trees.append(OutTree(root, parent.copy()))
    return trees


def _reaches_root(parent, root):
    size = parent.shape[0]
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
    per_root_terms = [[] for _ in range(beta.size)]
    for tree in enumerate_out_trees(beta.size):
        children = [t for t in range(beta.size) if t != tree.root]
        log_weight = beta.log_entries[children, tree.parent[children]].sum()
        per_root_terms[tree.root].append(log_weight)
    per_root = np.array([_logsumexp(terms) for terms in per_root_terms])
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

    Computed as beta_uv * d(ln Z_r)/d(beta_uv) from the inverse of the
    cofactor matrix. Every non-root row sums to one (each non-root node has
    exactly one parent). Returns all zeros when Z_r = 0.
    """
    size = beta.size
    scaled = beta.scaled
    q = np.diag(scaled.sum(axis=1)) - scaled
    keep = np.flatnonzero(np.arange(size) != r)
    sub = q[np.ix_(keep, keep)]
    if _logdet_nonneg(sub, f"cofactor at root {r}") == -np.inf:
        return np.zeros((size, size))
    inv = np.linalg.inv(sub)
    diag = np.diag(inv)
    # gain[u, v] = d ln Z_r / d beta_uv, both in reduced (root-deleted) index space
    gain = diag[:, None] - inv.T
    p = np.zeros((size, size))
    p[np.ix_(keep, keep)] = scaled[np.ix_(keep, keep)] * gain
    p[keep, r] = scaled[keep, r] * diag
    np.fill_diagonal(p, 0.0)
    return _clip_probabilities(p, f"per-root marginal at {r}")


def edge_marginals(beta: WeightMatrix, roots: RootWeights) -> EdgeMarginals:
    """Posterior edge probabilities W in one O(T^3) pass from the inverse of
    the augmented Laplacian, clipped at zero."""
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
    entries negative.
    """
    return _Bordered(beta, roots).posterior_weights()


def tree_entropy(beta: WeightMatrix, r: int) -> float:
    """Shannon entropy of the tree posterior q_r over out-trees rooted at r.

    H(q_r) = ln Z_r - sum_uv P_r(u, v) ln beta_uv; zero when the weights
    support exactly one tree at r.
    """
    per_root = log_partition_per_root(beta)
    if not np.isfinite(per_root[r]):
        raise ZeroPartitionError(f"no out-tree rooted at {r} has positive weight")
    p = per_root_marginal(beta, r)
    mask = p > 0.0
    return float(per_root[r] - np.sum(p[mask] * beta.log_entries[mask]))


class IncrementalLogdet:
    """The ``_Bordered`` record of the current weights, factored.

    A row-and-column replacement (a label flip) takes ``_cross``, which
    patches a copy of the current bordered matrix (``_Bordered._crossed``),
    and ``_commit`` swaps in such a record without setting it up or
    factoring it again. The ``inverse`` is computed on its first read, so a
    search that never screens candidates (two classes) never inverts.
    Weights with no out-tree of positive weight raise
    ``ZeroPartitionError``, at construction too; a replacement whose record
    raises leaves the session unchanged. Single-writer: one mutable session
    at a time.
    """

    def __init__(self, beta: WeightMatrix, roots: RootWeights):
        self._record = _Bordered(beta, roots)
        self._record.logdet  # factor now, so weights with Z = 0 raise here

    @property
    def beta(self) -> WeightMatrix:
        return self._record.beta

    @property
    def logdet(self) -> float:
        return self._record.logdet

    @property
    def log_partition(self) -> float:
        return self._record.log_z

    @property
    def inverse(self) -> np.ndarray:
        return self._record.inverse

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
