"""Independent high-precision ln Z for checking the package's float64 path.

ln Z = ln(sum_r p_r) + ln det [[1, p^T / s], [-p / s, Q]] with Q the
out-Laplacian diag(row sums of beta) - beta, built entry by entry from
``WeightMatrix.log_entries`` in mpmath and factored by Gaussian elimination
with partial pivoting. Nothing here calls the package: the row sums that
float64 forms with catastrophic cancellation on ill-conditioned inputs are
exact to the working precision here.

Each value is computed at two precisions that must agree, so a reference
that is itself short of digits is caught rather than trusted.
"""

from __future__ import annotations

import hashlib
import math

import mpmath

PRECISIONS = (40, 60)
AGREEMENT_TOL = 1e-10
MAX_DPS = 240

_cache = {}


class ReferenceFault(Exception):
    """The reference could not be established (precisions disagree or the
    determinant is not positive)."""


def _log_det_positive(ctx, rows):
    size = len(rows)
    log_det = ctx.zero
    sign = 1
    for k in range(size):
        pivot_row = max(range(k, size), key=lambda i: abs(rows[i][k]))
        pivot = rows[pivot_row][k]
        if not pivot:
            raise ReferenceFault("singular bordered Laplacian")
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        if pivot < 0:
            sign = -sign
        log_det += ctx.log(abs(pivot))
        top = rows[k]
        for i in range(k + 1, size):
            row = rows[i]
            factor = row[k] / pivot
            if factor:
                for j in range(k + 1, size):
                    row[j] -= factor * top[j]
    if sign < 0:
        raise ReferenceFault("negative determinant for a sum of tree weights")
    return log_det


def log_partition_at(log_entries, log_roots, dps):
    """ln Z at ``dps`` decimal digits, as an mpf."""
    ctx = mpmath.MPContext()
    ctx.dps = dps
    size = len(log_roots)
    weights = [[ctx.exp(ctx.mpf(float(x))) for x in row] for row in log_entries]
    roots = [ctx.exp(ctx.mpf(float(x))) for x in log_roots]
    total = ctx.fsum(roots)
    rows = [[ctx.one] + [p / total for p in roots]]
    for u in range(size):
        row = [-roots[u] / total] + [-w for w in weights[u]]
        row[u + 1] = ctx.fsum(weights[u][v] for v in range(size) if v != u)
        rows.append(row)
    return ctx.log(total) + _log_det_positive(ctx, rows)


def log_partition(log_entries, log_roots) -> float:
    """ln Z from two agreeing precisions; memoized on the exact inputs."""
    key = hashlib.sha256(bytes(memoryview(log_entries.copy(order="C")))
                         + bytes(memoryview(log_roots.copy(order="C")))).hexdigest()
    if key in _cache:
        return _cache[key]
    low, high = PRECISIONS
    while True:
        a = float(log_partition_at(log_entries, log_roots, low))
        b = float(log_partition_at(log_entries, log_roots, high))
        if abs(a - b) <= AGREEMENT_TOL * max(1.0, abs(b)):
            break
        if high >= MAX_DPS:
            raise ReferenceFault(f"ln Z at {low} and {high} digits differ by "
                                 f"{abs(a - b):.3e}")
        low, high = high, 2 * high
    if not math.isfinite(b):
        raise ReferenceFault("reference ln Z is not finite")
    _cache[key] = b
    return b
