"""Command-line surface: dataset ingestion, fitting, evaluation, sampling,
semi-supervised labeling, variational fitting, baselines, and benchmark
harnesses that reproduce the qualitative experimental comparisons.

Numeric TSV/CSV outputs use repr() floats (shortest round-trip decimal), so
identical configs and seeds give byte-identical artifacts. Exit codes:
0 success, 2 configuration error, 3 data error, 4 numerical fault; errors
are also emitted as one JSON record on stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import io as otio
from . import likelihood, sampler, semisup, vb
from .errors import ConfigError, DataError, NumericalFaultError, OutTreeError
from .models import (GaussianModel, TabularModel, gaussian_init_iid, kernel_init_iid,
                     tabular_init_iid)

LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# Data ingestion and splits


@dataclass
class Dataset:
    """Parsed CSV: attribute matrix, optional labels (-1 = missing)."""

    X: np.ndarray
    y: np.ndarray | None


# Categorical cells are integers below this. The tabular family keeps a
# k x k float64 table per attribute, k the largest cell plus one: 8 MiB at
# this bound, where a cell of 1e12 asked numpy for 7.28 TiB.
MAX_CATEGORIES = 1024


def ingest_csv(path, label_column=None, categorical=False) -> Dataset:
    """Parse a headered CSV into attributes and (optionally) labels.

    Every column but the label column is an attribute. Attribute cells must
    be numeric (or, with ``categorical``, nonnegative integers below
    ``MAX_CATEGORIES``); an empty label cell marks a missing label. Errors
    carry row and column coordinates.
    """
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows[0]
    if label_column is not None and label_column not in header:
        raise DataError(f"{path}: no column named {label_column!r}")
    attribute_columns = [c for c in header if c != label_column]
    if not attribute_columns:
        raise DataError(f"{path}: no attribute columns")
    if len(rows) < 2:
        raise DataError(f"{path}: no data rows")
    attr_idx = [header.index(c) for c in attribute_columns]
    label_idx = header.index(label_column) if label_column is not None else None
    data, labels = [], []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        values = []
        for i in attr_idx:
            cell = row[i]
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(f"{path}: row {r}, column {header[i]!r}: "
                                f"non-numeric cell {cell!r}") from None
        data.append(values)
        if label_idx is not None:
            cell = row[label_idx].strip()
            if not cell:
                labels.append(semisup.MISSING)
            else:
                try:
                    labels.append(int(cell))
                except ValueError:
                    raise DataError(f"{path}: row {r}, column {label_column!r}: "
                                    f"unknown category {cell!r}") from None
    X = np.array(data, dtype=float)
    if categorical:
        # NaN and huge cells cast to garbage, which the comparison catches
        with np.errstate(invalid="ignore"):
            as_int = X.astype(np.int64)
        bad = np.argwhere((as_int != X) | (X < 0) | (X >= MAX_CATEGORIES))
        if len(bad):
            raise DataError(f"{path}: row {bad[0][0] + 2}, column "
                            f"{attribute_columns[bad[0][1]]!r}: not a small nonnegative "
                            f"integer (below {MAX_CATEGORIES})")
        X = as_int
    y = np.array(labels, dtype=np.int64) if label_idx is not None else None
    return Dataset(X=X, y=y)


def split_indices(count, fractions, rng):
    """Disjoint, exhaustive train/validation/test index split."""
    fractions = np.asarray(fractions, dtype=float)
    if fractions.shape != (3,) or not np.all(fractions > 0) \
            or abs(fractions.sum() - 1.0) > 1e-9:
        raise ConfigError("splits must be three positive fractions summing to 1")
    perm = np.random.default_rng(rng).permutation(count)
    n_train = int(np.floor(fractions[0] * count))
    n_val = int(np.floor(fractions[1] * count))
    return perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]


def standardize(train, *others):
    """Column-standardize by the training moments; applied to all splits."""
    mean = train.mean(axis=0)
    sd = train.std(axis=0, ddof=1)
    sd[sd == 0] = 1.0
    return tuple((block - mean) / sd for block in (train, *others))


# ---------------------------------------------------------------------------
# Spiral generator


@dataclass(frozen=True)
class SpiralSpec:
    """3D spiral sample: (s cos s, s sin s, s) plus isotropic noise."""

    count: int
    noise: float = 0.5
    turns: float = 3.0

    def __post_init__(self):
        if self.count < 10:
            raise ConfigError(f"spiral needs at least 10 rows, got {self.count}")
        # NaN fails both comparisons
        if not 0.0 <= self.noise < np.inf:
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise!r}")
        if not 0.0 < self.turns < np.inf:
            raise ConfigError(f"turns must be finite and > 0, got {self.turns!r}")


def gen_spiral(spec: SpiralSpec, rng) -> np.ndarray:
    rng = np.random.default_rng(rng)
    s = rng.uniform(0.0, 2.0 * np.pi * spec.turns, spec.count)
    points = np.stack([s * np.cos(s), s * np.sin(s), s], axis=1)
    return points + spec.noise * rng.standard_normal((spec.count, 3))


# ---------------------------------------------------------------------------
# Baselines: Parzen windows and a Gaussian mixture fit by EM


def parzen_log_density(points, train, sigma):
    """log (1/T) sum_t N(x | X_t, sigma^2 I) for each query point."""
    points = np.atleast_2d(points)
    train = np.atleast_2d(train)
    d = train.shape[1]
    sq = ((points[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
    log_kernel = -0.5 * sq / sigma ** 2 - 0.5 * d * LOG_2PI - d * np.log(sigma)
    peak = log_kernel.max(axis=1, keepdims=True)
    return (peak[:, 0] + np.log(np.exp(log_kernel - peak).sum(axis=1))
            - np.log(len(train)))


@dataclass
class ParzenResult:
    sigma: float
    test_log_likelihood: float


def baseline_parzen(train, test, bandwidths, validation) -> ParzenResult:
    """Parzen density with the bandwidth chosen on the validation split.

    Test points score against all training points (no leave-one-out at
    test time).
    """
    bandwidths = list(bandwidths)
    if not bandwidths or not all(0.0 < s < np.inf for s in bandwidths):
        raise ConfigError(f"bandwidth-grid: expected finite bandwidths > 0, got {bandwidths}")
    if len(train) == 0 or len(validation) == 0:
        raise DataError("train and validation splits must be non-empty")
    val_scores = {float(s): float(parzen_log_density(validation, train, s).sum())
                  for s in bandwidths}
    best = max(val_scores, key=val_scores.get)
    return ParzenResult(sigma=best,
                        test_log_likelihood=float(
                            parzen_log_density(test, train, best).sum()))


@dataclass
class GmmParams:
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray


def _gmm_parts(points, params: GmmParams):
    """Per point and component, log weight plus log density; and the log
    of their sum over components, the mixture's log density."""
    k, d = params.means.shape
    parts = np.empty((len(points), k))
    for j in range(k):
        diff = points - params.means[j]
        chol = np.linalg.cholesky(params.covariances[j])
        solve = np.linalg.solve(chol, diff.T)
        parts[:, j] = (np.log(params.weights[j]) - 0.5 * d * LOG_2PI
                       - np.log(np.diag(chol)).sum() - 0.5 * (solve ** 2).sum(axis=0))
    peak = parts.max(axis=1, keepdims=True)
    return parts, peak[:, 0] + np.log(np.exp(parts - peak).sum(axis=1))


def gmm_log_density(points, params: GmmParams):
    return _gmm_parts(np.atleast_2d(points), params)[1]


def _kmeans_pp_seeds(data, k, rng):
    centers = [data[rng.integers(len(data))]]
    for _ in range(k - 1):
        sq = np.min([(np.sum((data - c) ** 2, axis=1)) for c in centers], axis=0)
        total = sq.sum()
        if total == 0:
            centers.append(data[rng.integers(len(data))])
            continue
        centers.append(data[rng.choice(len(data), p=sq / total)])
    return np.array(centers)


# EM's iteration cap, relative stopping tolerance and covariance ridge
_EM_MAX_ITERS, _EM_TOL, _EM_RIDGE = 200, 1e-8, 1e-6


def fit_gmm(data, k, rng):
    """One EM run from a k-means++ seeding; returns (params, ll_trace).

    Components that collapse are re-seeded at a random data point. The
    trace of per-iteration training log-likelihoods is nondecreasing up to
    a 1e-8 slack.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    count, d = data.shape
    base_cov = np.cov(data.T).reshape(d, d) + _EM_RIDGE * np.eye(d)
    params = GmmParams(weights=np.full(k, 1.0 / k),
                       means=_kmeans_pp_seeds(data, k, rng),
                       covariances=np.tile(base_cov, (k, 1, 1)))
    trace = []
    for _ in range(_EM_MAX_ITERS):
        parts, log_norm = _gmm_parts(data, params)
        trace.append(float(log_norm.sum()))
        resp = np.exp(parts - log_norm[:, None])
        mass = resp.sum(axis=0)
        for j in range(k):
            if mass[j] < 1e-9:
                # collapsed component: re-seed at a random point
                params.means[j] = data[rng.integers(count)]
                params.covariances[j] = base_cov.copy()
                mass[j] = 1.0
                resp[:, j] = 1.0 / count
                continue
            mean = resp[:, j] @ data / mass[j]
            diff = data - mean
            cov = (resp[:, j][:, None] * diff).T @ diff / mass[j]
            params.means[j] = mean
            params.covariances[j] = cov + _EM_RIDGE * np.trace(cov) / d * np.eye(d) \
                + 1e-12 * np.eye(d)
        params.weights = mass / mass.sum()
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < _EM_TOL * (1 + abs(trace[-2])):
            break
    return params, np.array(trace)


@dataclass
class GmmSelection:
    best_k: int
    best_test_log_likelihood: float
    test_by_k: dict


def baseline_gmm(train, test, k_values, restarts, validation, rng) -> GmmSelection:
    """EM mixtures per component count with restarts; k chosen on the
    validation split, test log-likelihoods reported for every k."""
    if min(k_values) < 1:
        raise ConfigError("component counts must be >= 1")
    rng = np.random.default_rng(rng)
    test_by_k, val_by_k = {}, {}
    for k in k_values:
        best_params, best_train = None, -np.inf
        for _ in range(restarts):
            params, trace = fit_gmm(train, k, rng)
            if trace[-1] > best_train:
                best_params, best_train = params, trace[-1]
        test_by_k[k] = float(gmm_log_density(test, best_params).sum())
        val_by_k[k] = float(gmm_log_density(validation, best_params).sum())
    best_k = max(val_by_k, key=val_by_k.get)
    return GmmSelection(best_k=best_k, best_test_log_likelihood=test_by_k[best_k],
                        test_by_k=test_by_k)


# ---------------------------------------------------------------------------
# Benchmark harnesses


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def nn_regression_seed(train) -> GaussianModel:
    """Seed the Gaussian fit from a nearest-neighbor surrogate structure:
    regress each point on its nearest neighbor for the drift matrix and
    offset, with the residual covariance as the mutation noise."""
    train = np.atleast_2d(np.asarray(train, dtype=float))
    count, d = train.shape
    sq = ((train[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(sq, np.inf)
    parents = train[sq.argmin(axis=1)]
    design = np.hstack([parents, np.ones((count, 1))])
    coef, *_ = np.linalg.lstsq(design, train, rcond=None)
    drift = coef[:d].T
    offset = coef[d]
    resid = train - parents @ drift.T - offset
    noise = resid.T @ resid / max(count - 1, 1)
    noise += max(1e-6 * np.trace(noise) / d, 1e-10) * np.eye(d)
    base = gaussian_init_iid(train)
    return GaussianModel(mu_c=offset, mu_pi=base.mu_pi, sigma_c_given_pi=drift,
                         sigma_cc=noise, sigma_pipi=base.sigma_pipi)


# the spiral benchmark's EM mixtures have 1 to this many components
_GMM_MAX_K = 5


def run_spiral_benchmark(*, count=600, noise=0.5, turns=3.0, folds=10, seed=0,
                         splits=(0.8, 0.1, 0.1), max_iters=60, restarts=10,
                         bandwidths=None):
    """Density-estimation comparison on generated spiral data.

    Per fold: standardize by the training moments, fit the out-tree
    Gaussian (nearest-neighbor seeded, early-stopped on the validation
    score with ``fit_ml``'s patience), Parzen with validated bandwidth, and
    EM mixtures of 1 to ``_GMM_MAX_K`` components. Returns one row per fold
    with all test scores plus the run's config hash.
    """
    config = dict(count=count, noise=noise, turns=turns, folds=folds, seed=seed,
                  splits=list(splits), max_iters=max_iters, restarts=restarts,
                  bandwidths=bandwidths)
    digest = config_hash(config)
    if bandwidths is None:
        bandwidths = np.geomspace(0.02, 2.0, 13).tolist()
    root = np.random.SeedSequence(seed)
    data_stream, *fold_streams = root.spawn(folds + 1)
    data = gen_spiral(SpiralSpec(count=count, noise=noise, turns=turns),
                      np.random.default_rng(data_stream))
    rows = []
    for fold, stream in enumerate(fold_streams):
        rng = np.random.default_rng(stream)
        train_idx, val_idx, test_idx = split_indices(count, splits, rng)
        train, val, test = standardize(data[train_idx], data[val_idx], data[test_idx])
        # first, so that a bad bandwidth fails before the fit
        parzen = baseline_parzen(train, test, bandwidths, val)
        seed_model = nn_regression_seed(train)
        report = likelihood.fit_ml(train, seed_model, max_iters=max_iters, holdout=val)
        tdid_score = likelihood.test_log_likelihood(train, test, report.model).score
        gmm = baseline_gmm(train, test, list(range(1, _GMM_MAX_K + 1)), restarts, val, rng)
        rows.append({"fold": fold, "seed": seed, "config": digest,
                     "tdid": tdid_score, "parzen": parzen.test_log_likelihood,
                     "gmm_1": gmm.test_by_k[1], "gmm_best_k": gmm.best_k,
                     "gmm_best": gmm.best_test_log_likelihood,
                     "fit_iterations": len(report.iterations),
                     "fit_reason": report.reason})
    return rows


def _mutate_labels(tree, alpha, n_classes, rng):
    labels = np.empty(tree.size, dtype=np.int64)
    for node in tree.topological_order():
        if node == tree.root:
            labels[node] = rng.integers(n_classes)
        elif rng.random() < alpha:
            labels[node] = labels[tree.parent[node]]
        else:
            others = [k for k in range(n_classes) if k != labels[tree.parent[node]]]
            labels[node] = others[rng.integers(len(others))]
    return labels


def semisup_generator() -> GaussianModel:
    """Slightly expanding rotation in 3D (scale 1.02, angle 0.25 rad,
    mutation noise sd 0.3): trees spread through space, so attribute
    proximity carries information about tree adjacency."""
    angle = 0.25
    rot = np.array([[np.cos(angle), -np.sin(angle), 0.0],
                    [np.sin(angle), np.cos(angle), 0.0],
                    [0.0, 0.0, 1.0]])
    return GaussianModel(mu_c=np.zeros(3), mu_pi=np.zeros(3),
                         sigma_c_given_pi=1.02 * rot,
                         sigma_cc=0.3 ** 2 * np.eye(3), sigma_pipi=np.eye(3))


# each class holds at least this share of a semi-supervised benchmark draw
_MIN_MINORITY = 0.35


def run_semisup_benchmark(*, count=60, n_classes=2, alpha_true=0.9,
                          labeled_fracs=(0.3,), seeds=10, seed=0, restarts=5,
                          max_sweeps=40):
    """Synthetic tree-mutated label recovery versus the majority baseline.

    Attributes and labels mutate along the same latent tree; draws where a
    class holds less than ``_MIN_MINORITY`` of the rows are resampled (the
    majority baseline would be a ceiling there and the row would measure
    nothing). For each labeled fraction and seed the row records
    tree-inference accuracy and the observed-majority accuracy on the
    hidden labels.
    """
    config = dict(count=count, n_classes=n_classes, alpha_true=alpha_true,
                  labeled_fracs=list(labeled_fracs), seeds=seeds, seed=seed,
                  restarts=restarts, max_sweeps=max_sweeps, min_minority=_MIN_MINORITY)
    digest = config_hash(config)
    generator = semisup_generator()
    # checked first, so that a draw the loop below can never accept
    # (alpha >= 1, or too few rows for every class) raises instead of spinning
    label_model = semisup.LabelModel(alpha=alpha_true, n_classes=n_classes)
    if n_classes * np.ceil(_MIN_MINORITY * count) > count:
        raise ConfigError(f"rows: {count} rows cannot give each of {n_classes} "
                          f"classes {_MIN_MINORITY:.0%} of them")
    for frac in labeled_fracs:
        if max(int(round(frac * count)), 1) >= count:
            raise ConfigError(f"labeled-fracs: {frac} of {count} rows hides no row")
    rows = []
    for frac in labeled_fracs:
        for index in range(seeds):
            rng = np.random.default_rng([seed, index, int(frac * 1000)])
            while True:
                draw = sampler.sample_dataset(generator, count,
                                              int(rng.integers(1 << 30)))
                truth = _mutate_labels(draw.tree, alpha_true, n_classes, rng)
                if np.bincount(truth, minlength=n_classes).min() \
                        >= _MIN_MINORITY * count:
                    break
            y = truth.copy()
            n_labeled = max(int(round(frac * count)), 1)
            y[rng.permutation(count)[n_labeled:]] = semisup.MISSING
            result = semisup.greedy_label_inference(
                draw.data, y, generator, label_model,
                restarts=restarts, max_sweeps=max_sweeps, rng=rng)
            hidden = y < 0
            majority = int(np.bincount(y[y >= 0], minlength=n_classes).argmax())
            rows.append({"labeled_frac": frac, "labeled_count": n_labeled,
                         "seed": index, "config": digest,
                         "tree_accuracy": float((result.labels[hidden]
                                                 == truth[hidden]).mean()),
                         "majority_accuracy": float((truth[hidden]
                                                     == majority).mean())})
    return rows


def write_tsv(path_or_handle, rows, columns):
    lines = ["\t".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            value = row[col]
            cells.append(repr(float(value)) if isinstance(value, float)
                         else str(value))
        lines.append("\t".join(cells))
    text = "\n".join(lines) + "\n"
    if isinstance(path_or_handle, str):
        otio.atomic_write(path_or_handle, text)
    else:
        path_or_handle.write(text)


def emit_plotdata(kind, input_path, output_path, edges_path=None):
    """Headered TSV for external plotting; deterministic column order."""
    if kind == "scatter3d":
        dataset = ingest_csv(input_path)
        if edges_path is None:
            raise ConfigError("scatter3d needs --edges")
        tree = otio.read_edge_list(edges_path)
        if dataset.X.shape[1] < 3:
            raise DataError(f"{input_path}: scatter3d needs 3 attribute columns, "
                            f"got {dataset.X.shape[1]}")
        if tree.size != len(dataset.X):
            raise DataError(f"{edges_path}: {tree.size} nodes for {len(dataset.X)} rows")
        rows = [{"x": float(r[0]), "y": float(r[1]), "z": float(r[2]),
                 "parent": "root" if tree.parent[i] == -1 else int(tree.parent[i])}
                for i, r in enumerate(dataset.X)]
        write_tsv(output_path, rows, ["x", "y", "z", "parent"])
    elif kind == "error-vs-labels":
        by_count = {}
        for r, row in enumerate(_read_tsv(input_path), start=1):
            try:
                labeled = int(float(row["labeled_count"]))
                error = 1.0 - float(row["tree_accuracy"])
            except KeyError as exc:
                raise DataError(f"{input_path}: row {r} has no {exc} column") from None
            except (OverflowError, ValueError) as exc:
                raise DataError(f"{input_path}: row {r}: {exc}") from None
            by_count.setdefault(labeled, []).append(error)
        out = []
        for labeled, errors in sorted(by_count.items()):
            errors = np.array(errors)
            stderr = errors.std(ddof=1) / np.sqrt(len(errors)) if len(errors) > 1 else 0.0
            out.append({"labeled_count": labeled, "mean_error": float(errors.mean()),
                        "stderr": float(stderr), "runs": len(errors)})
        write_tsv(output_path, out, ["labeled_count", "mean_error", "stderr", "runs"])
    elif kind == "elbo-trace":
        _, _, _, _, trace = otio.read_checkpoint(input_path)
        rows = [{"round": i, "elbo": float(v)} for i, v in enumerate(trace)]
        write_tsv(output_path, rows, ["round", "elbo"])
    else:
        raise ConfigError(f"unknown plot kind {kind!r}")


def _read_tsv(path):
    try:
        with open(path) as handle:
            lines = [line.rstrip("\n") for line in handle if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# Command surface


def _parse_floats(text):
    return [float(v) for v in text.split(",") if v != ""]


def _ranged(convert, what, inside):
    """An argparse ``type``: ``text`` converted by ``convert``, which must
    satisfy ``inside`` (NaN satisfies no comparison). A flag's value and a
    ``--config`` value (``_load_config_file``) both pass through it, and
    either error ends as one ``ConfigError`` naming the flag and ``what``."""
    def parse(text):
        try:
            value = convert(text)
            if inside(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_COUNT = _ranged(int, "an integer >= 0", lambda v: v >= 0)
_POSITIVE_INT = _ranged(int, "an integer >= 1", lambda v: v >= 1)
_CLASSES = _ranged(int, "an integer >= 2", lambda v: v >= 2)
_POSITIVE = _ranged(float, "a finite number > 0", lambda v: 0.0 < v < np.inf)
# a label stickiness: ``semisup.LabelModel``'s range
_STICKINESS = _ranged(float, "a number strictly between 0 and 1", lambda v: 0.0 < v < 1.0)
# stickinesses, or labelled fractions of the rows
_FRACTIONS = _ranged(_parse_floats, "comma-separated numbers strictly between 0 and 1",
                     lambda values: all(0.0 < v < 1.0 for v in values))
# the command's library call checks these values
_NUMBERS = _ranged(_parse_floats, "comma-separated numbers", lambda values: True)


def _subparser(parser, command):
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices[command]


def _load_config_file(path, subparser):
    """Flat ``key = value`` file, each line parsed as ``--key=value`` by the
    subcommand's own parser, so a value fails as its flag would; values come
    back typed, keyed by dest."""
    values = {}
    try:
        with open(path) as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key = value")
                key, _, value = (part.strip() for part in line.partition("="))
                flag = "--" + key.replace("_", "-")
                # the exact option only, where argparse would take an abbreviation
                action = subparser._option_string_actions.get(flag)
                if action is None:
                    raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
                try:
                    parsed = subparser.parse_args([f"{flag}={value}"])
                except ConfigError as exc:
                    raise ConfigError(f"{path}:{line_no}: {key}: {exc}") from None
                values[action.dest] = getattr(parsed, action.dest)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return values


def _init_model(family, data):
    if family == "gaussian":
        return gaussian_init_iid(data.X)
    if family == "tabular":
        sizes = [int(data.X[:, d].max()) + 1 for d in range(data.X.shape[1])]
        return tabular_init_iid(data.X, sizes)
    if family == "kernel":
        return kernel_init_iid(data.X)
    raise ConfigError(f"unknown model family {family!r}")


def cmd_fit(args):
    data = ingest_csv(args.input, categorical=args.model_family == "tabular")
    model = _init_model(args.model_family, data)
    holdout = None
    if args.holdout is not None:
        holdout = ingest_csv(args.holdout,
                             categorical=args.model_family == "tabular").X
    report = likelihood.fit_ml(data.X, model, max_iters=args.max_iters,
                               grad_tol=args.grad_tol, holdout=holdout)
    otio.write_model(args.output, report.model)
    otio.write_fit_log(args.output + ".log", report)
    print(f"fit: {float(report.initial_objective)!r} -> {float(report.final_objective)!r} "
          f"({len(report.iterations)} iterations, {report.evaluations} evaluations, "
          f"{report.reason})")
    return 0


def cmd_eval(args):
    model = otio.read_model(args.model)
    categorical = isinstance(model, TabularModel)
    train = ingest_csv(args.input, categorical=categorical)
    test = ingest_csv(args.test, categorical=categorical)
    score = likelihood.test_log_likelihood(train.X, test.X, model)
    row = {"score": score.score, "log_z_union": score.log_z_union,
           "log_z_train": score.log_z_train, "correction": score.correction,
           "train_rows": len(train.X), "test_rows": len(test.X)}
    write_tsv(args.output or sys.stdout, [row], list(row))
    return 0


def cmd_sample(args):
    model = otio.read_model(args.model)
    # finite parameters can still overflow along a deep path of the tree; the
    # rows are checked once, after the draw
    with np.errstate(over="ignore", invalid="ignore"):
        draw = sampler.sample_dataset(model, args.rows, args.seed)
    overflowed = np.flatnonzero(~np.isfinite(draw.data).all(axis=1))
    if overflowed.size:
        raise NumericalFaultError(f"sampled row {overflowed[0]} is not finite: "
                                  "the model's draws overflow")
    otio.write_sample_csv(args.output, draw.data)
    otio.write_edge_list(args.edges or args.output + ".edges", draw.tree)
    return 0


def cmd_semisup(args):
    data = ingest_csv(args.input, label_column=args.label_column)
    if data.y is None or not np.any(data.y >= 0):
        raise DataError("need at least one observed label")
    n_classes = args.classes or max(2, int(data.y.max()) + 1)
    if args.model:
        model = otio.read_model(args.model)
    else:
        report = likelihood.fit_ml(data.X, nn_regression_seed(data.X),
                                   max_iters=args.max_iters)
        model = report.model
    if isinstance(model, GaussianModel) and args.sigma_scale != 1.0:
        model = model.scaled_noise(args.sigma_scale)
    rng = np.random.default_rng(args.seed)
    if args.alpha_grid:
        alpha = semisup.cross_validate_alpha(
            data.X, data.y, model, args.alpha_grid,
            n_classes=n_classes, restarts=args.restarts, rng=rng)
    else:
        alpha = args.alpha
    label_model = semisup.LabelModel(alpha=alpha, n_classes=n_classes)
    result = semisup.greedy_label_inference(data.X, data.y, model, label_model,
                                            restarts=args.restarts,
                                            max_sweeps=args.max_sweeps, rng=rng)
    state = semisup.LabelInference(data.X, result.labels, model, label_model,
                                   observed=data.y >= 0)
    lines = ["node,label,observed," + ",".join(f"delta_{k}" for k in range(n_classes))]
    for node in range(len(result.labels)):
        cells = [str(node), str(int(result.labels[node])),
                 str(int(data.y[node] >= 0))]
        for k in range(n_classes):
            if data.y[node] >= 0 or k == result.labels[node]:
                cells.append("")
            else:
                cells.append(repr(float(state.flip_delta(node, k))))
        lines.append(",".join(cells))
    otio.atomic_write(args.output, "\n".join(lines) + "\n")
    print(f"semisup: alpha={alpha!r} log-partition={result.log_partition!r} "
          f"sweeps={result.sweeps}")
    return 0


def cmd_vb(args):
    data = ingest_csv(args.input, categorical=True)
    if args.resume:
        prior, counts_root, counts_cond, q_root, trace = \
            otio.read_checkpoint(args.resume)
        init = vb.VariationalState(
            counts_root=counts_root, counts_cond=counts_cond, q_root=q_root,
            edge_marginals=None, elbo=float(trace[-1]), elbo_trace=list(trace))
    else:
        sizes = [int(data.X[:, d].max()) + 1 for d in range(data.X.shape[1])]
        prior = vb.DirichletPrior.uniform(sizes, args.prior_count)
        init = None
    state = vb.vb_fit(data.X, prior, max_rounds=args.max_rounds, init_state=init)
    otio.write_checkpoint(args.output, prior, state)
    trace_rows = [{"round": i, "elbo": float(v)}
                  for i, v in enumerate(state.elbo_trace)]
    write_tsv(args.output + ".trace.tsv", trace_rows, ["round", "elbo"])
    print(f"vb: {len(state.elbo_trace) - 1} rounds, final ELBO {state.elbo!r}")
    return 0


def cmd_spiral(args):
    spec = SpiralSpec(count=args.rows, noise=args.noise, turns=args.turns)
    otio.write_sample_csv(args.output, gen_spiral(spec, args.seed))
    return 0


def cmd_spiral_bench(args):
    rows = run_spiral_benchmark(count=args.rows, noise=args.noise, turns=args.turns,
                                folds=args.folds, seed=args.seed, splits=args.splits,
                                max_iters=args.max_iters, restarts=args.restarts,
                                bandwidths=args.bandwidth_grid or None)
    columns = ["fold", "seed", "config", "tdid", "parzen", "gmm_1", "gmm_best_k",
               "gmm_best", "fit_iterations", "fit_reason"]
    write_tsv(args.output, rows, columns)
    for name in ("tdid", "parzen", "gmm_1", "gmm_best"):
        values = np.array([row[name] for row in rows])
        stderr = values.std(ddof=1) / np.sqrt(len(values)) if len(values) > 1 else 0.0
        print(f"{name}: mean {float(values.mean())!r} stderr {float(stderr)!r}")
    return 0


def cmd_semisup_bench(args):
    rows = run_semisup_benchmark(count=args.rows, alpha_true=args.alpha_true,
                                 labeled_fracs=args.labeled_fracs, seeds=args.runs,
                                 seed=args.seed, restarts=args.restarts)
    columns = ["labeled_frac", "labeled_count", "seed", "config",
               "tree_accuracy", "majority_accuracy"]
    write_tsv(args.output, rows, columns)
    wins = sum(r["tree_accuracy"] > r["majority_accuracy"] for r in rows)
    print(f"semisup-bench: tree beats majority on {wins}/{len(rows)} runs")
    return 0


def cmd_plotdata(args):
    emit_plotdata(args.kind, args.input, args.output, edges_path=args.edges)
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises ``ConfigError`` on a usage error instead of printing the usage
    and exiting, so the error ends as one JSON record with exit code 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    """The command surface. A config file may supply any option, so each
    subcommand lists the ones it needs in ``required`` for ``_parse_args``."""
    parser = _Parser(prog="outtree", description="Latent out-tree density toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *required):
        p.add_argument("--input", default=None)
        p.add_argument("--output", default=None)
        p.add_argument("--seed", type=_COUNT, default=None)
        p.add_argument("--config", default=None,
                       help="flat key = value file; flags override it")
        p.set_defaults(required=required)

    p = sub.add_parser("fit", help="maximum-likelihood fit of a mutation model")
    common(p, "input", "output")
    p.add_argument("--model-family", choices=["gaussian", "tabular", "kernel"],
                   default="gaussian")
    p.add_argument("--max-iters", type=_COUNT, default=500)
    p.add_argument("--grad-tol", type=_POSITIVE, default=1e-5)
    p.add_argument("--holdout", default=None,
                   help="CSV for early stopping by held-out score")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="train-conditioned test log-likelihood")
    common(p, "input", "test", "model")
    p.add_argument("--test", default=None)
    p.add_argument("--model", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="draw a dataset from a stored model")
    common(p, "output", "seed", "model", "rows")
    p.add_argument("--model", default=None)
    p.add_argument("--rows", type=_POSITIVE_INT, default=None)
    p.add_argument("--edges", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("semisup", help="greedy label inference")
    common(p, "input", "output", "seed", "label_column")
    p.add_argument("--label-column", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--classes", type=_CLASSES, default=None)
    p.add_argument("--alpha", type=_STICKINESS, default=0.9)
    p.add_argument("--alpha-grid", type=_FRACTIONS, default=None)
    p.add_argument("--restarts", type=_POSITIVE_INT, default=5)
    p.add_argument("--max-sweeps", type=_COUNT, default=50)
    p.add_argument("--max-iters", type=_COUNT, default=60)
    p.add_argument("--sigma-scale", type=_POSITIVE, default=1.0)
    p.set_defaults(func=cmd_semisup)

    p = sub.add_parser("vb", help="variational Bayes for tabular data")
    common(p, "input", "output")
    p.add_argument("--prior-count", type=_POSITIVE, default=1.0)
    p.add_argument("--max-rounds", type=_COUNT, default=200)
    p.add_argument("--resume", default=None,
                   help="checkpoint to continue from (prior comes from it)")
    p.set_defaults(func=cmd_vb)

    p = sub.add_parser("spiral", help="generate 3D spiral data")
    common(p, "output", "seed")
    p.add_argument("--rows", type=int, default=600)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--turns", type=float, default=3.0)
    p.set_defaults(func=cmd_spiral)

    p = sub.add_parser("spiral-bench", help="spiral density-estimation harness")
    common(p, "output", "seed")
    p.add_argument("--rows", type=int, default=600)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--turns", type=float, default=3.0)
    p.add_argument("--folds", type=_POSITIVE_INT, default=10)
    p.add_argument("--splits", type=_NUMBERS, default="0.8,0.1,0.1")
    p.add_argument("--max-iters", type=_COUNT, default=60)
    p.add_argument("--restarts", type=_POSITIVE_INT, default=10)
    p.add_argument("--bandwidth-grid", type=_NUMBERS, default=None)
    p.set_defaults(func=cmd_spiral_bench)

    p = sub.add_parser("semisup-bench", help="synthetic semi-supervised harness")
    common(p, "output", "seed")
    p.add_argument("--rows", type=int, default=60)
    p.add_argument("--alpha-true", type=_STICKINESS, default=0.9)
    p.add_argument("--labeled-fracs", type=_FRACTIONS, default="0.3")
    p.add_argument("--runs", type=_POSITIVE_INT, default=10)
    p.add_argument("--restarts", type=_POSITIVE_INT, default=5)
    p.set_defaults(func=cmd_semisup_bench)

    p = sub.add_parser("plotdata", help="emit TSV plot data from artifacts")
    common(p, "input", "output", "kind")
    p.add_argument("--kind", default=None,
                   choices=["scatter3d", "error-vs-labels", "elbo-trace"])
    p.add_argument("--edges", default=None)
    p.set_defaults(func=cmd_plotdata)

    return parser


def _parse_args(argv):
    """Flags over ``--config`` values over defaults; then every option the
    subcommand requires must have a value from one of them."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        subparser = _subparser(parser, args.command)
        # config-file values become the subcommand's defaults, and parsing the
        # same command line again lets every flag given there win, however
        # argparse matched it (abbreviated, or as --flag=value)
        subparser.set_defaults(**_load_config_file(args.config, subparser))
        args = parser.parse_args(argv)
    missing = [f"--{name.replace('_', '-')}" for name in args.required
               if getattr(args, name) is None]
    if missing:
        raise ConfigError(f"outtree {args.command}: required, as a flag or a "
                          f"--config key: {', '.join(missing)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return args.func(args)
    except OutTreeError as exc:
        code = 2 if isinstance(exc, ConfigError) else 3 if isinstance(exc, DataError) else 4
        record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        print(json.dumps(record), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
