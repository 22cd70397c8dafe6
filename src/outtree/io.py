"""File formats: model documents, variational checkpoints, TSV outputs.

Model and checkpoint documents are line-oriented text with a schema header
(``outtree-model/1``). Every float is written as C99 hex (float.hex), so
round-trips are bit-exact. TSV outputs use repr(), the shortest decimal
that round-trips. All writers go through an atomic temp+rename.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .errors import DataError
from .models import GaussianModel, KernelModel, TabularModel

MODEL_SCHEMA = "outtree-model/1"


def atomic_write(path, text):
    """Write text to path via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".outtree-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt_floats(values):
    return " ".join(float(v).hex() for v in np.asarray(values, dtype=float).ravel())


def _record_lines(records):
    lines = []
    for key, kind, payload in records:
        if kind == "str":
            lines.append(f"{key} str {payload}")
        elif kind == "ints":
            ints = " ".join(str(int(v)) for v in payload)
            lines.append(f"{key} ints {len(list(payload))} {ints}")
        elif kind == "scalar":
            lines.append(f"{key} scalar {_fmt_floats([payload])}")
        elif kind == "vector":
            arr = np.asarray(payload, dtype=float)
            lines.append(f"{key} vector {arr.shape[0]} {_fmt_floats(arr)}")
        elif kind == "matrix":
            arr = np.atleast_2d(np.asarray(payload, dtype=float))
            lines.append(f"{key} matrix {arr.shape[0]} {arr.shape[1]} {_fmt_floats(arr)}")
        else:
            raise ValueError(f"unknown record kind {kind}")
    return lines


def _write_document(path, records):
    atomic_write(path, "\n".join([MODEL_SCHEMA] + _record_lines(records)) + "\n")


def _read_lines(path):
    """The file's non-blank lines; an unreadable file is a ``DataError``."""
    try:
        with open(path) as handle:
            return [line.strip() for line in handle if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _parse_document(path):
    lines = _read_lines(path)
    if not lines or lines[0] != MODEL_SCHEMA:
        raise DataError(f"{path}: not a {MODEL_SCHEMA} document")
    records = {}
    for line in lines[1:]:
        key, *parts = line.split()
        try:
            kind = parts.pop(0)
            if kind == "str":
                records[key] = parts[0]
            elif kind == "scalar":
                records[key] = float.fromhex(parts[0])
            elif kind in ("ints", "vector", "matrix"):
                # a count (rows and columns for a matrix), then that many values
                shape = [int(v) for v in parts[:2 if kind == "matrix" else 1]]
                values = parts[len(shape):]
                if len(values) != math.prod(shape):
                    raise ValueError(f"expected {math.prod(shape)} values, "
                                     f"found {len(values)}")
                records[key] = [int(v) for v in values] if kind == "ints" \
                    else np.array([float.fromhex(v) for v in values]).reshape(shape)
            else:
                raise DataError(f"{path}: unknown record kind {kind!r}")
        except (IndexError, ValueError) as exc:
            raise DataError(f"{path}: malformed record {key!r}: {exc}") from None
    return records


def write_model(path, model):
    """Persist a mutation model; bit-exact round-trip."""
    if isinstance(model, GaussianModel):
        records = [("family", "str", "gaussian"),
                   ("mu_c", "vector", model.mu_c),
                   ("mu_pi", "vector", model.mu_pi),
                   ("sigma_c_given_pi", "matrix", model.sigma_c_given_pi),
                   ("sigma_cc", "matrix", model.sigma_cc),
                   ("sigma_pipi", "matrix", model.sigma_pipi)]
    elif isinstance(model, TabularModel):
        records = [("family", "str", "tabular"),
                   ("alphabet", "ints", model.alphabet_sizes)]
        for d in range(model.dim):
            records.append((f"root_{d}", "vector", model.root_tables[d]))
            records.append((f"cond_{d}", "matrix", model.cond_tables[d]))
    elif isinstance(model, KernelModel):
        records = [("family", "str", "kernel"),
                   ("kernel_type", "str", model.kernel),
                   ("anchors", "matrix", model.anchors),
                   ("alpha", "matrix", model.alpha),
                   ("mu", "vector", model.mu),
                   ("sigma", "vector", model.sigma),
                   ("alpha_penalty", "scalar", model.alpha_penalty)]
        if model.kernel == "rbf":
            records.append(("gamma", "scalar", model.gamma))
    else:
        raise ValueError(f"cannot persist model type {type(model).__name__}")
    _write_document(path, records)


def read_model(path):
    """The model a document describes; a missing or rejected record is a DataError."""
    records = _parse_document(path)
    family = records.get("family")
    try:
        if family == "gaussian":
            return GaussianModel(mu_c=records["mu_c"], mu_pi=records["mu_pi"],
                                 sigma_c_given_pi=records["sigma_c_given_pi"],
                                 sigma_cc=records["sigma_cc"],
                                 sigma_pipi=records["sigma_pipi"])
        if family == "tabular":
            sizes = records["alphabet"]
            return TabularModel([records[f"root_{d}"] for d in range(len(sizes))],
                                [records[f"cond_{d}"] for d in range(len(sizes))])
        if family == "kernel":
            return KernelModel(anchors=records["anchors"], alpha=records["alpha"],
                               mu=records["mu"], sigma=records["sigma"],
                               kernel=records["kernel_type"],
                               gamma=records.get("gamma"),
                               alpha_penalty=records.get("alpha_penalty", 1e-3))
    except KeyError as exc:
        raise DataError(f"{path}: missing record {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    raise DataError(f"{path}: unknown model family {family!r}")


def write_checkpoint(path, prior, state):
    """Persist a variational state (priors, counts, q_root, ELBO trace)."""
    records = [("family", "str", "vb_state"),
               ("alphabet", "ints", prior.alphabet_sizes)]
    for d in range(len(prior.root)):
        records.append((f"prior_root_{d}", "vector", prior.root[d]))
        records.append((f"prior_cond_{d}", "matrix", prior.cond[d]))
        records.append((f"root_counts_{d}", "vector", state.counts_root[d]))
        records.append((f"cond_counts_{d}", "matrix", state.counts_cond[d]))
    records.append(("q_root", "vector", state.q_root))
    records.append(("elbo_trace", "vector", np.asarray(state.elbo_trace)))
    _write_document(path, records)


def read_checkpoint(path):
    """Returns (DirichletPrior, counts_root, counts_cond, q_root, elbo_trace).

    A missing record, or counts that are not finite, strictly positive and
    of their prior table's shape, is a ``DataError``."""
    from .vb import DirichletPrior

    records = _parse_document(path)
    if records.get("family") != "vb_state":
        raise DataError(f"{path}: not a vb_state document")
    try:
        dims = range(len(records["alphabet"]))
        prior = DirichletPrior(root=tuple(records[f"prior_root_{d}"] for d in dims),
                               cond=tuple(records[f"prior_cond_{d}"] for d in dims))
        if not len(records["elbo_trace"]):
            raise ValueError("record 'elbo_trace' is empty")
        counts = {kind: [_counts(records, f"{kind}_counts_{d}", table.shape)
                         for d, table in enumerate(tables)]
                  for kind, tables in (("root", prior.root), ("cond", prior.cond))}
        return (prior, counts["root"], counts["cond"], records["q_root"],
                records["elbo_trace"])
    except KeyError as exc:
        raise DataError(f"{path}: missing record {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _counts(records, key, shape):
    """A checkpoint's count table, checked against its prior table's shape."""
    table = np.asarray(records[key], dtype=float)
    if table.shape != shape:
        raise ValueError(f"record {key!r} has shape {table.shape}, not {shape}")
    if not np.all(np.isfinite(table) & (table > 0)):
        raise ValueError(f"record {key!r} has a count that is not finite and positive")
    return table


def write_fit_log(path, report):
    """Line-oriented fit trace: iteration, objective, step, gradient norm,
    then ``#`` lines with the objective evaluation count and the stop reason."""
    lines = ["iteration\tobjective\tstep\tgrad_norm",
             f"0\t{float(report.initial_objective)!r}\t0.0\t0.0"]
    lines.extend(f"{it.index}\t{float(it.objective)!r}\t{float(it.step)!r}\t"
                 f"{float(it.grad_norm)!r}" for it in report.iterations)
    lines.append(f"# evaluations\t{report.evaluations}")
    lines.append(f"# reason\t{report.reason}")
    atomic_write(path, "\n".join(lines) + "\n")


def write_sample_csv(path, data):
    data = np.atleast_2d(np.asarray(data))
    lines = [",".join(f"x{d}" for d in range(data.shape[1]))]
    if np.issubdtype(data.dtype, np.integer):
        lines.extend(",".join(str(int(v)) for v in row) for row in data)
    else:
        lines.extend(",".join(repr(float(v)) for v in row) for row in data)
    atomic_write(path, "\n".join(lines) + "\n")


def write_edge_list(path, tree):
    """child,parent rows; the root's parent field is the literal ``root``."""
    lines = ["child,parent"]
    for child in range(tree.size):
        parent = tree.parent[child]
        lines.append(f"{child},{'root' if parent == -1 else int(parent)}")
    atomic_write(path, "\n".join(lines) + "\n")


def read_edge_list(path):
    """The ``OutTree`` an edge-list file describes (see ``write_edge_list``)."""
    from .treemath import OutTree

    lines = _read_lines(path)
    if not lines or lines[0] != "child,parent":
        raise DataError(f"{path}: missing child,parent header")
    pairs = []
    for line in lines[1:]:
        try:
            child, parent = line.split(",")
            pairs.append((int(child), -1 if parent == "root" else int(parent)))
        except ValueError:
            raise DataError(f"{path}: expected child,parent, got {line!r}") from None
    pairs.sort()
    if [child for child, _ in pairs] != list(range(len(pairs))):
        raise DataError(f"{path}: the children must be the nodes 0..T-1, each once")
    parent = np.array([parent for _, parent in pairs], dtype=np.int64)
    try:
        # the root is the node marked -1; OutTree rejects none or several
        return OutTree(root=int(np.argmin(parent)), parent=parent)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
