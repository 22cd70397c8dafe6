"""Per-layer tracing of the outtree package from the benchmark's side.

The package is not instrumented. Instead, every public function of each
module is wrapped where its callers look it up: the module attribute and
every other ``outtree.*`` module global bound to the same object (for
example ``likelihood.build_beta`` and ``semisup.IncrementalLogdet``), and
class attributes for methods. A wrapper records a span only while the
tracer is active; self time is a span's CPU time (``time.process_time``)
minus the part covered by its child spans. ``install`` and ``uninstall`` swap the bindings, so an
untraced round runs the package's own functions.

LAPACK factorizations are counted by wrapping ``numpy.linalg.slogdet``,
``inv`` and ``svd`` and ``scipy.linalg.lu_factor``, and only for matrices of
dimension at least ``min_dim`` (set per operation to T - 1), so the 3x3
covariance inverses of the Gaussian model are not counted.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, metric name, options). "*.name" wraps the method in
# every class of the module that defines it. Transparent spans only mark
# the call stack (for attribution) and count calls; their time stays with
# the caller.
SPANS = [
    ("models", "build_beta", "models.build_beta", {"size": lambda a, k: len(a[0])}),
    ("models", "*.log_conditional_matrix", "models.log_conditional_matrix", {}),
    ("models", "*.log_weight_gradients", "models.log_weight_gradients",
     {"on_return": "gradient_bytes"}),
    ("likelihood", "fit_ml", "likelihood.fit_ml", {"on_return": "accepted"}),
    ("likelihood", "_objective", "likelihood.objective", {"transparent": True}),
    ("likelihood", "tdid_log_likelihood", "likelihood.tdid_log_likelihood", {}),
    ("likelihood", "grad_tdid", "likelihood.grad_tdid", {}),
    ("likelihood", "_partition_gradient", "likelihood.partition_gradient", {}),
    ("likelihood", "test_log_likelihood", "likelihood.test_log_likelihood", {}),
    ("treemath", "log_partition", "treemath.log_partition",
     {"size": lambda a, k: a[0].size}),
    ("treemath", "_augmented_logdet", "treemath.augmented_logdet", {"transparent": True}),
    ("treemath", "log_partition_per_root", "treemath.log_partition_per_root", {}),
    ("treemath", "per_root_marginal", "treemath.per_root_marginal", {}),
    ("treemath", "tree_entropy", "treemath.tree_entropy", {}),
    ("treemath", "IncrementalLogdet.__init__", "treemath.IncrementalLogdet.init", {}),
    ("treemath", "IncrementalLogdet.preview_edits",
     "treemath.IncrementalLogdet.preview_edits", {}),
    ("treemath", "IncrementalLogdet.apply_edits",
     "treemath.IncrementalLogdet.apply_edits", {}),
    ("semisup", "greedy_label_inference", "semisup.greedy_label_inference",
     {"on_return": "sweeps"}),
    ("semisup", "build_joint_beta", "semisup.build_joint_beta", {}),
    ("semisup", "LabelInference.flip_delta", "semisup.flip_delta", {}),
    ("semisup", "LabelInference.screen_delta", "semisup.screen_delta", {}),
    ("semisup", "LabelInference.commit", "semisup.commit", {}),
    ("semisup", "LabelInference.recomputed_log_partition", "semisup.recompute", {}),
    ("vb", "update_q_c", "vb.update_q_c", {}),
    ("vb", "update_q_root", "vb.update_q_root", {}),
    ("vb", "elbo", "vb.elbo", {}),
    ("vb", "expected_log_weights", "vb.expected_log_weights", {}),
    ("sampler", "sample_dataset", "sampler.sample_dataset", {}),
    ("io", "write_model", "io.write_model", {}),
    ("io", "write_fit_log", "io.write_fit_log", {}),
    ("cli", "main", "cli.main", {}),
]

FACTORIZATIONS = [("numpy.linalg", "slogdet"), ("numpy.linalg", "inv"),
                  ("numpy.linalg", "svd"), ("scipy.linalg", "lu_factor")]

# Spans reported as .calls and .s, and those reported as .s only.
CALLS_AND_SELF = [
    "models.build_beta", "models.log_weight_gradients",
    "likelihood.grad_tdid", "likelihood.tdid_log_likelihood",
    "treemath.log_partition", "treemath.log_partition_per_root",
    "treemath.per_root_marginal", "treemath.tree_entropy",
    "treemath.IncrementalLogdet.init", "treemath.IncrementalLogdet.preview_edits",
    "treemath.IncrementalLogdet.apply_edits",
    "semisup.build_joint_beta", "semisup.flip_delta", "semisup.commit",
    "semisup.screen_delta", "sampler.sample_dataset",
    "io.write_model", "io.write_fit_log", "cli.main",
]
SELF_ONLY = [
    "models.log_conditional_matrix", "likelihood.fit_ml",
    "likelihood.partition_gradient", "likelihood.test_log_likelihood",
    "vb.update_q_c", "vb.update_q_root", "vb.elbo", "vb.expected_log_weights",
]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for name in CALLS_AND_SELF:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower")]
    spec += [(f"{name}.s", "s", "lower") for name in SELF_ONLY]
    spec += [
        ("models.log_weight_gradients.mb", "MB", "lower"),
        ("models.build_beta.exponent", "slope", "lower"),
        ("treemath.log_partition.exponent", "slope", "lower"),
        ("treemath.factorizations", "count", "lower"),
        ("treemath.factorizations_per_eval", "ratio", "lower"),
        ("treemath.svd_fallbacks", "count", "lower"),
        ("likelihood.line_search_accept_ratio", "ratio", "higher"),
        ("semisup.flip_accept_ratio", "ratio", "higher"),
        ("semisup.recompute_fallbacks", "count", "lower"),
        ("semisup.sweeps", "count", "lower"),
        ("blas.threads", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return spec


class Bucket:
    """Everything recorded over one traced stretch (set-up or one round)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.sized = defaultdict(list)


class Tracer:
    def __init__(self):
        self.active = False
        self.min_dim = 0
        self.stack = []
        self.bucket = Bucket()
        self._patches = []

    def inside(self, name):
        return any(frame[0] == name for frame in self.stack)

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, size=None, on_return=None, transparent=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            tracer.stack.append(frame)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.process_time() - start
                tracer.stack.pop()
                bucket = tracer.bucket
                bucket.calls[name] += 1
                if transparent:
                    if tracer.stack:
                        tracer.stack[-1][1] += frame[1]
                else:
                    if tracer.stack:
                        tracer.stack[-1][1] += elapsed
                    bucket.self_s[name] += elapsed - frame[1]
                    if size is not None:
                        bucket.sized[(name, size(args, kwargs))].append(elapsed)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _factorization(self, fn, qualified):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if tracer.active:
                shape = np.shape(a)
                if len(shape) >= 2 and min(shape[-2:]) >= tracer.min_dim:
                    counts = tracer.bucket.counts
                    counts["treemath.factorizations"] += 1
                    if tracer.inside("likelihood.fit_ml"):
                        counts["fit.factorizations"] += 1
                if qualified == "numpy.linalg.svd" \
                        and tracer.inside("treemath.augmented_logdet"):
                    tracer.bucket.counts["treemath.svd_fallbacks"] += 1
            return fn(a, *args, **kwargs)

        return wrapper

    def _gradient_bytes(self, result):
        megabytes = np.asarray(result[0]).size * 8 / 1e6
        counts = self.bucket.counts
        counts["gradient_mb"] = max(counts["gradient_mb"], megabytes)

    def _accepted(self, report):
        self.bucket.counts["fit.accepted"] += len(report.iterations)

    def _sweeps(self, result):
        self.bucket.counts["semisup.sweeps"] += result.sweeps

    # -- installation -----------------------------------------------------

    def _rebind(self, original, wrapper, modules):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def install(self):
        """Swap every binding of the traced functions for its wrapper."""
        if self._patches:
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "outtree" or n.startswith("outtree."))]
        hooks = {"gradient_bytes": self._gradient_bytes, "accepted": self._accepted,
                 "sweeps": self._sweeps}
        for module_name, attr, name, options in SPANS:
            module = sys.modules[f"outtree.{module_name}"]
            options = dict(options)
            if "on_return" in options:
                options["on_return"] = hooks[options["on_return"]]
            owner, _, method = attr.rpartition(".")
            if not owner:
                original = getattr(module, attr)
                self._rebind(original, self._span(original, name, **options), modules)
                continue
            classes = [c for c in vars(module).values() if isinstance(c, type)
                       and c.__module__ == module.__name__] if owner == "*" \
                else [getattr(module, owner)]
            for cls in classes:
                if method in vars(cls):
                    original = vars(cls)[method]
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self._span(original, name, **options))
        for module_name, attr in FACTORIZATIONS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            wrapper = self._factorization(original, f"{module_name}.{attr}")
            self._patches.append((module, attr, original))
            setattr(module, attr, wrapper)
            self._rebind(original, wrapper, modules)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- recording --------------------------------------------------------

    def start(self, bucket, min_dim):
        self.bucket = bucket
        self.min_dim = min_dim
        self.active = True

    def stop(self):
        self.active = False


def _slope(rounds, name, small, large):
    samples = {size: [t for b in rounds for t in b.sized.get((name, size), [])]
               for size in (small, large)}
    if not samples[small] or not samples[large]:
        return 0.0
    ratio = statistics.median(samples[large]) / statistics.median(samples[small])
    return float(np.log(ratio) / np.log(large / small))


def per_layer_metrics(setup, rounds, overhead_s, blas_threads, scale):
    """Per-layer values of one round (median self time over the traced
    rounds; counts from the first, which every round repeats), plus the
    sampler's set-up work. Times are multiplied by ``scale``, the run's
    calibration factor."""
    first = rounds[0]
    for other in rounds[1:]:
        if dict(other.calls) != dict(first.calls):
            print("warning: traced rounds made different call counts",
                  file=sys.stderr)

    # set-up counts only for the sampler: other set-up work (the score
    # workload's seed fit) is not what those layers' figures are about
    def calls(name):
        return setup.calls.get(name, 0) * name.startswith("sampler.") \
            + first.calls.get(name, 0)

    def self_s(name):
        return scale * (setup.self_s.get(name, 0.0) * name.startswith("sampler.")
                        + statistics.median(b.self_s.get(name, 0.0) for b in rounds))

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in CALLS_AND_SELF:
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.s"] = self_s(name)
    for name in SELF_ONLY:
        values[f"{name}.s"] = self_s(name)
    counts = first.counts
    evaluations = calls("likelihood.objective") + calls("likelihood.grad_tdid")
    values.update({
        "models.log_weight_gradients.mb": counts.get("gradient_mb", 0.0),
        "models.build_beta.exponent": _slope(rounds, "models.build_beta", 300, 1000),
        "treemath.log_partition.exponent":
            _slope(rounds, "treemath.log_partition", 300, 1000),
        "treemath.factorizations": counts.get("treemath.factorizations", 0.0),
        "treemath.factorizations_per_eval":
            ratio(counts.get("fit.factorizations", 0.0), evaluations),
        "treemath.svd_fallbacks": counts.get("treemath.svd_fallbacks", 0.0),
        "likelihood.line_search_accept_ratio":
            ratio(counts.get("fit.accepted", 0.0), calls("likelihood.objective")),
        "semisup.flip_accept_ratio":
            ratio(calls("semisup.commit"), calls("semisup.flip_delta")),
        "semisup.recompute_fallbacks": calls("semisup.recompute"),
        "semisup.sweeps": counts.get("semisup.sweeps", 0.0),
        "blas.threads": blas_threads,
        "trace.overhead_s": overhead_s,
    })
    return values
