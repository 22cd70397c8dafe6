"""Latent out-tree density estimation and structure inference.

Evaluates, differentiates, and maximizes the exchangeable likelihood that
sums a factorized tree likelihood over all rooted out-trees (via the
directed matrix tree theorem), samples from the generative model, infers
missing labels semi-supervisedly, and runs variational Bayes over structure
and parameters for tabular models.
"""

from .errors import (ConfigError, DataError, NumericalFaultError, OutTreeError,
                     ZeroPartitionError)
from .likelihood import (FitReport, TestScore, fit_ml, grad_tdid,
                         iid_log_likelihood, tdid_log_likelihood,
                         test_log_likelihood)
from .models import (GaussianModel, KernelModel, MutationModel, TabularModel,
                     build_beta, gaussian_init_iid, kernel_init_iid,
                     tabular_init_iid)
from .sampler import SampleDraw, sample_dataset, sample_given_tree, \
    sample_uniform_out_tree
from .semisup import (LabelModel, build_joint_beta, cross_validate_alpha,
                      greedy_label_inference)
from .treemath import (EdgeMarginals, IncrementalLogdet, LogPartition, OutTree,
                       RootWeights, WeightMatrix, brute_force_log_partition,
                       edge_marginals, enumerate_out_trees, log_partition,
                       log_partition_per_root, per_root_marginal,
                       posterior_weights, root_posterior, tree_entropy)
from .vb import DirichletPrior, VariationalState, exact_log_evidence, vb_fit

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
