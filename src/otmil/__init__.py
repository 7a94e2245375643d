"""Weakly supervised instance labeling for multiple instance learning.

An instance classifier is trained from bag labels alone by alternating
two steps: assign pseudo labels to every instance inside the positive
bags with an entropy-regularized optimal transport step whose column
marginals pin the overall positive fraction, then update the classifier
by SGD on a mix of those pseudo labels and the known-negative instances.
Max, mean, and attention bag-pooling baselines, synthetic bag
generators, and entropy analytics round out the toolkit.
"""

from .baselines import (AttentionParams, PoolParams, attention_instance_scores,
                        baseline_instance_scores, baseline_scores,
                        pool_bags, pool_baseline_train)
from .data import (Bag, Dataset, GenConfig, Instance, bags_from_arrays,
                   generate_hard_bags, generate_normal_bags, kfold_split,
                   load_benchmark_csv, load_idx_mnist, load_ndjson,
                   save_ndjson)
from .labeling import (MuSchedule, SinkhornAssignment, adaptive_mu,
                       apply_local_constraint, harden, sinkhorn_assign)
from .metrics import (EntropyPoint, RocResult, bag_predict, dataset_aucs,
                      dataset_scores, entropy_curve, pseudo_label_metrics,
                      roc_auc, segment_bag_scores, write_table_csv)
from .model import (ClassifierParams, Gradients, SgdConfig, backward, forward,
                    init_classifier, load_checkpoint, save_checkpoint,
                    sgd_step)
from .numkit import Rng
from .trainer import (RunRecord, TrainConfig, benchmark_cv, holdout_sweep,
                      mixed_batches, run_ablation_suite, self_train, train,
                      write_run_csv)

__version__ = "0.1.0"

__all__ = [
    "AttentionParams", "Bag", "ClassifierParams", "Dataset", "EntropyPoint",
    "GenConfig", "Gradients", "Instance", "MuSchedule", "PoolParams",
    "RocResult", "Rng", "RunRecord", "SgdConfig", "SinkhornAssignment",
    "TrainConfig",
    "adaptive_mu", "apply_local_constraint", "attention_instance_scores",
    "backward", "bag_predict", "bags_from_arrays",
    "baseline_instance_scores", "baseline_scores", "benchmark_cv",
    "dataset_aucs", "dataset_scores", "entropy_curve", "forward",
    "generate_hard_bags", "generate_normal_bags", "harden", "holdout_sweep",
    "init_classifier",
    "kfold_split", "load_benchmark_csv", "load_checkpoint",
    "load_idx_mnist", "load_ndjson", "mixed_batches",
    "pool_bags", "pool_baseline_train", "pseudo_label_metrics", "roc_auc",
    "run_ablation_suite", "save_checkpoint", "save_ndjson",
    "segment_bag_scores", "self_train", "sgd_step", "sinkhorn_assign",
    "train", "write_run_csv", "write_table_csv",
]
