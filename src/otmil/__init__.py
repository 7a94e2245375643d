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
                        baseline_bag_scores, baseline_instance_scores,
                        pool_bags, pool_baseline_train)
from .data import (Bag, Dataset, GenConfig, Instance, StackedBags,
                   bags_from_arrays, generate_hard_bags, generate_normal_bags,
                   kfold_split, load_benchmark_csv, load_idx_mnist,
                   load_ndjson, save_ndjson, stack_dataset)
from .labeling import (MuSchedule, PredictionMatrix, PseudoLabelMatrix,
                       SinkhornAssignment, SinkhornConfig, adaptive_mu,
                       apply_local_constraint, naive_assign, sinkhorn_assign)
from .metrics import (EntropyPoint, RocResult, bag_predict, entropy_curve,
                      pseudo_label_metrics, roc_auc, segment_bag_scores,
                      write_entropy_csv)
from .model import (ClassifierParams, Gradients, SgdConfig, backward, forward,
                    init_classifier, load_checkpoint, save_checkpoint,
                    sgd_step, soft_cross_entropy)
from .numkit import Rng
from .trainer import (RunRecord, TrainConfig, benchmark_cv, mixed_batches,
                      run_ablation_suite, self_train, write_run_csv,
                      write_run_summary)

__version__ = "0.1.0"

__all__ = [
    "AttentionParams", "Bag", "ClassifierParams", "Dataset", "EntropyPoint",
    "GenConfig", "Gradients", "Instance", "MuSchedule", "PoolParams",
    "PredictionMatrix", "PseudoLabelMatrix", "RocResult", "Rng", "RunRecord",
    "SgdConfig", "SinkhornAssignment", "SinkhornConfig", "StackedBags",
    "TrainConfig",
    "adaptive_mu", "apply_local_constraint", "attention_instance_scores",
    "backward", "bag_predict", "bags_from_arrays",
    "baseline_bag_scores", "baseline_instance_scores", "benchmark_cv",
    "entropy_curve", "forward", "generate_hard_bags", "generate_normal_bags",
    "init_classifier", "kfold_split", "load_benchmark_csv", "load_checkpoint",
    "load_idx_mnist", "load_ndjson", "mixed_batches", "naive_assign",
    "pool_bags", "pool_baseline_train", "pseudo_label_metrics", "roc_auc",
    "run_ablation_suite", "save_checkpoint", "save_ndjson",
    "segment_bag_scores", "self_train", "sgd_step", "sinkhorn_assign",
    "soft_cross_entropy", "stack_dataset", "write_entropy_csv",
    "write_run_csv", "write_run_summary",
]
