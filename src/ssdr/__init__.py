"""Semi-supervised spectral dimensionality reduction.

Supervised neighborhood costs, unsupervised heat-kernel costs and their
weighted combination define a single regularized generalized eigenproblem;
kernelization goes through explicit kernel-PCA coordinates and
classification is k-NN in the embedded space.
"""
from .costs import (CostMatrix, HeatKernelSpec, export_dense_csv,
                    export_edge_list, hadamard_power, heat_kernel_costs,
                    import_edge_list, lfda_costs, mmc_costs, neighbor_graphs,
                    pairwise_sq_dists, self_cost)
from .dataset import (Dataset, DatasetError, SplitSpec, TOY_KINDS, UNLABELED,
                      center, generate_balance, generate_multimodal_toy,
                      load_csv, save_csv, split)
from .harness import (ExperimentConfig, LEARNER_NAMES, LearnerResult,
                      cross_validate, format_report, learner_preset,
                      load_dataset, parse_config, run_benchmark, run_learner)
from .knn import KnnIndex, good_nearby_ratio, good_neighbors_score, knn_classify
from .kpca import (KernelSpec, KpcaMap, gram, kernel_values, kpca_embed,
                   kpca_fit, kpca_transform, kpca_trick_fit, load_kpca,
                   save_kpca)
from .solver import (BASES, EmbeddingModel, LearnerSpec, UNLABEL_MODES,
                     WEIGHTING_MODES, axis_weighting, build_scatters, embed,
                     fit, laplacian_scatter, load_model, numerical_rank,
                     pca_preprocess, regularize, resolve_k, save_model,
                     solve_gev)

__version__ = "0.1.0"
