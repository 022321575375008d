"""Balanced feature agglomeration for sparse multi-label datasets.

Clusters features into a balanced hierarchy, collapses each cluster into one
super-feature, and exploits the resulting partition for co-occurrence feature
imputation and rare-label reranking. Ships clustering- and classification-
quality metric suites plus numerical verifiers for the distortion bounds.
"""

__version__ = "0.1.0"

from .agglomerate import AVERAGE, SUM, agglomerate_dataset
from .cooc import PseudoCooc, build_cooc, erase_matrix, impute_matrix
from .cluster_quality import (
    ClusterQualityReport,
    balance_factor,
    lmi,
    mutual_information,
    normalized_entropy,
)
from .dataio import Dataset, DatasetStats, load_xc, parse_xc, save_xc, stats, write_xc
from .errors import InvariantError, ParseError
from .kernels import backend_name
from .linear import OvaConfig, OvaModel, predict, train_ova
from .reranking import PrototypeSet, build_prototypes, rerank_predictions
from .reprs import ReprSet, build_repr_x, build_repr_xy, normalize
from .sparse import SparseMatrix
from .splits import Ranking, SplitResult, dcg, kmeans_split, ndcg, ndcg_split
from .tree import (
    ClusterTree,
    FeaturePartition,
    SplitCounts,
    ensemble_trees,
    leaves,
    make_tree,
)
from .xcmetrics import (
    Predictions,
    PropensityModel,
    coverage_at_k,
    load_predictions,
    ndcg_at_k,
    percentile_macro_precision,
    precision_at_k,
    propensities,
    psndcg_at_k,
    psp_at_k,
    save_predictions,
)
