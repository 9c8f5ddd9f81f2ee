"""Group local process models by similarity and keep one per cluster.

The package ingests sets of small accepting labeled Petri nets with an
externally supplied ranking, computes pairwise distances under one of five
similarity measures, clusters with complete linkage over a threshold sweep,
projects one representative model out of every cluster, and reports how
much the set shrinks and how much more diverse the survivors are.
"""

from .analysis import (
    DEFAULT_CURVE_NS,
    DEFAULT_DIVERSITY_NS,
    CurvePoint,
    DiversityEntry,
    DiversityReport,
    ReductionCurve,
    diversity_report,
    map_ranks,
    mean_pairwise_distance,
    reduction_curve,
    top_n,
)
from .clustering import (
    DEFAULT_THRESHOLDS,
    ClusteringParams,
    ClusterSet,
    Dendrogram,
    MergeStep,
    RankedModelSet,
    SweepResult,
    ThresholdOutcome,
    agglomerate,
    check_partition,
    repr_dist,
    repr_rank,
    representatives,
    silhouette,
    sweep,
)
from .exports import (
    export_clusters,
    export_dot,
    export_matrix,
    export_reports,
    load_matrix,
    matrix_to_csv,
)
from .ged import GedResult, ged_raw, ged_similarity
from .manifest import LoadedModels, Manifest, ManifestEntry, ManifestError, load_manifest, read_manifest
from .matrix import DistanceMatrix, MatrixParams, distance, distance_matrix, similarity
from .measures import (
    DEFAULT_GED_BUDGET,
    DEFAULT_LANG_CAP,
    Assignment,
    Measure,
    dice,
    levenshtein,
    normalized_levenshtein,
    optimal_assignment,
    place_gain,
    sim_node,
)
from .petri import (
    DEFAULT_BOUND,
    DEFAULT_ENUM_CAP,
    SILENT,
    BoundedLanguage,
    EnumerationResult,
    LabeledPetriNet,
    LocalProcessModel,
    Marking,
    NetStructureError,
    ValidationReport,
    bounded_language,
    ef_relation,
    enabled,
    fire,
    is_silent,
    unrestricted_transitions,
    valid_complete_firing_sequences,
    validate_lpm,
)
from .pnml import PnmlError, parse_pnml, parse_pnml_file, write_pnml

__version__ = "0.1.0"
