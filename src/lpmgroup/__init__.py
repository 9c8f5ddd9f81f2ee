"""Group local process models by similarity and keep one per cluster.

The package ingests sets of small accepting labeled Petri nets with an
externally supplied ranking, computes pairwise distances under one of five
similarity measures, clusters with complete linkage over a threshold sweep,
projects one representative model out of every cluster, and reports how
much the set shrinks and how much more diverse the survivors are.

The public names below resolve on first use (PEP 562), so importing the
package, or a command that only parses and validates, loads only the
modules it uses. The package needs only the standard library.
"""

import importlib

# module -> the public names it defines; __all__ and the lazy lookup read this table
_EXPORTS = {
    "analysis": "DEFAULT_CURVE_NS DEFAULT_DIVERSITY_NS CurvePoint DiversityEntry DiversityReport "
    "ReductionCurve diversity_report map_ranks mean_pairwise_distance reduction_curve top_n",
    "clustering": "DEFAULT_THRESHOLDS ClusteringParams ClusterSet Dendrogram MergeStep SweepResult "
    "ThresholdOutcome agglomerate check_partition repr_dist repr_rank representatives silhouette sweep",
    "exports": "export_clusters export_dot export_matrix export_reports export_sweep load_matrix",
    "ged": "GedResult ged_raw ged_similarity",
    "manifest": "LoadedModels Manifest ManifestEntry ManifestError RankedModelSet load_manifest read_manifest",
    "matrix": "DistanceMatrix MatrixParams distance distance_matrix similarity",
    "measures": "DEFAULT_GED_BUDGET DEFAULT_LANG_CAP Assignment Measure dice levenshtein "
    "normalized_levenshtein optimal_assignment place_gain sim_node",
    "petri": "DEFAULT_BOUND DEFAULT_ENUM_CAP SILENT BoundedLanguage LabeledPetriNet LocalProcessModel "
    "Marking NetStructureError ValidationReport bounded_language ef_relation eventually_follows "
    "unrestricted_transitions validate_lpm",
    "pnml": "PnmlError parse_pnml parse_pnml_file write_pnml",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
