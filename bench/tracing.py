"""Traced run: the CLI pipeline replayed in-process through the public API.

Spans (name, start, end, parent) are kept in memory and written to one JSON
file when the run ends; no tracing code lives in the package. Each
per-layer time is taken in the command whose end-to-end metric it feeds:
loading in ``validate``, the matrix, sweep and matrix export in
``cluster``, ``load_matrix`` in ``cluster --matrix``, and the analytics in
``diversity``. Work that happens inside ``distance_matrix`` and ``sweep``
(enumeration, featurization, per-pair GED, per-threshold agglomeration and
silhouette) is timed by a probe pass that calls the same public functions
once more after the pipeline.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from lpmgroup import (
    ClusteringParams,
    DEFAULT_BOUND,
    DEFAULT_ENUM_CAP,
    DEFAULT_LANG_CAP,
    LocalProcessModel,
    MatrixParams,
    RankedModelSet,
    agglomerate,
    bounded_language,
    distance_matrix,
    diversity_report,
    ef_relation,
    export_clusters,
    export_matrix,
    export_reports,
    ged_similarity,
    load_matrix,
    parse_pnml_file,
    read_manifest,
    reduction_curve,
    representatives,
    silhouette,
    sweep,
    validate_lpm,
)
from lpmgroup.measures import capped_traces

GED_SAMPLE_PAIRS = 40  # per-pair GED probe size on workloads that use another measure
GED_SAMPLE_BUDGET = 600
PERCENTILES = (50, 90, 95, 99, 99.9)


class Tracer:
    """In-memory spans; one trace id per traced run."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str, under: str | None = None) -> float:
        """Summed duration of the spans called ``name`` (below ``under`` if given)."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name and self._below(s, under))

    def _below(self, span: dict, ancestor: str | None) -> bool:
        if ancestor is None:
            return True
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == ancestor:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"trace_id": self.trace_id, "spans": self.spans}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _cpu_s() -> float:
    """CPU time of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def import_seconds(src: Path) -> float:
    """Time to import lpmgroup.cli (numpy and scipy included) in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import lpmgroup.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip())


def _load(tracer: Tracer, manifest_path: Path) -> tuple[RankedModelSet, int]:
    """What load_manifest does, one span per layer call."""
    with tracer.span("manifest.load"):
        manifest = read_manifest(manifest_path)
    models, ranks, size = [], {}, 0
    for entry in manifest.entries:
        with tracer.span("pnml.parse"):
            net, initial, final = parse_pnml_file(entry.path)
        size += entry.path.stat().st_size
        with tracer.span("petri.validate"):
            report = validate_lpm(net, initial, final)
        if not report.ok:
            raise RuntimeError(f"model {entry.id} is invalid: {report.violations}")
        models.append(LocalProcessModel(id=entry.id, net=net, initial=initial, final=final))
        ranks[entry.id] = entry.rank
    return RankedModelSet(models=models, ranks=ranks), size


def _percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, round(pct / 100 * (len(ordered) - 1))))
    return ordered[k]


def traced_run(workload, seed: int, manifest: Path, out: Path, spans_file: Path, untraced: dict) -> dict[str, tuple[float, str]]:
    """Replay the pipeline with spans, write them to ``spans_file`` and
    return {metric: (value, unit)}. ``untraced`` holds the invocations of one
    untraced repetition; the tracing overhead is measured against it."""
    src = Path(sys.modules["lpmgroup"].__file__).resolve().parent.parent
    tracer = Tracer(f"{workload.name}-s{seed}")
    measure = workload.measure
    bound = workload.params.get("bound", DEFAULT_BOUND)
    budget = workload.params.get("ged_budget", GED_SAMPLE_BUDGET)
    params = MatrixParams(bound=bound, ged_budget=budget, workers=workload.workers)
    m: dict[str, tuple[float, str]] = {}
    for name in ("cluster", "cached", "diversity"):
        (out / name).mkdir(parents=True, exist_ok=True)
    matrix_path = out / "cluster" / f"matrix_{measure}.csv"

    with tracer.span("cli.validate"):
        ranked, size = _load(tracer, manifest)
    with tracer.span("cli.cluster"):
        ranked, _ = _load(tracer, manifest)
        cpu0 = _cpu_s()
        with tracer.span("matrix.distance_matrix") as dm:
            matrix = distance_matrix(ranked.models, measure, params).rounded()
        dm_cpu = _cpu_s() - cpu0
        with tracer.span("exports.matrix"):
            export_matrix(matrix, matrix_path)
        with tracer.span("clustering.sweep"):
            result = sweep(matrix)
        with tracer.span("clustering.representatives"):
            reps = representatives(result.selected.clusters, "dist", ranked, matrix)
        with tracer.span("exports.clusters"):
            export_clusters(result.selected.clusters, reps, ranked, out / "cluster" / "clusters.csv")
    with tracer.span("cli.cluster_cached"):
        ranked, _ = _load(tracer, manifest)
        with tracer.span("exports.load_matrix"):
            cached = load_matrix(matrix_path, measure=measure)
        with tracer.span("clustering.sweep"):
            cached_result = sweep(cached)
        with tracer.span("clustering.representatives"):
            cached_reps = representatives(cached_result.selected.clusters, "dist", ranked, cached)
        with tracer.span("exports.clusters"):
            export_clusters(cached_result.selected.clusters, cached_reps, ranked, out / "cached" / "clusters.csv")
    with tracer.span("cli.diversity"):
        ranked, _ = _load(tracer, manifest)
        with tracer.span("matrix.distance_matrix"):
            div_matrix = distance_matrix(ranked.models, measure, params).rounded()
        with tracer.span("clustering.sweep"):
            div_result = sweep(div_matrix)
        with tracer.span("clustering.representatives"):
            div_reps = representatives(div_result.selected.clusters, "dist", ranked, div_matrix)
        with tracer.span("analysis.reduction_curve"):
            curve = reduction_curve(ranked, measure, matrix=div_matrix)
        with tracer.span("analysis.diversity_report"):
            diversity = diversity_report(ranked, ranked.subset(div_reps), measure, matrix=div_matrix)
        with tracer.span("exports.reports"):
            export_reports(curve, diversity, out / "diversity")
        with tracer.span("exports.clusters"):
            export_clusters(div_result.selected.clusters, div_reps, ranked, out / "diversity" / "clusters.csv")

    with tracer.span("bench.layer_probes"):
        languages = []
        with tracer.span("petri.enumerate"):
            if measure == "efg":
                for model in ranked.models:
                    with tracer.span("petri.bounded_language"):
                        languages.append(bounded_language(model, bound, DEFAULT_ENUM_CAP))
        with tracer.span("petri.ef_relation"):
            for lang in languages:
                ef_relation(lang)
        # the CLI caps languages only under `full`; like the GED probe, this
        # times the measures-layer call on whatever languages the workload has
        with tracer.span("measures.capped_traces"):
            capped = [capped_traces(lang, DEFAULT_LANG_CAP) for lang in languages]
        n = len(ranked.models)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if measure != "ged":
            pairs = random.Random(f"ged-sample:{seed}").sample(pairs, min(GED_SAMPLE_PAIRS, len(pairs)))
        pair_ms, exact = [], 0
        with tracer.span("ged.pairs"):
            for i, j in pairs:
                with tracer.span("ged.ged_similarity") as span:
                    _, is_exact = ged_similarity(ranked.models[i], ranked.models[j], budget)
                pair_ms.append((span["end"] - span["start"]) * 1000.0)
                exact += is_exact
        merges = 0
        for threshold in (o.threshold for o in result.outcomes):
            with tracer.span("clustering.agglomerate"):
                clusters, dendrogram = agglomerate(matrix, ClusteringParams(threshold=threshold))
            merges += len(dendrogram)
            with tracer.span("clustering.silhouette"):
                silhouette(matrix, clusters)

    tracer.write(spans_file)

    import_s = import_seconds(src)
    dm_s = dm["end"] - dm["start"]
    enumerate_s = tracer.total("petri.enumerate")
    n_pairs = n * (n - 1) // 2
    approx = int(matrix.approx.sum()) // 2
    tail_pct = max(p for p in PERCENTILES if len(pair_ms) * (1 - p / 100) >= 10) if len(pair_ms) >= 20 else 50
    commands = ("cli.validate", "cli.cluster", "cli.cluster_cached", "cli.diversity")
    traced_total = sum(tracer.total(c) for c in commands) + len(commands) * import_s
    untraced_total = sum(untraced[c].wall_s for c in ("validate", "cluster", "cached", "diversity"))

    m["cli.import_s"] = (import_s, "s")
    m["cli.cluster_cpu_s"] = (untraced["cluster"].cpu_s, "s")
    m["manifest.load_s"] = (tracer.total("manifest.load", "cli.validate"), "s")
    m["pnml.parse_s"] = (tracer.total("pnml.parse", "cli.validate"), "s")
    m["pnml.bytes"] = (size, "bytes")
    m["petri.validate_s"] = (tracer.total("petri.validate", "cli.validate"), "s")
    m["petri.enumerate_s"] = (enumerate_s, "s")
    m["petri.traces"] = (sum(len(lang.traces) for lang in languages), "count")
    m["petri.lang_max"] = (max((len(lang.traces) for lang in languages), default=0), "count")
    m["petri.truncated_models"] = (sum(lang.truncated for lang in languages), "count")
    m["petri.ef_relation_s"] = (tracer.total("petri.ef_relation"), "s")
    m["measures.capped_traces_s"] = (tracer.total("measures.capped_traces"), "s")
    m["measures.lang_cap_hits"] = (sum(hit for _, hit in capped), "count")
    m["matrix.distance_matrix_s"] = (dm_s, "s")
    m["matrix.kernel_s"] = (dm_s - enumerate_s, "s")
    m["matrix.pairs"] = (n_pairs, "count")
    m["matrix.pairs_per_s"] = (n_pairs / dm_s, "1/s")
    m["matrix.approx_pairs"] = (approx, "count")
    m["matrix.approx_pair_frac"] = (approx / n_pairs, "ratio")
    m["matrix.parallel_eff"] = (dm_cpu / (dm_s * params.workers), "ratio")
    m["ged.pairs"] = (len(pairs), "count")
    m["ged.exact_frac"] = (exact / len(pairs), "ratio")
    m["ged.pair_ms_p50"] = (statistics.median(pair_ms), "ms")
    m["ged.pair_ms_tail"] = (_percentile(pair_ms, tail_pct), "ms")
    m["ged.pair_tail_pct"] = (tail_pct, "percentile")
    m["clustering.sweep_s"] = (tracer.total("clustering.sweep", "cli.cluster"), "s")
    m["clustering.agglomerate_s"] = (tracer.total("clustering.agglomerate"), "s")
    m["clustering.silhouette_s"] = (tracer.total("clustering.silhouette"), "s")
    m["clustering.merges"] = (merges, "count")
    m["clustering.representatives_s"] = (tracer.total("clustering.representatives", "cli.cluster"), "s")
    m["analysis.reduction_curve_s"] = (tracer.total("analysis.reduction_curve"), "s")
    m["analysis.curve_sweeps"] = (sum(p.model_count >= 2 for p in curve.points), "count")
    m["analysis.diversity_report_s"] = (tracer.total("analysis.diversity_report"), "s")
    m["exports.matrix_s"] = (tracer.total("exports.matrix"), "s")
    m["exports.matrix_bytes"] = (matrix_path.stat().st_size, "bytes")
    m["exports.load_matrix_s"] = (tracer.total("exports.load_matrix"), "s")
    m["exports.reports_s"] = (tracer.total("exports.reports"), "s")
    m["bench.trace_overhead_s"] = (traced_total - untraced_total, "s")
    return m
