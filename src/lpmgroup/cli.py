"""Command-line pipeline: validate, matrix, cluster, diversity, render.

Exit codes: 0 on success, 1 on input errors, and 2 when a degenerate
clustering result (no silhouette-selectable threshold) is escalated by
``--strict``. ``python -m lpmgroup``, ``python -m lpmgroup.cli`` and the
``lpmgroup`` script run ``entry``, which ends the process; ``main(argv)``
returns the code to an in-process caller. ``distance_matrix`` gives
distances at the CSV precision, so running from a cached matrix file and
running end to end produce identical outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from .analysis import (
    DEFAULT_CURVE_NS,
    DEFAULT_DIVERSITY_NS,
    diversity_report,
    map_ranks,
    reduction_curve,
)
from .manifest import ManifestError, load_manifest
from .measures import DEFAULT_GED_BUDGET, DEFAULT_LANG_CAP, Measure
from .petri import DEFAULT_BOUND, DEFAULT_ENUM_CAP

# each command imports matrix, clustering and exports where it uses them:
# validate needs none of them.
if TYPE_CHECKING:
    from .matrix import DistanceMatrix, MatrixParams


class CliError(Exception):
    """Input error; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep exit code 2 for degenerate warnings only
        raise CliError(message)


def _parse_thresholds(spec: str) -> tuple[float, ...]:
    from .exports import MATRIX_DECIMALS

    try:
        lo, hi, step = (float(part) for part in spec.split(":"))
    except ValueError:
        raise CliError(f"bad threshold spec {spec!r}, expected lo:hi:step") from None
    if not 0.0 <= lo <= hi <= 1.0:
        raise CliError(f"threshold spec {spec!r} out of range")
    if not 10.0**-MATRIX_DECIMALS <= step < math.inf:  # a finer step cannot separate quantized distances
        raise CliError(f"threshold step in {spec!r} must be finite and at least 1e-{MATRIX_DECIMALS}")
    values = []
    k = 0
    while True:
        value = round(lo + k * step, 10)
        if value > hi + 1e-9:
            break
        values.append(min(value, 1.0))
        k += 1
    return tuple(values)


def _parse_ns(spec: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise CliError(f"bad n list {spec!r}, expected comma-separated integers") from None
    if not values or any(v < 1 for v in values):
        raise CliError("n values must be positive")
    return values


def _add_common(parser: argparse.ArgumentParser, with_measure: bool = True) -> None:
    parser.add_argument("--manifest", required=True, help="model-set manifest JSON")
    parser.add_argument("--skip-invalid", action="store_true", help="drop invalid models instead of aborting")
    parser.add_argument("--strict", action="store_true", help="escalate degenerate-result warnings to exit code 2")
    if with_measure:
        parser.add_argument("--measure", choices=[m.value for m in Measure], help="similarity measure")
        parser.add_argument("--bound", type=int, default=None, help=f"max firing-sequence length for efg/full (default {DEFAULT_BOUND})")
        parser.add_argument("--lang-cap", type=int, default=None, help=f"max traces per side for full (default {DEFAULT_LANG_CAP})")
        parser.add_argument("--enum-cap", type=int, default=None, help="max firing-sequence prefixes per model: full "
                            f"stops enumerating there and flags the model; efg only sets the flag (default {DEFAULT_ENUM_CAP})")
        parser.add_argument("--ged-budget", type=int, default=None, help=f"search-node budget per ged pair (default {DEFAULT_GED_BUDGET})")
        parser.add_argument("--workers", type=int, default=1, help="processes for pairwise distances, this one "
                            "included; at most one per usable CPU, one where os.fork is missing (default 1)")


def build_parser() -> _Parser:
    parser = _Parser(prog="lpmgroup", description="Group local process models by similarity")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check the manifest and its models")
    _add_common(p_validate, with_measure=False)

    p_matrix = sub.add_parser("matrix", help="compute the pairwise distance matrix")
    _add_common(p_matrix)

    p_cluster = sub.add_parser("cluster", help="sweep thresholds, cluster, pick representatives")
    _add_common(p_cluster)
    p_cluster.add_argument("--matrix", default=None, help="reuse a previously exported matrix CSV")

    p_div = sub.add_parser("diversity", help="reduction curve and diversity report")
    _add_common(p_div)
    for p_sweep in (p_cluster, p_div):  # after cluster's --matrix, before diversity's n lists
        p_sweep.add_argument("--thresholds", default="0.1:1.0:0.1", help="lo:hi:step sweep (default 0.1:1.0:0.1)")
        p_sweep.add_argument("--repr", dest="repr_strategy", choices=["rank", "dist"], default="dist")
    p_div.add_argument("--ns", default=",".join(str(n) for n in DEFAULT_DIVERSITY_NS), help="top-n sizes for the diversity comparison")
    p_div.add_argument("--curve-ns", default=",".join(str(n) for n in DEFAULT_CURVE_NS), help="top-n sizes for the reduction curve")

    p_render = sub.add_parser("render", help="export models as DOT graphs")
    _add_common(p_render, with_measure=False)
    p_render.add_argument("--model", default=None, help="render a single model id")
    for p_out in (p_matrix, p_cluster, p_div, p_render):  # the last option of each
        p_out.add_argument("--out", required=True, help="output directory")
    return parser


def _resolve_measure(args, manifest) -> Measure:
    name = args.measure or manifest.measure
    if name is None:
        raise CliError("no measure given (pass --measure or set one in the manifest)")
    try:
        return Measure(name)
    except ValueError:
        raise CliError(f"unknown measure {name!r}") from None


def _resolve_params(args, manifest, measure: Measure) -> MatrixParams:
    from .matrix import MEASURES, MatrixParams

    given = {"bound": manifest.bound} if manifest.bound is not None else {}
    for name in ("bound", "lang_cap", "enum_cap", "ged_budget"):
        if getattr(args, name) is not None:
            given[name] = getattr(args, name)
            if name not in MEASURES[measure].reads:
                flag = "--" + name.replace("_", "-")
                print(f"notice: {flag} has no effect for measure {measure.value}; ignored", file=sys.stderr)
    try:
        return MatrixParams(**given, workers=args.workers)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _load(args):
    try:
        loaded = load_manifest(args.manifest, skip_invalid=args.skip_invalid)
    except ManifestError as exc:
        raise CliError(str(exc)) from None
    for model_id, violations in loaded.skipped:
        print(f"notice: skipped invalid model {model_id!r}: {'; '.join(violations)}", file=sys.stderr)
    return loaded


def _cmd_validate(args) -> int:
    try:
        loaded = load_manifest(args.manifest, skip_invalid=True)
    except ManifestError as exc:
        raise CliError(str(exc)) from None
    for model in loaded.ranked.models:
        print(f"ok {model.id}")
    for model_id, violations in loaded.skipped:
        print(f"invalid {model_id}: {'; '.join(violations)}")
    print(f"{len(loaded.ranked.models)} valid, {len(loaded.skipped)} invalid")
    return 0 if not loaded.skipped else 1


def _out_dir(args) -> Path:
    """The --out directory, created."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # FileExistsError when --out names a file
        raise CliError(f"cannot create output directory {out}: {exc}") from None
    return out


def _setup(args):
    """The models, the measure, the created --out directory and the checked
    matrix parameters of matrix, cluster and diversity, a cached matrix or not."""
    loaded = _load(args)
    measure = _resolve_measure(args, loaded.manifest)
    return loaded, measure, _out_dir(args), _resolve_params(args, loaded.manifest, measure)


def _compute_matrix(loaded, measure: Measure, params: MatrixParams) -> DistanceMatrix:
    """The distance matrix of the valid models, at the CSV precision."""
    from .matrix import distance_matrix

    if len(loaded.ranked) < 2:
        raise CliError("need at least two valid models")
    return distance_matrix(loaded.ranked.models, measure, params)


def _cmd_matrix(args) -> int:
    from .exports import export_matrix

    loaded, measure, out, params = _setup(args)
    matrix = _compute_matrix(loaded, measure, params)
    path = out / f"matrix_{measure.value}.csv"
    export_matrix(matrix, path)
    print(f"wrote {path} ({len(matrix)} models)")
    return 0


def _select_clusters(args, loaded, matrix, thresholds, out: Path):
    """Sweep, pick representatives of the selected clustering, write clusters.csv."""
    from .clustering import representatives, sweep
    from .exports import export_clusters

    result = sweep(matrix, thresholds)
    reps = representatives(result.selected.clusters, args.repr_strategy, loaded.ranked, matrix)
    export_clusters(result.selected.clusters, reps, loaded.ranked, out / "clusters.csv")
    return result, reps


def _cmd_cluster(args) -> int:
    from .exports import export_matrix, export_sweep, load_matrix

    thresholds = _parse_thresholds(args.thresholds)
    loaded, measure, out, params = _setup(args)
    if args.matrix:
        try:
            matrix = load_matrix(args.matrix, measure=measure.value)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load matrix: {exc}") from None
        order = tuple(m.id for m in loaded.ranked.models)
        if set(matrix.ids) != set(order):
            raise CliError("cached matrix ids do not match the manifest")
        if matrix.ids != order:  # cluster in the fresh run's row order, whatever the CSV's
            matrix = matrix.submatrix(order)
    else:
        matrix = _compute_matrix(loaded, measure, params)
        export_matrix(matrix, out / f"matrix_{measure.value}.csv")
    result, reps = _select_clusters(args, loaded, matrix, thresholds, out)
    export_sweep(result, reps, loaded.ranked, measure.value, args.repr_strategy, out / "sweep.json")
    selected = result.selected
    print(f"{len(selected.clusters)} clusters at threshold {selected.threshold}")
    if result.all_degenerate:
        print(
            "warning: every threshold produced a degenerate clustering; "
            f"kept the largest threshold {selected.threshold}",
            file=sys.stderr,
        )
        return 2 if args.strict else 0
    return 0


def _cmd_diversity(args) -> int:
    from .exports import export_reports

    thresholds, curve_ns, ns = _parse_thresholds(args.thresholds), _parse_ns(args.curve_ns), _parse_ns(args.ns)
    loaded, measure, out, params = _setup(args)
    matrix = _compute_matrix(loaded, measure, params)
    result, reps = _select_clusters(args, loaded, matrix, thresholds, out)
    curve = reduction_curve(loaded.ranked, measure, thresholds, curve_ns, matrix=matrix)
    repr_ranked = loaded.ranked.subset(reps)
    diversity = diversity_report(loaded.ranked, repr_ranked, measure, ns, matrix=matrix)
    export_reports(curve, diversity, out)
    print(
        f"{len(loaded.ranked)} models -> {len(reps)} representatives "
        f"(original ranks {map_ranks(reps, loaded.ranked)})"
    )
    if result.all_degenerate or any(p.degenerate for p in curve.points):
        print("warning: degenerate clustering outcomes were recorded", file=sys.stderr)
        return 2 if args.strict else 0
    return 0


def _cmd_render(args) -> int:
    from .exports import export_dot

    loaded = _load(args)
    out = _out_dir(args)
    models = loaded.ranked.models
    if args.model is not None:
        models = tuple(m for m in models if m.id == args.model)
        if not models:
            raise CliError(f"unknown model id {args.model!r}")
    for model in models:  # an id names a file in render alone: it must stay one name inside --out
        if model.id in (".", "..") or not {"/", os.sep, os.altsep, "\0"}.isdisjoint(model.id):
            raise CliError(f"model id {model.id!r} cannot name a DOT file")
    for model in models:
        try:
            export_dot(model, out / f"{model.id}.dot")
        except OSError as exc:
            raise CliError(f"cannot write the DOT file of model {model.id!r}: {exc}") from None
    print(f"wrote {len(models)} DOT files to {out}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "matrix": _cmd_matrix,
    "cluster": _cmd_cluster,
    "diversity": _cmd_diversity,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> NoReturn:
    """The command line: ``main`` on ``sys.argv``, then the process ends with its exit code.

    Every file a command writes is closed when ``main`` returns, so once
    stdout and stderr are flushed the process ends by ``os._exit``, as the
    forked pair workers do, without interpreter teardown. If a flush fails
    (stdout closed, or a pipe nobody reads), ``sys.exit`` ends it, with the
    interpreter's own report.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # no stream (fd closed at start), a dead pipe, a closed file
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
