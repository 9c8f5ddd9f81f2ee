"""Benchmark runner: seeded workloads, the lpmgroup CLI as a closed loop.

Run from the repository root:

    python3 bench/run.py --workload lang-efg --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1

One process runs one CLI invocation at a time. An untimed ``validate``
warms the file cache and the bytecode cache first. A pipeline repetition is
``validate`` -> ``cluster`` -> ``cluster --matrix <that matrix>`` ->
``diversity``, each into a fresh output directory. Repetitions continue
while the next one still fits into ``--seconds``, with at least MIN_REPS.
Each repetition also times a reference program that uses nothing from this
repository; each end-to-end time is the median over the repetitions,
scaled by REFERENCE_S / (median reference time), so that it reads as wall
time at the speed the host had when the baseline was taken. Output checks
run after the timed invocations. With ``--trace 1`` one untraced repetition
is followed by an in-process traced run that times the public API per
module.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path.cwd()
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "pins.json"
MIN_REPS = 5
MAX_REPS = 60
RUN_LIMIT_S = 120.0  # no repetition starts that would end past this point
CALL_TIMEOUT_S = 120.0

# wall-time metrics and the CLI call each one times
E2E_CALLS = {"setup_s": "validate", "cluster_s": "cluster", "cluster_cached_s": "cached", "diversity_s": "diversity"}
END_TO_END_UNITS = {"setup_s": "s", "cluster_s": "s", "cluster_cached_s": "s", "diversity_s": "s", "peak_rss_mb": "MB"}

# The reference: interpreter start, the numpy and scipy imports the CLI also
# pays, then fixed pure-Python dict, set and sort work. The host's speed on a
# shared VM drifts by tens of percent over minutes; the reference drifts with
# it, and the CLI times are scaled by its median.
REFERENCE_CODE = """import numpy, scipy.optimize
d = {}
for i in range(150000):
    k = i % 997
    d[k] = d.get(k, 0) + i
s = sorted(set(range(0, 300000, 3)) & set(range(0, 300000, 7)))
"""
REFERENCE_S = 0.8  # the reference's median wall time on the baseline machine

OUTPUT_FILES = {
    "cluster": ("clusters.csv", "sweep.json", "matrix_{m}.csv", "matrix_{m}_approx.csv"),
    "cached": ("clusters.csv", "sweep.json"),
    "diversity": ("clusters.csv", "reduction_curve.csv", "diversity.csv", "report.json"),
}


def _require_source() -> None:
    """Import lpmgroup from ./src, or exit 2: the benchmark never measures an installed copy."""
    if not (SRC / "lpmgroup" / "__init__.py").is_file():
        print(f"error: no lpmgroup source under {SRC}; run from the repository root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import lpmgroup

    if Path(lpmgroup.__file__).resolve().parent != (SRC / "lpmgroup").resolve():
        print(f"error: imported lpmgroup from {lpmgroup.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


@dataclass
class Invocation:
    """One CLI process: exit code, wall and CPU time, peak RSS, check errors."""

    name: str
    code: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.errors)


def run_cli(name: str, args: list[str], log_dir: Path) -> Invocation:
    """Run ``python -m lpmgroup.cli <args>`` and reap it with wait4.

    The rusage of wait4 covers the process and every child it reaped,
    so pool workers count towards CPU time and peak RSS.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / f"{name}.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "lpmgroup.cli", *args], stdout=log, stderr=subprocess.STDOUT, env=env
        )
        timer = threading.Timer(CALL_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(name, proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def run_reference() -> float:
    """Wall time of one run of REFERENCE_CODE in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", REFERENCE_CODE], stdout=subprocess.DEVNULL, check=True, timeout=CALL_TIMEOUT_S
    )
    return time.perf_counter() - start


def cli_flags(workload) -> list[str]:
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in sorted(workload.params.items())]
    return ["--measure", workload.measure, *flags, f"--workers={workload.workers}"]


def pipeline(workload, manifest: Path, out: Path) -> dict[str, Invocation]:
    """One timed repetition: validate, cluster, cluster --matrix, diversity."""
    common = ["--manifest", str(manifest), *cli_flags(workload)]
    matrix = out / "cluster" / f"matrix_{workload.measure}.csv"
    calls = {
        "validate": ["validate", "--manifest", str(manifest)],
        "cluster": ["cluster", *common, "--out", str(out / "cluster")],
        "cached": ["cluster", *common, "--matrix", str(matrix), "--out", str(out / "cached")],
        "diversity": ["diversity", *common, "--out", str(out / "diversity")],
    }
    return {name: run_cli(name, args, out / "logs") for name, args in calls.items()}


def output_digests(workload, out: Path) -> dict[str, str]:
    """sha256 of every output file present, keyed ``<call>/<file>``."""
    digests = {}
    for call, names in OUTPUT_FILES.items():
        for name in names:
            path = out / call / name.format(m=workload.measure)
            if path.exists():
                digests[f"{call}/{path.name}"] = checks.file_digest(path)
    return digests


def check_first_rep(workload, seed: int, manifest: Path, out: Path, calls: dict[str, Invocation], pins: dict | None) -> None:
    """Full output checks on one repetition; errors go to the call that wrote the file."""
    import workloads
    from lpmgroup import load_manifest

    loaded = load_manifest(manifest)
    ranks = dict(loaded.ranked.ranks)
    ids = [m.id for m in loaded.ranked.models]
    matrix = out / "cluster" / f"matrix_{workload.measure}.csv"
    calls["cluster"].errors += checks.check_clusters(out / "cluster" / "clusters.csv", ranks)
    calls["cluster"].errors += checks.check_matrix(matrix, ids)
    if not calls["cluster"].errors:
        calls["cluster"].errors += checks.check_sampled_distances(
            matrix, loaded.ranked.models, workload.measure, workload.params, seed
        )
    for name in ("clusters.csv", "sweep.json"):
        calls["cached"].errors += checks.check_same_bytes(out / "cluster" / name, out / "cached" / name)
    calls["diversity"].errors += checks.check_same_bytes(out / "cluster" / "clusters.csv", out / "diversity" / "clusters.csv")
    if pins is not None:
        if workloads.inputs_digest(manifest.parent) != pins["inputs"]:
            calls["validate"].errors.append("input digest differs from the pinned one")
        got = output_digests(workload, out)
        for key in sorted(set(got) | set(pins["outputs"])):
            if got.get(key) != pins["outputs"].get(key):
                calls[key.split("/")[0]].errors.append(f"{key} differs from the pinned digest")


def check_repeat(first: dict[str, str], out: Path, workload, calls: dict[str, Invocation]) -> None:
    """A later repetition reproduces the first one byte for byte."""
    got = output_digests(workload, out)
    for key in sorted(set(got) | set(first)):
        if got.get(key) != first.get(key):
            calls[key.split("/")[0]].errors.append(f"{key} differs from the first repetition")


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]
    started = time.perf_counter()
    manifest = workloads.write_inputs(name, seed, work / "inputs")
    pins = load_pins().get(name) if seed == workloads.DEFAULT_SEED else None

    warmup = run_cli("warmup", ["validate", "--manifest", str(manifest)], work / "logs")
    reps: list[dict[str, Invocation]] = []
    reference_s: list[float] = []
    measured_s = 0.0
    while len(reps) < (1 if trace else MAX_REPS):
        out = work / f"rep{len(reps)}"
        rep_start = time.perf_counter()
        reference_s.append(run_reference())
        calls = pipeline(workload, manifest, out)
        rep_s = time.perf_counter() - rep_start
        measured_s += rep_s
        if reps:
            check_repeat(first_digests, out, workload, calls)
        else:
            check_first_rep(workload, seed, manifest, out, calls, pins)
            first_digests = output_digests(workload, out)
        reps.append(calls)
        if time.perf_counter() - started + rep_s > RUN_LIMIT_S:
            break
        if len(reps) >= MIN_REPS and measured_s + rep_s > seconds:
            break

    invocations = [warmup] + [inv for rep in reps for inv in rep.values()]
    for inv in invocations:
        for err in inv.errors:
            print(f"check failed [{name} seed {seed} {inv.name}]: {err}", file=sys.stderr)
        if inv.code != 0:
            print(f"call failed [{name} seed {seed} {inv.name}]: exit {inv.code}", file=sys.stderr)
    failed = sum(inv.failed for inv in invocations)
    n = len(json.loads(manifest.read_text(encoding="utf-8"))["models"])
    approx = checks.approx_pairs(work / "rep0" / "cluster" / f"matrix_{workload.measure}.csv")
    wall = {k: statistics.median(r[c].wall_s for r in reps) for k, c in E2E_CALLS.items()}
    scale = REFERENCE_S / statistics.median(reference_s)
    e2e = {k: v * scale for k, v in wall.items()}
    e2e["peak_rss_mb"] = max(inv.rss_kb for inv in invocations) / 1024.0

    print(f"== {name} seed {seed}: {len(reps)} repetition(s); scaled median, raw median, raw samples")
    print(f"  {'reference':<30} {REFERENCE_S:12.4f} {'s':<7} {statistics.median(reference_s):8.4f} "
          + " ".join(f"{r:.3f}" for r in reference_s))
    for key, value in e2e.items():
        raw = f"{wall[key]:8.4f} " + " ".join(f"{r[E2E_CALLS[key]].wall_s:.3f}" for r in reps) if key in wall else ""
        print(f"  {key:<30} {value:12.4f} {END_TO_END_UNITS[key]:<7} {raw}")
    print(f"  {'approx_pair_frac':<30} {approx / (n * (n - 1) / 2):12.4f} ratio")
    print(f"  {'fail_frac':<30} {failed / len(invocations):12.4f} ratio")
    if trace:
        import tracing

        spans_file = work.parent / "traces" / f"{name}-s{seed}.json"
        metrics = tracing.traced_run(workload, seed, manifest, work / "traced", spans_file, reps[0])
        print(f"  per-layer, from the traced run (spans in {spans_file}):")
        for key, (value, unit) in metrics.items():
            print(f"  {key:<30} {value:12.6g} {unit}")
        report = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        report = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    return {"correct": failed == 0, "attempted": len(invocations), "failed": failed, "metrics": report}


def pin(names: list[str], work_root: Path) -> None:
    """Record input and output digests and input properties of the default seed."""
    import workloads

    pins = load_pins()
    for name in names:
        work = work_root / f"pin-{name}"
        shutil.rmtree(work, ignore_errors=True)
        manifest = workloads.write_inputs(name, workloads.DEFAULT_SEED, work / "inputs")
        calls = pipeline(workloads.WORKLOADS[name], manifest, work / "rep0")
        bad = [c.name for c in calls.values() if c.code != 0]
        if bad:
            raise SystemExit(f"cannot pin {name}: {bad} failed")
        pins[name] = {
            "seed": workloads.DEFAULT_SEED,
            "inputs": workloads.inputs_digest(work / "inputs"),
            "input_properties": workloads.input_properties(name, workloads.DEFAULT_SEED),
            "outputs": output_digests(workloads.WORKLOADS[name], work / "rep0"),
        }
        shutil.rmtree(work, ignore_errors=True)
        print(f"pinned {name}: {pins[name]['input_properties']}")
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=55.0, help="measurement time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    parser.add_argument("--pin", action="store_true", help="rewrite bench/pins.json for the default seed")
    args = parser.parse_args(argv)

    _require_source()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    work_root = ROOT / ".bench_work"
    if args.pin:
        pin(names, work_root)
        return 0
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    results = []
    for name in names:
        work = work_root / f"{name}-s{seed}-p{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            results.append(run_workload(name, seed, args.seconds, bool(args.trace), work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
