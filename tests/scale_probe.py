"""Wall time and peak memory of CLI commands on large seeded model sets.

Writes one manifest per size: ``genmodels.random_lpm`` models ``m0``, ``m1``,
... drawn from ``random.Random(seed)`` at the default sizes (at most 8
transitions and 6 places), ranked in that order. On each it runs, with
``--measure transition``:
- ``cluster``;
- ``cluster --matrix`` on the matrix CSV that ``cluster`` wrote;
- ``diversity``.

Each call is a fresh ``python -m lpmgroup.cli`` reaped with ``os.wait4``,
which gives its wall time and its peak resident memory (``ru_maxrss``).
Linux carries the high-water mark of the process that starts a command
across the exec into that figure. So the probe writes the manifests in a
forked child, imports no ``lpmgroup`` itself, and prints its own peak beside
the calls': a call's figure means something only where it is above that.

Several source trees can be compared on the same manifests (``--src``); the
calls alternate between them, and the trees swap places every repetition. A
digest of every file a call writes shows whether the trees agree byte for
byte. Prints one JSON object.

Usage: python tests/scale_probe.py [--sizes 600,2000] [--seed 7007] [--repeat 1]
       [--src LABEL=DIR ...] [--work DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMANDS = ("cluster", "cluster_cached", "diversity")


def write_manifest(root: Path, size: int, seed: int) -> Path:
    """The manifest of ``size`` seeded models under ``root``, written by a forked child."""
    manifest = root / "manifest.json"
    if manifest.exists():
        return manifest
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            import random

            sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
            from genmodels import random_lpm
            from lpmgroup import write_pnml

            rng = random.Random(seed)
            entries = []
            for k in range(size):
                model = random_lpm(rng, f"m{k}")
                (root / f"m{k}.pnml").write_bytes(write_pnml(model.net, model.initial, model.final))
                entries.append({"id": model.id, "path": f"m{k}.pnml", "rank": k + 1})
            manifest.write_text(json.dumps({"models": entries}), encoding="utf-8")
            code = 0
        finally:
            os._exit(code)
    if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
        raise SystemExit(f"writing the {size}-model manifest failed")
    return manifest


def digest(out: Path) -> str:
    """sha256 over the names and bytes of every file under ``out``, read in chunks to keep the probe small."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        with path.open("rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                h.update(chunk)
    return h.hexdigest()


def run(src: Path, argv: list[str]) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one CLI call run on the tree ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]  # stdout carries the probe's JSON alone
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "lpmgroup.cli", *argv], env, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status):
        raise SystemExit(f"lpmgroup {' '.join(argv)} exited with status {os.waitstatus_to_exitcode(status)}")
    return wall, usage.ru_maxrss / 1024


def probe(manifest: Path, src: Path, work: Path) -> dict[str, tuple[float, float, str]]:
    """Each command once on ``manifest``: wall seconds, peak MB and the digest of its outputs."""
    common = ["--manifest", str(manifest), "--measure", "transition"]
    outs = {name: work / name for name in COMMANDS}
    argvs = {
        "cluster": ["cluster", *common, "--out", str(outs["cluster"])],
        "cluster_cached": ["cluster", *common, "--matrix", str(outs["cluster"] / "matrix_transition.csv"),
                           "--out", str(outs["cluster_cached"])],
        "diversity": ["diversity", *common, "--out", str(outs["diversity"])],
    }
    return {name: (*run(src, argvs[name]), digest(outs[name])) for name in COMMANDS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="600,2000", help="model counts, comma-separated")
    parser.add_argument("--seed", type=int, default=7007)
    parser.add_argument("--repeat", type=int, default=1, help="calls of each command per tree and size")
    parser.add_argument("--src", action="append", default=[], metavar="LABEL=DIR",
                        help="a source tree to run (repeatable; default: this checkout's src)")
    parser.add_argument("--work", default=None, help="keep manifests and outputs here (default: a temporary dir)")
    args = parser.parse_args(argv)
    trees = dict(spec.split("=", 1) for spec in args.src) or {"here": str(HERE.parent / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work or tmp)
        result = {"seed": args.seed, "measure": "transition", "python": sys.version.split()[0], "sizes": {}}
        for size in map(int, args.sizes.split(",")):
            root = work / f"n{size}"
            root.mkdir(parents=True, exist_ok=True)
            manifest = write_manifest(root, size, args.seed)
            runs = {label: {name: {"wall_s": [], "peak_rss_mb": [], "digests": []} for name in COMMANDS}
                    for label in trees}
            for rep in range(args.repeat):
                labels = list(trees)[::-1] if rep % 2 else list(trees)
                for label in labels:
                    for name, (wall, peak, sha) in probe(manifest, Path(trees[label]), root / label).items():
                        runs[label][name]["wall_s"].append(round(wall, 3))
                        runs[label][name]["peak_rss_mb"].append(round(peak, 1))
                        runs[label][name]["digests"].append(sha)
            for by_command in runs.values():
                for record in by_command.values():
                    record["digests"] = sorted(set(record["digests"]))
            result["sizes"][str(size)] = runs
        result["probe_peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
