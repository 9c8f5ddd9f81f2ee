"""CPU time and results of the GED searches of the struct-ged benchmark populations.

For each seed it builds the struct-ged population of ``bench/workloads.py``
(imported, never written), each model's ``ged.ged_tables`` and every pair's
``ged.search_key`` at the budget, and keeps each seed's distinct keys in the
order they are first met: the searches one ``distance_matrix`` call makes
(1263 for seeds 1-10 at budget 600). It times ``_GedSearch(*key).run()``
over all of them with ``time.process_time``, ``--runs`` times in a row.

Each source tree (``--src``) is measured in forked children, one per
repetition, each importing ``lpmgroup`` from its own tree alone; the trees
take turns and swap places every repetition. ``--record PATH`` writes every
result as ``[cost.hex(), exact, expansions]``; ``--check PATH`` compares
every tree's results with such a file. The probe exits 1 when a tree's
results differ from the file or from another tree's. Prints one JSON object.

Usage: python tests/ged_probe.py [--seeds 1-10] [--budget 600] [--repeat 1] [--runs 3]
       [--src LABEL=DIR ...] [--record PATH | --check PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def measure(src: Path, seeds: list[int], budget: int, runs: int) -> dict:
    """Build the keys and time their searches with the ``lpmgroup`` of ``src``; run in a forked child."""
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    from itertools import combinations

    from lpmgroup.ged import _GedSearch, ged_tables, search_key
    from workloads import population

    keys: list[tuple] = []
    for seed in seeds:
        tables = [ged_tables(model) for model in population("struct-ged", seed)]
        distinct = dict.fromkeys(search_key(a, b, budget) for a, b in combinations(tables, 2))
        keys += (key for key in distinct if key is not None)
    cpu_s = []
    for _ in range(runs):
        start = time.process_time()
        results = [_GedSearch(*key).run() for key in keys]
        cpu_s.append(time.process_time() - start)
    return {"cpu_s": cpu_s, "results": [[r.cost.hex(), r.exact, r.expansions] for r in results]}


def in_child(src: Path, seeds: list[int], budget: int, runs: int) -> dict:
    """``measure`` in a forked child, so that each tree's modules load in a process of their own."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with os.fdopen(write, "w") as out:
                json.dump(measure(src, seeds, budget, runs), out)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as handle:
        text = handle.read()
    if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
        raise SystemExit(f"measuring {src} failed")
    return json.loads(text)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="FIRST-LAST (default 1-10)")
    parser.add_argument("--budget", type=int, default=600)
    parser.add_argument("--repeat", type=int, default=1, help="child processes per tree")
    parser.add_argument("--runs", type=int, default=3, help="timed passes over the searches per child")
    parser.add_argument("--src", action="append", default=[], metavar="LABEL=DIR",
                        help="a source tree to run (repeatable; default: this checkout's src)")
    record = parser.add_mutually_exclusive_group()
    record.add_argument("--record", metavar="PATH", help="write every search result to PATH")
    record.add_argument("--check", metavar="PATH", help="compare every search result with PATH")
    args = parser.parse_args(argv)
    trees = dict(spec.split("=", 1) for spec in args.src) or {"here": str(ROOT / "src")}
    cpu_s: dict[str, list[list[float]]] = {label: [] for label in trees}
    results: dict[str, list] = {}
    for rep in range(args.repeat):
        for label in list(trees)[::-1] if rep % 2 else list(trees):
            got = in_child(Path(trees[label]), args.seeds, args.budget, args.runs)
            cpu_s[label].append([round(t, 4) for t in got["cpu_s"]])
            results.setdefault(label, got["results"])
    first = next(iter(results.values()))
    report = {
        "seeds": f"{args.seeds[0]}-{args.seeds[-1]}", "budget": args.budget, "python": sys.version.split()[0],
        "searches": len(first), "expansions": sum(r[2] for r in first),
        "exact": sum(r[1] for r in first), "same_results": all(r == first for r in results.values()),
        "cpu_s": cpu_s, "median_cpu_s": {label: round(statistics.median(t for ts in runs for t in ts), 4)
                                         for label, runs in cpu_s.items()},
    }
    if args.record:
        Path(args.record).write_text(json.dumps(first) + "\n", encoding="utf-8")
    if args.check:
        want = json.loads(Path(args.check).read_text(encoding="utf-8"))
        report["check"] = {label: got == want for label, got in results.items()}
    print(json.dumps(report, indent=1))
    return 0 if report["same_results"] and all(report.get("check", {}).values()) else 1


if __name__ == "__main__":
    sys.exit(main())
