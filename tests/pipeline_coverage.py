"""Source lines of ``lpmgroup`` that no CLI command runs.

Runs ``lpmgroup.cli.main`` in-process under the stdlib ``trace`` counter:
``validate``, ``render``, ``matrix``, ``cluster``, ``cluster --matrix`` and
``diversity``, under all five measures (``full`` at ``--bound 5``, ``ged``
at ``--ged-budget 200``), with ``--workers 1`` and ``--workers 2``, plus one
``cluster --repr rank`` run that also draws the ignored-flag notice. The input
is a seeded ``genmodels`` population plus planted duplicates and
``self_loop_star(4)``. Per module it prints the lines that never ran,
leaving out ``raise`` statements, one row per unbroken run of them: its
line range and its first line. ``trace`` cannot count lines in forked
children, so lines of functions that only run there are labelled.

Usage: PYTHONPATH=src:tests python tests/pipeline_coverage.py
"""

from __future__ import annotations

import ast
import contextlib
import dis
import io
import json
import random
import sys
import tempfile
import trace
import types
from pathlib import Path

from genmodels import random_lpm, self_loop_star

MEASURE_FLAGS = {
    "transition": [],
    "node": [],
    "efg": [],
    "full": ["--bound", "5"],
    "ged": ["--ged-budget", "200"],
}
CHILD_ONLY = {"matrix.py": ("_child",)}  # functions that run, and are called, only in a forked child


def write_population(root: Path, seed: int = 1, size: int = 14, copies: int = 4) -> Path:
    """A manifest of ``size`` seeded models, ``copies`` planted duplicates and a self-loop star."""
    from lpmgroup import LocalProcessModel, write_pnml

    rng = random.Random(seed)
    models = [random_lpm(rng, f"m{k:02d}", max_transitions=6, max_places=4) for k in range(size)]
    models += [LocalProcessModel(f"dup{k}", m.net, m.initial, m.final) for k, m in enumerate(models[:copies])]
    models.append(self_loop_star(4))
    entries = []
    for rank, model in enumerate(models, start=1):
        (root / f"{model.id}.pnml").write_bytes(write_pnml(model.net, model.initial, model.final))
        entries.append({"id": model.id, "path": f"{model.id}.pnml", "rank": rank})
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps({"models": entries}), encoding="utf-8")
    return manifest


def run_commands(manifest: Path, out: Path) -> None:
    """Every command once per measure and worker count; any nonzero exit stops the run."""
    from lpmgroup.cli import main

    def run(*argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--manifest", str(manifest)])
        if code:
            sys.exit(f"{' '.join(argv)} exited with {code}")

    run("validate")
    run("render", "--out", str(out / "render"))
    run("cluster", "--measure", "transition", "--bound", "5", "--repr", "rank", "--out", str(out / "rank"))
    for measure, flags in MEASURE_FLAGS.items():
        for workers in ("1", "2"):
            common = ["--measure", measure, *flags, "--workers", workers]
            tag = f"{measure}-{workers}"
            run("matrix", *common, "--out", str(out / f"{tag}-matrix"))
            run("cluster", *common, "--out", str(out / f"{tag}-cluster"))
            cached = out / f"{tag}-matrix" / f"matrix_{measure}.csv"
            run("cluster", *common, "--matrix", str(cached), "--out", str(out / f"{tag}-cached"))
            run("diversity", *common, "--out", str(out / f"{tag}-diversity"))


def executable_lines(code: types.CodeType) -> set[int]:
    lines = set()
    stack = [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(co) if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def spans(tree: ast.AST, keep) -> set[int]:
    """Every line covered by a node for which ``keep`` holds."""
    return {
        line
        for node in ast.walk(tree)
        if keep(node)
        for line in range(node.lineno, node.end_lineno + 1)
    }


def runs(executable: list[int], done: set[int]) -> list[list[int]]:
    """The lines not in ``done``, split where an executed line lies between two of them."""
    out: list[list[int]] = []
    previous_ran = True
    for line in executable:
        if line in done:
            previous_ran = True
        elif previous_ran:
            out.append([line])
            previous_ran = False
        else:
            out[-1].append(line)
    return out


def report(counts: dict[tuple[str, int], int], package: Path) -> None:
    ran: dict[str, set[int]] = {}
    for filename, line in counts:
        ran.setdefault(str(Path(filename).resolve()), set()).add(line)
    total = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        raises = spans(tree, lambda node: isinstance(node, ast.Raise))
        child_only = CHILD_ONLY.get(path.name, ())
        child = spans(
            tree,
            lambda node: (isinstance(node, ast.FunctionDef) and node.name in child_only)
            or (isinstance(node, ast.Call) and getattr(node.func, "id", None) in child_only),
        )
        executable = sorted(executable_lines(compile(source, str(path), "exec")) - raises)
        done = ran.get(str(path), set())
        missed = [line for line in executable if line not in done]
        total += len(missed)
        print(f"{path.name}: {len(missed)} of {len(executable)} lines never ran")
        text = source.splitlines()
        for run in runs(executable, done):
            label = "  [forked child only: not counted]" if run[0] in child else ""
            where = f"{run[0]}-{run[-1]}" if len(run) > 1 else str(run[0])
            print(f"  {where:>9}  {text[run[0] - 1].strip()}{label}")
    print(f"total: {total} lines never ran, raise statements excluded")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        manifest = write_population(root)
        # the traced run imports lpmgroup afresh, so module-level lines are counted too
        for name in [m for m in sys.modules if m == "lpmgroup" or m.startswith("lpmgroup.")]:
            del sys.modules[name]
        tracer = trace.Trace(count=1, trace=0)
        tracer.runfunc(run_commands, manifest, root / "out")
    import lpmgroup

    report(tracer.results().counts, Path(lpmgroup.__file__).resolve().parent)


if __name__ == "__main__":
    main()
