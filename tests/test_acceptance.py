"""Acceptance criteria, one test per criterion, each printing a PASS line.

Synthetic fixtures stand in for discovered model sets: the checks are
property-based (axioms, oracle equality, clustering correctness) plus a
scaled-down protocol reproduction on planted populations.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lpmgroup import (
    ClusteringParams,
    Measure,
    MatrixParams,
    agglomerate,
    bounded_language,
    distance_matrix,
    diversity_report,
    levenshtein,
    optimal_assignment,
    representatives,
    silhouette,
    similarity,
    sweep,
    write_pnml,
)
from lpmgroup.ged import ged_raw
from lpmgroup.measures import normalized_levenshtein
from genmodels import matrix_of, planted_groups, random_lpm, random_matrix
from oracles import (
    label_traces,
    oracle_assignment,
    oracle_ged,
    oracle_levenshtein,
    oracle_sequences,
)

REPO = Path(__file__).resolve().parent.parent


def _passed(name: str, elapsed: float | None = None) -> None:
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"\nACCEPTANCE PASS: {name}{suffix}")


def test_c1_measure_axioms():
    """Symmetry (exact), range [0,1], and self-similarity 1 for every measure
    over 200 generated models with up to 8 transitions and 6 places."""
    start = time.monotonic()
    rng = random.Random(1001)
    models = [
        random_lpm(rng, f"m{k}", max_transitions=8, max_places=6, silent_prob=0.2)
        for k in range(200)
    ]
    bound = 5
    kwargs = dict(bound=bound, ged_budget=25_000)
    for measure in Measure:
        for model in models:
            if measure in (Measure.EFG, Measure.FULL):
                if bounded_language(model, bound).truncated:
                    continue  # self-similarity is only promised for full languages
            value = similarity(measure, model, model, **kwargs)
            assert value == pytest.approx(1.0, abs=0.0), (measure, model.id)
        for _ in range(200):
            a, b = rng.sample(models, 2)
            s_ab = similarity(measure, a, b, **kwargs)
            s_ba = similarity(measure, b, a, **kwargs)
            assert s_ab == s_ba, (measure, a.id, b.id)
            assert 0.0 <= s_ab <= 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"axioms took {elapsed:.1f}s, budget is 5 minutes"
    _passed("measure axioms (200 models, 5 measures)", elapsed)


def test_c2_oracle_equivalence():
    """Kernels equal their brute-force oracles: assignment vs permutations,
    Levenshtein vs the recursive definition, bounded languages vs the
    projected generate-and-test sequences, and exact GED vs exhaustive node mappings."""
    start = time.monotonic()
    rng = random.Random(2002)

    for _ in range(500):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        gains = [[rng.random() for _ in range(cols)] for _ in range(rows)]
        got = optimal_assignment(gains).total_gain
        assert got == pytest.approx(oracle_assignment(gains), abs=1e-12)

    alphabet = ["a", "b", "c", "d"]
    for _ in range(1000):
        t1 = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        t2 = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        assert levenshtein(t1, t2) == oracle_levenshtein(t1, t2)
        longest = max(len(t1), len(t2))
        expected = 0.0 if longest == 0 else oracle_levenshtein(t1, t2) / longest
        assert normalized_levenshtein(t1, t2) == expected

    for k in range(100):
        lpm = random_lpm(rng, f"seq{k}", max_transitions=8, max_places=6)
        got = bounded_language(lpm, 6)
        assert not got.truncated
        assert got.traces == label_traces(lpm, oracle_sequences(lpm, 6)), lpm.id

    for k in range(50):
        a = random_lpm(rng, f"ga{k}", max_transitions=3, max_places=3)
        b = random_lpm(rng, f"gb{k}", max_transitions=3, max_places=3)
        result = ged_raw(a, b)
        assert result.exact
        assert result.cost == pytest.approx(oracle_ged(a, b), abs=1e-9)

    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"oracle equivalence took {elapsed:.1f}s, budget is 10 minutes"
    _passed("oracle equivalence (assignment, levenshtein, languages, ged)", elapsed)


def test_c3_clustering_correctness():
    """Hand-traced agglomeration fixtures, monotone cluster counts over the
    threshold grid, and the silhouette fixture at 1e-12."""

    three = matrix_of(["m1", "m2", "m3"], {(0, 1): 0.1, (0, 2): 0.9, (1, 2): 0.9})
    clusters, _ = agglomerate(three, ClusteringParams(threshold=0.5))
    assert clusters == (("m1", "m2"), ("m3",))

    four = matrix_of(
        ["m1", "m2", "m3", "m4"],
        {(0, 1): 0.1, (2, 3): 0.2, (0, 2): 0.8, (0, 3): 0.8, (1, 2): 0.8, (1, 3): 0.8},
    )
    clusters, steps = agglomerate(four, ClusteringParams(threshold=0.5))
    assert clusters == (("m1", "m2"), ("m3", "m4"))
    assert [s.distance for s in steps] == [0.1, 0.2]
    clusters, steps = agglomerate(four, ClusteringParams(threshold=0.9))
    assert clusters == (("m1", "m2", "m3", "m4"),)
    assert [s.distance for s in steps] == [0.1, 0.2, 0.8]

    rng = random.Random(3003)
    for _ in range(20):
        matrix = random_matrix(rng, rng.randint(4, 15))
        counts = [
            len(agglomerate(matrix, ClusteringParams(threshold=round(0.1 * k, 1)))[0])
            for k in range(1, 11)
        ]
        assert counts == sorted(counts, reverse=True)

    two_pairs = matrix_of(
        ["m1", "m2", "m3", "m4"],
        {(0, 1): 0.1, (2, 3): 0.1, (0, 2): 0.9, (0, 3): 0.9, (1, 2): 0.9, (1, 3): 0.9},
    )
    score = silhouette(two_pairs, (("m1", "m2"), ("m3", "m4")))
    assert score == pytest.approx((0.9 - 0.1) / 0.9, abs=1e-12)

    _passed("clustering correctness (fixtures, monotone counts, silhouette)")


def _planted_fixture():
    ranked = planted_groups(groups=5, copies=20)
    matrix = distance_matrix(ranked.models, Measure.TRANSITION)
    return ranked, matrix


def test_c4_pipeline_protocol_reproduction():
    """Planted 5x20 population: complete linkage, thresholds 0.1..1.0,
    silhouette selection, and medoid representatives find exactly the five
    groups, shrinking 100 models to 5."""
    start = time.monotonic()
    ranked, matrix = _planted_fixture()
    assert len(ranked) == 100

    group_of = {m.id: m.id[1] for m in ranked.models}
    for i, a in enumerate(matrix.ids):
        for j in range(i + 1, len(matrix.ids)):
            b = matrix.ids[j]
            d = matrix.values[i][j]
            if group_of[a] == group_of[b]:
                assert d <= 0.2, (a, b, d)
            else:
                assert d >= 0.7, (a, b, d)

    result = sweep(matrix)
    assert result.best is not None
    selected = result.best
    reps = representatives(selected.clusters, "dist", ranked, matrix)
    assert len(selected.clusters) == 5
    assert len(reps) == 5
    assert len(set(group_of[r] for r in reps)) == 5  # one per planted group
    assert len(reps) * 2 <= len(ranked)  # at least halves the set: 100 -> 5
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"pipeline reproduction took {elapsed:.1f}s, budget is 1 minute"
    _passed("pipeline protocol reproduction (100 models -> 5 representatives)", elapsed)


def test_c5_diversity_improvement():
    """With ranks front-loading one group's duplicates, the representative
    top-5 is more diverse than the original top-5 by at least 0.3."""
    ranked, matrix = _planted_fixture()
    result = sweep(matrix)
    reps = representatives(result.best.clusters, "dist", ranked, matrix)
    repr_ranked = ranked.subset(reps)
    report = diversity_report(ranked, repr_ranked, Measure.TRANSITION, ns=[5], matrix=matrix)
    entry = report.entries[0]
    assert entry.original_mean is not None and entry.representative_mean is not None
    assert entry.representative_mean - entry.original_mean >= 0.3, entry
    _passed(
        "diversity improvement "
        f"(original {entry.original_mean:.3f} -> representatives {entry.representative_mean:.3f})"
    )


def _run_cli(args: list[str], hashseed: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-m", "lpmgroup.cli", *args],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_c6_cli_determinism(tmp_path):
    """Two end-to-end CLI runs on one manifest are byte-identical, across
    hash seeds and worker counts."""
    ranked = planted_groups(groups=3, copies=4)
    entries = []
    for k, lpm in enumerate(ranked.models):
        model_path = tmp_path / f"{lpm.id}.pnml"
        model_path.write_bytes(write_pnml(lpm.net, lpm.initial, lpm.final))
        entries.append({"id": lpm.id, "path": model_path.name, "rank": k + 1})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"models": entries}), encoding="utf-8")

    outs = [tmp_path / f"out{i}" for i in range(3)]
    base = ["cluster", "--manifest", str(manifest), "--measure", "efg", "--bound", "5"]
    _run_cli([*base, "--workers", "1", "--out", str(outs[0])], hashseed="0")
    _run_cli([*base, "--workers", "2", "--out", str(outs[1])], hashseed="1")
    _run_cli([*base, "--workers", "1", "--out", str(outs[2])], hashseed="42")

    first = _dir_bytes(outs[0])
    assert set(first) == {"clusters.csv", "matrix_efg.csv", "sweep.json"}
    for other in outs[1:]:
        assert _dir_bytes(other) == first

    div_outs = [tmp_path / f"div{i}" for i in range(2)]
    div = ["diversity", "--manifest", str(manifest), "--measure", "transition", "--ns", "3,6", "--curve-ns", "4,12"]
    _run_cli([*div, "--out", str(div_outs[0])], hashseed="7")
    _run_cli([*div, "--out", str(div_outs[1])], hashseed="8")
    assert _dir_bytes(div_outs[0]) == _dir_bytes(div_outs[1])
    _passed("CLI determinism (hash seeds and worker counts)")


def test_c7_scale_smoke():
    """600-model transition matrix under a minute; 100-model efg matrix with
    bound 5 under two minutes."""
    rng = random.Random(7007)
    big = [random_lpm(rng, f"m{k:03d}", max_transitions=8, max_places=6) for k in range(600)]
    start = time.monotonic()
    matrix = distance_matrix(big, Measure.TRANSITION)
    transition_elapsed = time.monotonic() - start
    assert len(matrix) == 600
    assert transition_elapsed < 60.0, f"transition matrix took {transition_elapsed:.1f}s"

    start = time.monotonic()
    efg = distance_matrix(big[:100], Measure.EFG, MatrixParams(bound=5))
    efg_elapsed = time.monotonic() - start
    assert len(efg) == 100
    assert efg_elapsed < 120.0, f"efg matrix took {efg_elapsed:.1f}s"
    _passed(
        f"scale smoke (600-model transition {transition_elapsed:.1f}s, "
        f"100-model efg {efg_elapsed:.1f}s)"
    )
