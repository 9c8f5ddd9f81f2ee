"""Record semantics of the package's value classes: immutability, equality,
hashing, repr and construction checks, the same for every record type."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import lpmgroup
from lpmgroup import (
    ClusteringParams,
    DistanceMatrix,
    GedResult,
    LocalProcessModel,
    Manifest,
    ManifestEntry,
    Marking,
    MatrixParams,
    MergeStep,
    RankedModelSet,
    bounded_language,
    distance_matrix,
    diversity_report,
    ged_raw,
    optimal_assignment,
    reduction_curve,
    sweep,
    validate_lpm,
)
from lpmgroup.manifest import LoadedModels
from lpmgroup.matrix import MEASURES
from genmodels import chain_lpm


def _instances() -> dict:
    """One instance of every record class, by class name."""
    a, b = chain_lpm("m1", ["a", "b"]), chain_lpm("m2", ["a", "c"])
    ranked = RankedModelSet([a, b], {"m1": 1, "m2": 2})
    matrix = distance_matrix(ranked.models, "transition")
    result = sweep(matrix)
    curve = reduction_curve(ranked, "transition", ns=(2,), matrix=matrix)
    diversity = diversity_report(ranked, ranked.subset(["m1"]), "transition", ns=(2,), matrix=matrix)
    manifest = Manifest((ManifestEntry("m1", Path("m1.pnml"), 1),), bound=4)
    records = [
        a.net, a.initial, a, validate_lpm(a.net, a.initial, a.final), bounded_language(a, 4),
        manifest.entries[0], manifest, ranked, LoadedModels(manifest, ranked, ()),
        MatrixParams(), matrix, MEASURES["transition"],
        ClusteringParams(0.5), MergeStep(0, 1, 0.5), result.outcomes[0], result,
        optimal_assignment([[0.5]]), ged_raw(a, b, 100),
        curve.points[0], curve, diversity.entries[0], diversity,
    ]
    return {type(record).__name__: record for record in records}


RECORDS = _instances()


def test_every_record_class_is_covered():
    assert len(RECORDS) == 22
    assert all(getattr(lpmgroup, name, None) in (None, type(r)) for name, r in RECORDS.items())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    record = RECORDS[name]
    field = next(iter(type(record).__annotations__))
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_deep_copy_keeps_type_and_repr(name):
    record = RECORDS[name]
    clone = copy.deepcopy(record)
    assert type(clone) is type(record) and repr(clone) == repr(record)
    if name != "MeasureSpec":  # its kernels are lambdas, which pickle refuses
        assert repr(pickle.loads(pickle.dumps(record))) == repr(record)


@pytest.mark.parametrize("seed", [126, 127, 145])
def test_sweep_records_repr_the_same_under_any_hash_seed(seed):
    # seeds under which two-member clusters held as sets printed in one
    # order and came back from a deep copy in the other
    script = """
import copy, pickle
from test_records import RECORDS
for name in ("SweepResult", "MergeStep"):
    record = RECORDS[name]
    assert repr(copy.deepcopy(record)) == repr(record), name
    assert repr(pickle.loads(pickle.dumps(record))) == repr(record), name
print(repr(RECORDS["SweepResult"].selected.clusters))
"""
    paths = [str(Path(lpmgroup.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "PYTHONHASHSEED": str(seed)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == repr(RECORDS["SweepResult"].selected.clusters)


def test_markings_are_equal_and_hash_equal_by_counts():
    first, second = Marking(["a", "a", "b"]), Marking({"b": 1, "a": 2})
    assert first == second and hash(first) == hash(second)
    assert first != Marking(["a", "b"])
    assert len({first, second, Marking()}) == 2


def test_models_and_matrices_compare_by_identity():
    lpm = chain_lpm("m1", ["a", "b"])
    twin = LocalProcessModel(lpm.id, lpm.net, lpm.initial, lpm.final)
    assert lpm == lpm and lpm != twin and len({lpm, twin}) == 2
    matrix = DistanceMatrix(("a", "b"), [0.5], "t")
    same = DistanceMatrix(matrix.ids, [0.5], matrix.measure, [False])
    assert matrix == matrix and matrix != same and len({matrix, same}) == 2


def test_parameters_compare_and_hash_by_value():
    assert MatrixParams(bound=4) == MatrixParams(4) and hash(MatrixParams(bound=4)) == hash(MatrixParams(4))
    assert MatrixParams(bound=4) != MatrixParams(bound=5)
    assert ClusteringParams(0.5) == ClusteringParams(threshold=0.5) != ClusteringParams(0.4)
    assert hash(ClusteringParams(0.5)) == hash(ClusteringParams(0.5))


@pytest.mark.parametrize("build", [
    lambda: MatrixParams(bound=0),
    lambda: MatrixParams(ged_budget=0),
    lambda: ClusteringParams(threshold=1.5),
    lambda: ClusteringParams(threshold=float("nan")),
])
def test_constructor_checks_raise(build):
    with pytest.raises(ValueError):
        build()


def test_repr_lists_the_fields():
    assert repr(GedResult(1.0, True, 3)) == "GedResult(cost=1.0, exact=True, expansions=3)"
    assert repr(MatrixParams()) == (
        "MatrixParams(bound=10, lang_cap=1000, enum_cap=100000, ged_budget=1000000, workers=1)"
    )
    assert repr(ClusteringParams(0.5)) == "ClusteringParams(threshold=0.5)"
    assert repr(DistanceMatrix(("a", "b"), [1], "t")) == (
        "DistanceMatrix(ids=('a', 'b'), values=((0.0, 1.0), (1.0, 0.0)), measure='t', "
        "flags=b'\\x00')"
    )
    assert repr(Marking(["b", "a", "a"])) == "Marking({a:2, b:1})"
