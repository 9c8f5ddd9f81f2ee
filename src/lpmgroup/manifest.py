"""Model-set manifests: which nets to load, under which ids and ranks.

A manifest is a JSON document::

    {
      "bound": 10,                 // optional default for efg/full
      "measure": "efg",            // optional default measure
      "models": [
        {"id": "m1", "path": "nets/m1.pnml", "rank": 1},
        ...
      ]
    }

Paths are resolved relative to the manifest file. Every model is checked
against the local-process-model rules on load; invalid models abort the
load unless ``skip_invalid`` is set, because silently dropping entries
would distort rank-based analytics.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .petri import Frozen, LocalProcessModel, validate_lpm
from .pnml import PnmlError, parse_pnml_file


class ManifestError(ValueError):
    """The manifest or one of its models cannot be loaded."""


class ManifestEntry(NamedTuple):
    id: str
    path: Path
    rank: int


class Manifest(NamedTuple):
    entries: tuple[ManifestEntry, ...]
    bound: int | None = None
    measure: str | None = None


class RankedModelSet(Frozen):
    """Models with a total, injective rank map (1 = best)."""

    __slots__ = ("models", "ranks")
    models: tuple[LocalProcessModel, ...]
    ranks: Mapping[str, int]

    def __init__(self, models: Iterable[LocalProcessModel], ranks: Mapping[str, int]):
        models = tuple(models)
        ranks = dict(ranks)
        ids = [m.id for m in models]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate model ids")
        if set(ranks) != set(ids):
            raise ValueError("ranks must cover exactly the model ids")
        values = list(ranks.values())
        if any(type(r) is not int or r < 1 for r in values):  # not isinstance: True is an int
            raise ValueError("ranks must be positive integers")
        if len(set(values)) != len(values):
            raise ValueError("ranks must be unique")
        self._set(models=models, ranks=ranks)

    def __len__(self) -> int:
        return len(self.models)

    def rank(self, model_id: str) -> int:
        return self.ranks[model_id]

    def ids_by_rank(self) -> tuple[str, ...]:
        return tuple(sorted(self.ranks, key=self.ranks.get))

    def subset(self, ids: Iterable[str]) -> "RankedModelSet":
        """Sub-set keeping the original ranks of the surviving members."""
        wanted = set(ids)
        unknown = wanted - set(self.ranks)
        if unknown:
            raise KeyError(f"unknown model ids: {sorted(unknown)}")
        return RankedModelSet(
            models=tuple(m for m in self.models if m.id in wanted),
            ranks={i: r for i, r in self.ranks.items() if i in wanted},
        )


class LoadedModels(NamedTuple):
    manifest: Manifest
    ranked: RankedModelSet
    skipped: tuple[tuple[str, tuple[str, ...]], ...]  # (id, violations)


def read_manifest(path: Path | str) -> Manifest:
    """Parse and structurally validate a manifest file."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest {path} does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("models"), list):
        raise ManifestError("manifest must be an object with a 'models' list")
    entries = []
    ids: set[str] = set()
    by_rank: dict[int, str] = {}  # rank -> id
    for k, item in enumerate(raw["models"]):
        if not isinstance(item, dict):
            raise ManifestError(f"models[{k}] is not an object")
        try:
            model_id = item["id"]
            rel = str(item["path"])
            rank = item["rank"]
        except KeyError as exc:
            raise ManifestError(f"models[{k}] is missing {exc}") from exc
        if not isinstance(model_id, str) or not model_id:
            raise ManifestError(f"models[{k}] id must be a non-empty string")
        if any("\ud800" <= c <= "\udfff" for c in model_id):  # JSON admits them; no file encoding does
            raise ManifestError(f"models[{k}] id {model_id!r} holds a lone surrogate")
        if type(rank) is not int or rank < 1:  # not isinstance: JSON true is a bool, an int subclass
            raise ManifestError(f"models[{k}] rank must be a positive integer")
        if model_id in ids:
            raise ManifestError(f"duplicate model id {model_id!r}")
        if rank in by_rank:
            raise ManifestError(f"duplicate rank {rank}: entries {by_rank[rank]!r} and {model_id!r}")
        ids.add(model_id)
        by_rank[rank] = model_id
        entries.append(ManifestEntry(id=model_id, path=(path.parent / rel).resolve(), rank=rank))
    missing = [str(e.path) for e in entries if not e.path.exists()]
    if missing:
        raise ManifestError(f"model files not found: {missing}")
    bound = raw.get("bound")
    if bound is not None and (type(bound) is not int or bound < 1):
        raise ManifestError("bound must be a positive integer")
    measure = raw.get("measure")
    if measure is not None:
        measure = str(measure)
    return Manifest(entries=tuple(entries), bound=bound, measure=measure)


def load_manifest(path: Path | str, skip_invalid: bool = False) -> LoadedModels:
    """Load, parse, and validate every model named by the manifest."""
    manifest = read_manifest(path)
    models = []
    ranks = {}
    skipped = []
    for entry in manifest.entries:
        try:
            net, initial, final = parse_pnml_file(entry.path)
        except PnmlError as exc:
            raise ManifestError(f"model {entry.id!r} ({entry.path}): {exc}") from exc
        report = validate_lpm(net, initial, final)
        if not report.ok:
            if skip_invalid:
                skipped.append((entry.id, report.violations))
                continue
            raise ManifestError(
                f"model {entry.id!r} is not a valid local process model: "
                + "; ".join(report.violations)
            )
        models.append(LocalProcessModel(id=entry.id, net=net, initial=initial, final=final))
        ranks[entry.id] = entry.rank
    return LoadedModels(manifest, RankedModelSet(models, ranks), tuple(skipped))
