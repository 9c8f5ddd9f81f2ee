"""Seeded model populations for the benchmark workloads.

Every population is a function of the workload name and the seed, and is
written through the public ``write_pnml``, so the same seed gives
byte-identical PNML files and manifest. The generator logic lives here on
purpose: test helpers can change without moving the benchmark's inputs.

Where a workload's cost is dominated by structure (explored prefixes for
``efg``, search effort for ``ged``), the shapes follow a fixed schedule or catalogue and the seed picks labels,
variants and ranks. The work per run then stays comparable across seeds
while the models, distances and clusters differ.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from lpmgroup import (
    DEFAULT_BOUND,
    SILENT,
    LabeledPetriNet,
    LocalProcessModel,
    Marking,
    bounded_language,
    validate_lpm,
    write_pnml,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    measure: str
    params: dict  # non-default parameters, as lpmgroup.distance keywords and as CLI flags
    workers: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lang-efg",
            why="near-duplicate families under efg at bound 10: bounded-language enumeration dominates and one model hits the prefix cap",
            measure="efg",
            params={},
            workers=1,
        ),
        Workload(
            name="struct-ged",
            why="18 small models under ged with budget 600 on 2 workers: branch-and-bound search and the process pool dominate",
            measure="ged",
            params={"ged_budget": 600},
            workers=2,
        ),
    )
}

DEFAULT_SEED = 1

ACTIVITIES = [chr(ord("A") + k) for k in range(8)]
ALPHABET = [f"a{k:02d}" for k in range(16)]


def _model(model_id, transitions, places, arcs, initial=(), final=()) -> LocalProcessModel:
    net = LabeledPetriNet(places=places, transitions=set(transitions), arcs=arcs, labels=transitions)
    return LocalProcessModel(id=model_id, net=net, initial=Marking(initial), final=Marking(final))


def _connected_groups(nodes, arcs) -> list[set[str]]:
    parent = {n: n for n in nodes}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in sorted(arcs):
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[str, set[str]] = {}
    for n in sorted(nodes):
        groups.setdefault(root(n), set()).add(n)
    return [groups[k] for k in sorted(groups)]


def random_structure(rng: random.Random, max_t: int, max_p: int):
    """A random valid LPM skeleton: every place gets an input and an output
    arc, then components are joined by extra arcs until the net is connected.
    Returns (transitions, places, arcs, initial, final)."""
    n_t = rng.randint(1, max_t)
    n_p = rng.randint(1, max_p)
    ts = [f"t{i}" for i in range(n_t)]
    ps = [f"p{i}" for i in range(n_p)]
    arcs = set()
    for p in ps:
        arcs.add((rng.choice(ts), p))
        arcs.add((p, rng.choice(ts)))
        if rng.random() < 0.3:
            arcs.add((rng.choice(ts), p))
        if rng.random() < 0.3:
            arcs.add((p, rng.choice(ts)))
    while True:
        groups = _connected_groups(set(ts) | set(ps), arcs)
        if len(groups) == 1:
            break
        with_place = next(g for g in groups if any(n.startswith("p") for n in g))
        other = next(g for g in groups if g is not with_place)
        p = rng.choice(sorted(n for n in with_place if n.startswith("p")))
        t = rng.choice(sorted(n for n in other if n.startswith("t")))
        arcs.add((t, p) if rng.random() < 0.5 else (p, t))
    initial = [rng.choice(ps) for _ in range(rng.randint(1, 2))] if rng.random() < 0.1 else []
    final = [rng.choice(ps) for _ in range(rng.randint(1, 2))] if rng.random() < 0.1 else []
    return ts, ps, arcs, initial, final


def random_labels(rng: random.Random, ts, labels=ACTIVITIES) -> dict[str, str]:
    """Activity labels drawn with repetition; about one transition in seven is silent."""
    return {t: (SILENT if rng.random() < 0.15 else rng.choice(labels)) for t in ts}


# Shapes for the language workloads. Each returns (transition ids in firing
# order, places, arcs); markings are empty, so runs start at the one
# unrestricted transition t0 and end once every place is drained again.


def _chain(k):
    ts = [f"t{i}" for i in range(k)]
    ps = [f"p{i}" for i in range(k - 1)]
    arcs = [(ts[i], ps[i]) for i in range(k - 1)] + [(ps[i], ts[i + 1]) for i in range(k - 1)]
    return ts, ps, arcs


def _xor(branches, tail):
    """t0 -> p0 -> one of the branch transitions -> p1 -> a chain of tail steps."""
    ts = ["t0"] + [f"t{i + 1}" for i in range(branches)]
    ps = ["p0", "p1"]
    arcs = [("t0", "p0")]
    for t in ts[1:]:
        arcs += [("p0", t), (t, "p1")]
    last = "p1"
    for k in range(tail):
        t = f"t{branches + 1 + k}"
        ts.append(t)
        arcs.append((last, t))
        if k < tail - 1:
            last = f"p{2 + k}"
            ps.append(last)
            arcs.append((t, last))
    return ts, ps, arcs


def _loop(length, loops):
    """A chain whose first `loops` inner places each carry a self-loop."""
    ts, ps, arcs = _chain(length)
    for k in range(loops):
        t = f"t{length + k}"
        ts.append(t)
        arcs += [(ps[k], t), (t, ps[k])]
    return ts, ps, arcs


def _parallel(branch_lengths, loops=0):
    """t0 forks into branches of the given lengths that t_end joins; the
    first `loops` branches carry a self-loop on their first place."""
    ts = ["t0"]
    ps = []
    arcs = []
    ends = []
    n = 1
    for b, length in enumerate(branch_lengths):
        prev = "t0"
        for k in range(length):
            p = f"p{len(ps)}"
            ps.append(p)
            arcs.append((prev, p))
            if k == 0 and b < loops:
                t_loop = f"t{n}"
                n += 1
                ts.append(t_loop)
                arcs += [(p, t_loop), (t_loop, p)]
            t = f"t{n}"
            n += 1
            ts.append(t)
            arcs.append((p, t))
            prev = t
        p = f"p{len(ps)}"
        ps.append(p)
        arcs.append((prev, p))
        ends.append(p)
    t_end = f"t{n}"
    ts.append(t_end)
    arcs += [(p, t_end) for p in ends]
    return ts, ps, arcs


def _star(loops):
    """t0 -> p0 -> exit, with `loops` self-loop transitions on p0."""
    ts = ["t0"] + [f"t{k + 1}" for k in range(loops + 1)]
    arcs = [("t0", "p0"), ("p0", ts[-1])]
    for t in ts[1:-1]:
        arcs += [("p0", t), (t, "p0")]
    return ts, ["p0"], arcs


def _families(rng, schedule, copies, alphabet, prefix="m"):
    """Near-duplicate families: a base with distinct labels, exact copies,
    and variants with one transition relabelled."""
    models = []
    for f, (ts, ps, arcs) in enumerate(schedule):
        base = dict(zip(ts, rng.sample(alphabet, len(ts))))
        for c in range(copies):
            labels = dict(base)
            if c % 2 == 1:  # odd copies relabel one transition
                t = rng.choice(ts)
                labels[t] = rng.choice([a for a in alphabet if a not in base.values()])
            models.append(_model(f"{prefix}{f:03d}_{c}", labels, ps, arcs))
    return models


def _lang_efg(rng):
    light = [_chain(5), _xor(3, 2), _loop(4, 1), _parallel([2, 2]), _loop(5, 2), _xor(4, 3), _parallel([1, 1], loops=1), _loop(4, 2)]
    schedule = [light[f % len(light)] for f in range(8)]
    models = _families(rng, schedule, 4, ALPHABET)
    # one model whose enumeration runs into the default prefix cap
    return models + _families(rng, [_star(4)], 1, ALPHABET, prefix="h")


def _struct_ged(rng):
    """Skeletons from a fixed catalogue, labels from the seed: search effort
    depends mostly on the skeleton pair, so the seed moves distances and
    clusters while the work per run stays comparable."""
    catalogue = random.Random("struct-ged:catalogue")
    models = []
    for k in range(18):
        ts, ps, arcs, initial, final = random_structure(catalogue, 5, 4)
        models.append(_model(f"m{k:03d}", random_labels(rng, ts), ps, arcs, initial, final))
    return models


_GENERATORS = {
    "lang-efg": _lang_efg,
    "struct-ged": _struct_ged,
}


def population(name: str, seed: int) -> list[LocalProcessModel]:
    """The seeded models of one workload, every one a valid LPM."""
    rng = random.Random(f"{name}:{seed}")
    models = _GENERATORS[name](rng)
    for m in models:
        report = validate_lpm(m.net, m.initial, m.final)
        if not report.ok:
            raise RuntimeError(f"generator produced an invalid model {m.id}: {report.violations}")
    return models


def write_inputs(name: str, seed: int, out_dir: Path) -> Path:
    """Write nets/<id>.pnml and manifest.json with seeded ranks; returns the manifest path."""
    models = population(name, seed)
    rng = random.Random(f"{name}:{seed}:ranks")
    ranks = list(range(1, len(models) + 1))
    rng.shuffle(ranks)
    nets = out_dir / "nets"
    nets.mkdir(parents=True, exist_ok=True)
    entries = []
    for model, rank in zip(models, ranks):
        (nets / f"{model.id}.pnml").write_bytes(write_pnml(model.net, model.initial, model.final))
        entries.append({"id": model.id, "path": f"nets/{model.id}.pnml", "rank": rank})
    manifest = out_dir / "manifest.json"
    payload = {"measure": WORKLOADS[name].measure, "models": entries}
    manifest.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def inputs_digest(out_dir: Path) -> str:
    """sha256 over the manifest and every PNML file, in sorted path order."""
    h = hashlib.sha256()
    files = [out_dir / "manifest.json", *sorted((out_dir / "nets").iterdir())]
    for path in files:
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def input_properties(name: str, seed: int) -> dict:
    """What the workload's behaviour depends on, for the default seed's record.

    Languages use the workload's bound and the default prefix cap; the
    duplicate share counts models whose content fingerprint (everything
    but the id) repeats an earlier model's.
    """
    models = population(name, seed)
    bound = WORKLOADS[name].params.get("bound", DEFAULT_BOUND)
    languages = [bounded_language(m, bound) for m in models]
    fingerprints = [m.fingerprint() for m in models]
    n = len(models)
    return {
        "models": n,
        "pairs": n * (n - 1) // 2,
        "bound": bound,
        "empty_language_frac": sum(not lang.traces for lang in languages) / n,
        "duplicate_fingerprint_frac": (n - len(set(fingerprints))) / n,
        "truncated_models": sum(lang.truncated for lang in languages),
        "largest_language": max(len(lang.traces) for lang in languages),
    }
