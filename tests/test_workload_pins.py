"""The benchmark's pinned input properties, recomputed by the library.

``bench/pins.json`` records, per workload, what its behaviour depends on:
model and pair counts, empty and truncated languages, the largest language.
``bench/workloads.input_properties`` derives them through
``bounded_language``, including the partial language of a model that the
prefix cap cuts short, so a change to the language enumeration that moves
them fails here and not only when the pins are rewritten.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

PINS = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_input_properties_match_the_pins(name):
    assert workloads.input_properties(name, workloads.DEFAULT_SEED) == PINS[name]["input_properties"]
