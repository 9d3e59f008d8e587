"""Every program name the benchmark tracer patches still exists.

perfbench/spans.py finds its targets by name at install time, so a source
change that renames or deletes one of them breaks only the traced benchmark
run.  This file loads the tracer module by path, without running the
benchmark, checks its targets against the program, and runs one tiny traced
sweep so that a change to what ``sweep_events`` yields shows here too.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from fairtopk import sweep2d
from fairtopk.core import WeightRegion, WeightVector
from fairtopk.klevel import TraversalLedger
from fairtopk.verify import SearchStats

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def program(module, name):
    return getattr(importlib.import_module(f"fairtopk.{module}"), name, None)


def test_every_spanned_function_exists(spans):
    missing = [f"{mod}.{fn}" for mod, fn in spans.SPANS if not callable(program(mod, fn))]
    assert not missing, f"spans.py patches names the program lacks: {missing}"


def test_every_spanned_function_is_its_own_object(spans):
    # the tracer swaps every attribute that is the spanned object, so two
    # names for one function would file all its time under the last span
    owners = {}
    for mod, fn in spans.SPANS:
        owners.setdefault(id(program(mod, fn)), []).append(f"{mod}.{fn}")
    shared = [names for names in owners.values() if len(names) > 1]
    assert not shared, f"spans.py patches one function under several names: {shared}"


@pytest.mark.parametrize("module, name", [
    ("verify", "backtrack_tiebreak"),
    ("verify", "max_utility_tiebreak"),
    ("geometry", "_pivot"),
    ("sweep2d", "sweep_events"),
])
def test_every_counted_function_exists(module, name):
    assert callable(program(module, name)), f"{module}.{name} is gone"


@pytest.mark.parametrize("module, name, pos, keyword", [
    ("klevel", "traverse", 6, "ledger"),
    ("verify", "backtrack_tiebreak", 3, "stats"),
    ("verify", "max_utility_tiebreak", 4, "stats"),
])
def test_counter_arguments_sit_where_spans_injects_them(module, name, pos, keyword):
    params = list(inspect.signature(program(module, name)).parameters)
    assert params[pos] == keyword


def test_counter_fields_exist(spans):
    names = [name for name, _ in spans.METRICS]
    ledger = {name.split(".")[1] for name in names
              if name.startswith("klevel.") and name.count(".") == 1}
    ledger -= {"swap_yield"}  # derived in Tracer.metrics, not a counter
    backtrack = {name.rpartition(".")[2] for name in names
                 if name.startswith("verify.backtrack.")}
    assert ledger <= {f.name for f in dataclasses.fields(TraversalLedger)}
    assert backtrack <= {f.name for f in dataclasses.fields(SearchStats)}
    assert ledger and backtrack


def test_traced_sweep_counts_its_events(spans, five_dataset, five_spec):
    # the worked example's answer sits on an exchange at x = 5/9, so the
    # sweep consumes at least one event before it stops
    region = WeightRegion.box(WeightVector((0.5, 0.5)), epsilon=0.5)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sweep2d.sweep_select(five_dataset, 2, five_spec, region) is not None
    finally:
        tracer.restore()
    assert tracer.counters["sweep2d.events"] > 0
    assert tracer.counters["sweep2d.swaps"] >= tracer.counters["sweep2d.events"]
