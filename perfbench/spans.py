"""Spans and counters around the program's public functions.

``Tracer.install`` swaps each listed function for a timing wrapper in every
``fairtopk`` module that holds it, so calls made through a by-name import
(``pipeline.traverse``, ``milp.simplex_lp``, ``sweep2d.verify_fair``, ...)
are timed too; ``restore`` puts the originals back.  A span's self time is
its duration minus the time its child spans cover.  Spans nest on one stack:
the program's only threads are the klevel workers, and with one worker the
calling thread waits while the worker runs, so the stack stays well formed.

Counts come from the program's own counters where a function takes one as
an argument (``TraversalLedger``, ``SearchStats``) or returns them
(``FairResult.extras`` of ``solve_milp``); simplex pivots are counted at
``geometry._pivot`` and sweep events at ``sweep2d.sweep_events``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

SPANS = (
    ("verify", "verify_fair"),
    ("verify", "max_fair_utility"),
    ("verify", "fair_topk_witness"),
    ("verify", "decompose_topk"),
    ("geometry", "seidel_lp"),
    ("geometry", "simplex_lp"),
    ("geometry", "region_extreme_points"),
    ("sweep2d", "sweep_select"),
    ("klevel", "traverse"),
    ("milp", "build_milp"),
    ("milp", "solve_milp"),
    ("stability", "stable_weight"),
    ("pipeline", "select"),
    ("pipeline", "reorder_protected"),
    ("pipeline", "load_csv"),
)

# (per-layer metric, unit); calls and self_s come from spans, the rest from
# counters; swap_yield is cells_visited / swap_tests
METRICS = (
    ("verify.verify_fair.calls", "count"),
    ("verify.verify_fair.self_s", "s"),
    ("verify.max_fair_utility.calls", "count"),
    ("verify.max_fair_utility.self_s", "s"),
    ("verify.fair_topk_witness.calls", "count"),
    ("verify.fair_topk_witness.self_s", "s"),
    ("verify.decompose_topk.calls", "count"),
    ("verify.decompose_topk.self_s", "s"),
    ("verify.backtrack.nodes", "count"),
    ("verify.backtrack.leaves", "count"),
    ("geometry.seidel_lp.calls", "count"),
    ("geometry.seidel_lp.self_s", "s"),
    ("geometry.seidel_lp.rows_mean", "count"),
    ("geometry.simplex_lp.calls", "count"),
    ("geometry.simplex_lp.self_s", "s"),
    ("geometry.simplex_lp.rows_mean", "count"),
    ("geometry.simplex_lp.vars_mean", "count"),
    ("geometry.simplex_lp.pivots", "count"),
    ("geometry.region_extreme_points.calls", "count"),
    ("geometry.region_extreme_points.self_s", "s"),
    ("sweep2d.sweep_select.self_s", "s"),
    ("sweep2d.events", "count"),
    ("sweep2d.swaps", "count"),
    ("klevel.traverse.self_s", "s"),
    ("klevel.cells_visited", "count"),
    ("klevel.swap_tests", "count"),
    ("klevel.pruned_by_region", "count"),
    ("klevel.fair_cells", "count"),
    ("klevel.swap_yield", "ratio"),
    ("milp.build_milp.self_s", "s"),
    ("milp.solve_milp.self_s", "s"),
    ("milp.nodes", "count"),
    ("milp.cuts", "count"),
    ("stability.stable_weight.calls", "count"),
    ("stability.stable_weight.self_s", "s"),
    ("pipeline.select.self_s", "s"),
    ("pipeline.reorder_protected.self_s", "s"),
    ("pipeline.load_csv.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.query_wall_s", "s"),
    ("trace.untraced_query_wall_s", "s"),
)


def metric_names(workload):
    """Per-layer metrics a traced run of workload reports: the milp ones
    only where the milp engine runs, since they read 0 everywhere else."""
    return tuple(name for name, _ in METRICS
                 if workload == "milp-3d" or not name.startswith("milp."))


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self._child = []         # time covered by each span's children
        self._stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._patched = []
        self.started = None

    # -- wrappers ------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, child, stack = self.spans, self._child, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), None])
            child.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[idx]
                span[3] = end
                duration = end - span[2]
                if stack:
                    child[stack[-1]] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - child[idx]
            if after is not None:
                after(args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _lp_sizes(self, name):
        def before(args, kwargs):
            problem = args[0] if args else kwargs["problem"]
            self.counters[name + ".rows"] += len(problem.rows)
            self.counters[name + ".vars"] += problem.nvars
            return args, kwargs, None
        return before

    def _inject(self, factory, pos, keyword, fields, prefix):
        """Pass the program's own counter object when the caller gave none."""
        def before(args, kwargs):
            given = args[pos] if len(args) > pos else kwargs.get(keyword)
            counter = given if given is not None else factory()
            if len(args) > pos:
                args = args[:pos] + (counter,) + args[pos + 1:]
            else:
                kwargs = dict(kwargs, **{keyword: counter})
            return args, kwargs, (counter, [getattr(counter, f) for f in fields])

        def after(args, kwargs, result, state):
            counter, start = state
            for f, s in zip(fields, start):
                self.counters[f"{prefix}.{f}"] += getattr(counter, f) - s
        return before, after

    def _plain(self, fn, before, after):
        def wrapper(*args, **kwargs):
            args, kwargs, state = before(args, kwargs)
            result = fn(*args, **kwargs)
            after(args, kwargs, result, state)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_pivots(self, fn):
        def wrapper(*args, **kwargs):
            self.counters["geometry.simplex_lp.pivots"] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_events(self, fn):
        def wrapper(*args, **kwargs):
            for event in fn(*args, **kwargs):
                self.counters["sweep2d.events"] += 1
                self.counters["sweep2d.swaps"] += len(event.swaps)
                yield event
        wrapper.__wrapped__ = fn
        return wrapper

    def _milp_extras(self, args, kwargs, result, state):
        if result is not None:
            self.counters["milp.nodes"] += result.extras.get("nodes", 0)
            self.counters["milp.cuts"] += result.extras.get("cuts", 0)

    # -- install / restore ---------------------------------------------

    def _replace(self, original, wrapper):
        """Point every fairtopk module's reference to original at wrapper."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fairtopk" and not mod_name.startswith("fairtopk."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def install(self):
        import fairtopk.geometry as geometry
        import fairtopk.klevel as klevel
        import fairtopk.sweep2d as sweep2d
        import fairtopk.verify as verify

        modules = {name: sys.modules[f"fairtopk.{name}"] for name, _ in SPANS}
        for mod, fn_name in SPANS:
            original = getattr(modules[mod], fn_name)
            name = f"{mod}.{fn_name}"
            before = after = None
            if fn_name in ("seidel_lp", "simplex_lp"):
                before = self._lp_sizes(name)
            elif fn_name == "traverse":
                before, after = self._inject(
                    klevel.TraversalLedger, 6, "ledger",
                    ("cells_visited", "swap_tests", "pruned_by_region", "fair_cells"),
                    "klevel",
                )
            elif fn_name == "solve_milp":
                after = self._milp_extras
            self._replace(original, self._span(name, original, before, after))
        for fn_name, pos in (("backtrack_tiebreak", 3), ("max_utility_tiebreak", 4)):
            before, after = self._inject(
                verify.SearchStats, pos, "stats", ("nodes", "leaves"), "verify.backtrack"
            )
            original = getattr(verify, fn_name)
            self._replace(original, self._plain(original, before, after))
        self._replace(geometry._pivot, self._count_pivots(geometry._pivot))
        self._replace(sweep2d.sweep_events, self._count_events(sweep2d.sweep_events))
        self.started = time.perf_counter()

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------

    def metrics(self, wall_s, query_wall_s, untraced_query_wall_s):
        c, calls, self_s = self.counters, self.calls, self.self_s
        out = {}
        for name, _ in METRICS:
            head, _, field = name.rpartition(".")
            if field == "calls":
                value = calls[head]
            elif field == "self_s":
                value = self_s[head]
            elif field in ("rows_mean", "vars_mean"):
                value = c[f"{head}.{field[:4]}"] / calls[head] if calls[head] else 0.0
            else:
                value = c[name]
            out[name] = value
        out["klevel.swap_yield"] = (
            c["klevel.cells_visited"] / c["klevel.swap_tests"] if c["klevel.swap_tests"] else 0.0
        )
        out["trace.wall_s"] = wall_s
        out["trace.untraced_s"] = wall_s - sum(self_s.values())
        out["trace.query_wall_s"] = query_wall_s
        out["trace.untraced_query_wall_s"] = untraced_query_wall_s
        return out

    def dump(self, path, metrics):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.started or 0.0
        payload = {
            "span_names": names,
            "spans": [
                [index[n], parent, round(start - t0, 9), round(end - t0, 9)]
                for n, parent, start, end in self.spans
            ],
            "counters": dict(self.counters),
            "metrics": metrics,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
