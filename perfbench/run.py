"""Benchmark of fairtopk ``select`` and ``verify`` over four seeded workloads.

    python3 perfbench/run.py --workload klevel-3d --seed 1 --seconds 30 --trace 0

Run from the repository root.  One run is one process and a closed loop:
the seeded inputs are written as CSV and JSON, loaded through
``pipeline.load_csv``, and the queries are answered one at a time through
``pipeline.select`` (what ``fair-topk select`` does) or ``verify.verify_fair``
plus ``verify.fair_topk_witness`` (what ``fair-topk verify`` does).  A run
repeats whole rounds of the same queries for about ``--seconds``, times
each query by its slowest round, then checks every answer
against ``oracle.py``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).
"""

import os

# BLAS threads pinned before numpy loads, here and in the set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
SETUP_REPEATS = 5
T_START = time.perf_counter()
PERCENTILES = (50, 75, 90, 95, 99)


def import_program():
    """Import fairtopk from this checkout's src/, and only from there."""
    init = os.path.join(SRC, "fairtopk", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: program source not found at {init}")
    sys.path.insert(0, SRC)
    import fairtopk
    if os.path.abspath(fairtopk.__file__) != init:
        raise SystemExit(f"error: fairtopk imported from {fairtopk.__file__}, not {init}")
    from fairtopk import pipeline, verify
    return pipeline, verify


def load_inputs(pipeline, manifest):
    """Load every dataset with load_csv and parse every config; the set-up."""
    data = {
        d["name"]: pipeline.load_csv(d["csv"], protected=d["protected"])
        for d in manifest["datasets"]
    }
    configs = [pipeline.RunConfig.from_json(q["config"]) for q in manifest["queries"]]
    return data, configs


def measure_setup(manifest_path, repeats):
    """Median wall time from interpreter start to the last input loaded.

    Each probe is a fresh interpreter running setup_probe.py, which imports
    fairtopk, loads every input and then prints one line; the clock stops
    when that line arrives.
    """
    times = []
    probe = os.path.join(HERE, "setup_probe.py")
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, probe, manifest_path],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or line.strip() != "loaded":
            raise SystemExit(f"error: set-up probe failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times)


def make_queries(pipeline, verify, manifest, data, configs):
    """One zero-argument callable per query, answering it as the CLI would."""
    from fairtopk.core import FairnessSpec, WeightVector

    calls = []
    for query, config in zip(manifest["queries"], configs):
        dataset = data[query["data"]]
        if query["kind"] == "select":
            def call(dataset=dataset, config=config):
                return pipeline.select(dataset, config)
        else:
            spec = FairnessSpec.from_fractions(
                [(lo, hi) for _, lo, hi in config.protected], config.k
            )
            weight = WeightVector(query["weight"])

            def call(dataset=dataset, config=config, spec=spec, weight=weight):
                fair = verify.verify_fair(dataset, config.k, spec, weight)
                witness = None
                if fair:
                    witness = verify.fair_topk_witness(
                        dataset, config.k, spec, weight, config.objective
                    )
                return fair, witness
        calls.append(call)
    return calls


def answer_of(query, raw):
    """Plain-data view of one answer for the checker."""
    if query["kind"] == "verify":
        fair, witness = raw
        return {"fair": bool(fair), "witness": None if witness is None else list(witness)}
    if raw is None:
        return None
    return {
        "weight": list(raw.weight.weights),
        "value": float(raw.value),
        "subset": list(raw.subset),
        "stable_weight": None if raw.stable_weight is None else list(raw.stable_weight.weights),
        "margin": raw.margin,
    }


def run_round(calls, queries, times, answers):
    """Answer every query once; record its time and its answer or error."""
    clock = time.perf_counter
    for i, call in enumerate(calls):
        t0 = clock()
        try:
            raw = call()
            error = None
        except Exception as exc:  # a failed operation, counted and reported
            raw, error = None, f"{type(exc).__name__}: {exc}"
        times[i].append(clock() - t0)
        answers[i].append(("error", error) if error else ("ok", answer_of(queries[i], raw)))


def tail_percentile(n_queries):
    """Highest listed percentile with at least ten queries beyond it
    (the median for the self-test's tiny workloads)."""
    best = 50
    for p in PERCENTILES:
        if n_queries * (100 - p) / 100.0 >= 10:
            best = p
    return best


def check_answers(manifest, tables, answers):
    """Oracle-check every recorded answer; returns (failed, wrong, notes)."""
    import oracle

    failed = wrong = 0
    notes = []
    for query, recorded in zip(manifest["queries"], answers):
        table = tables[query["data"]]
        expected = oracle.expected_answer(query, table)
        verdicts = {}  # rounds mostly repeat one answer; check each once
        for status, payload in recorded:
            if status == "error":
                failed += 1
                notes.append(f"{query['data']}: {payload}")
                continue
            key = json.dumps(payload, sort_keys=True)
            if key not in verdicts:
                verdicts[key] = oracle.check(query, table, payload, expected)
            problems = verdicts[key]
            if problems:
                failed += 1
                wrong += 1
                notes.append(f"{query['data']} k={query['config']['k']}: {problems[0]}")
    return failed, wrong, notes


def summary(queries, answers):
    """Answered / moved counts of select queries, fair count of verify ones."""
    first = [a[0] for a in answers]
    ok = [(q, p) for q, (status, p) in zip(queries, first) if status == "ok"]
    if queries[0]["kind"] == "verify":
        fair = sum(1 for _, p in ok if p["fair"])
        return f"{fair}/{len(first)} verify queries fair"
    answered = [(q, p) for q, p in ok if p is not None]
    moved = sum(
        1 for q, p in answered
        if max(abs(a - b) for a, b in zip(p["weight"], q["config"]["wo"])) > 1e-9
    )
    return (f"{len(answered)}/{len(first)} select queries answered, "
            f"{moved} moved off the reference weight")


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-test")
    args = parser.parse_args(argv)

    pipeline, verify = import_program()
    out_dir = os.path.join(
        OUT, f"{args.workload}-{args.seed}" + ("-tiny" if args.tiny else "")
    )
    manifest, tables = workloads.make(args.workload, args.seed, out_dir, tiny=args.tiny)
    queries = manifest["queries"]
    manifest_path = os.path.join(out_dir, "queries.json")

    times = [[] for _ in queries]
    answers = [[] for _ in queries]
    metrics = {}
    if args.trace:
        data, configs = load_inputs(pipeline, manifest)
        calls = make_queries(pipeline, verify, manifest, data, configs)
        t0 = time.perf_counter()
        run_round(calls, queries, times, answers)
        untraced_wall = time.perf_counter() - t0
        tracer = spans.Tracer()
        tracer.install()
        try:
            data, configs = load_inputs(pipeline, manifest)
            calls = make_queries(pipeline, verify, manifest, data, configs)
            t1 = time.perf_counter()
            run_round(calls, queries, times, answers)
            end = time.perf_counter()
        finally:
            tracer.restore()
        metrics = tracer.metrics(end - tracer.started, end - t1, untraced_wall)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"), metrics)
        units = dict(spans.METRICS)
        metrics = {name: metric(metrics[name], units[name])
                   for name in spans.metric_names(args.workload)}
    else:
        setup_s = measure_setup(manifest_path, SETUP_REPEATS)
        data, configs = load_inputs(pipeline, manifest)
        calls = make_queries(pipeline, verify, manifest, data, configs)
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            run_round(calls, queries, times, answers)
            now = time.perf_counter()
            # another round while it would end less than half a round past
            # the run's time, so a run lasts --seconds give or take half a round
            if now - start + 0.5 * (now - t0) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # each query's slowest round.  The machine is shared, and its
        # neighbours slow it to a steady ceiling most of the time; how often
        # they pause varies from run to run, so the fastest or the median
        # round varies with it, while the slowest round sits at the ceiling
        per_query = np.array([max(t) for t in times]) * 1000.0
        tail = tail_percentile(len(queries))
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "queries_per_s": metric(1000.0 * len(queries) / per_query.sum(), "1/s"),
            "query_p50_ms": metric(float(np.percentile(per_query, 50)), "ms"),
            "query_tail_ms": metric(float(np.percentile(per_query, tail)), "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    t_check = time.perf_counter()
    failed, wrong, notes = check_answers(manifest, tables, answers)
    print(f"stages: run {t_check - T_START:.1f} s, check {time.perf_counter() - t_check:.1f} s, "
          f"{len(queries)} queries x {len(answers[0])} rounds; {summary(queries, answers)}",
          file=sys.stderr)
    with open(os.path.join(out_dir, "times.json"), "w", encoding="utf-8") as fh:
        json.dump([{"data": q["data"], "k": q["config"]["k"],
                    "objective": q["config"]["objective"], "ms": [1000 * t for t in ts]}
                   for q, ts in zip(queries, times)], fh)
    for note in notes[:20]:
        print(f"check: {note}", file=sys.stderr)
    attempted = sum(len(a) for a in answers)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
