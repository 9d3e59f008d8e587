"""Self-test of the benchmark: tiny runs of every workload, and planted faults.

    python3 perfbench/selftest.py

Run from the repository root.  It checks that

* every workload runs at a tiny size, untraced and traced, with no failed
  operation and every metric present;
* the checker rejects planted wrong answers: a value off by 1e-3, a witness
  member swapped for an outsider, no answer where HiGHS finds one, and a
  flipped verify verdict, each counted as a failed operation;
* the benchmark refuses to run without the program's source next to it.

Exit code 0 when all of that holds.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import spans
import workloads

END_TO_END = ("setup_s", "queries_per_s", "query_p50_ms", "query_tail_ms", "peak_rss_mb")


def run_cli(args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def tiny_runs(problems):
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run_cli(["--workload", workload, "--seed", "0", "--seconds", "0.1",
                            "--trace", str(trace), "--tiny"])
            result = last_json(proc.stdout) if proc.returncode == 0 else None
            tag = f"{workload} trace={trace}"
            if result is None:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            want = END_TO_END if trace == 0 else spans.metric_names(workload)
            if set(result["metrics"]) != set(want):
                problems.append(f"{tag}: metrics {sorted(result['metrics'])}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: {result['correct']=} {result['failed']=}")
            print(f"ok   {tag}: {result['attempted']} operations checked")


def answered(workload):
    """Inputs, queries and one round of answers of a tiny workload."""
    pipeline, verify = run.import_program()
    out_dir = os.path.join(run.OUT, f"selftest-{workload}")
    manifest, tables = workloads.make(workload, 0, out_dir, tiny=True)
    data, configs = run.load_inputs(pipeline, manifest)
    calls = run.make_queries(pipeline, verify, manifest, data, configs)
    times = [[] for _ in calls]
    answers = [[] for _ in calls]
    run.run_round(calls, manifest["queries"], times, answers)
    return manifest, tables, answers


def planted_faults(problems):
    manifest, tables, answers = answered("klevel-3d")
    queries = manifest["queries"]
    hit = next(i for i, a in enumerate(answers) if a[0][1] is not None)
    good = answers[hit][0][1]
    table = tables[queries[hit]["data"]]
    outsider = next(c for c in range(len(table["pts"])) if c not in good["subset"])
    value_off = dict(good, value=good["value"] + 1e-3)
    swapped = dict(good, subset=sorted(good["subset"][1:] + [outsider]))
    plants = {
        "value off by 1e-3": value_off,
        "witness member swapped for an outsider": swapped,
        "no answer where HiGHS finds one": None,
    }
    vmanifest, vtables, vanswers = answered("verify-ties")
    vhit = 0
    verdict = vanswers[vhit][0][1]
    flipped = {"fair": not verdict["fair"], "witness": None}

    base_failed, _, _ = run.check_answers(manifest, tables, answers)
    if base_failed:
        problems.append(f"unplanted select answers fail the check ({base_failed})")
    for label, planted in plants.items():
        answers[hit] = [("ok", planted)]
        failed, wrong, notes = run.check_answers(manifest, tables, answers)
        report(problems, label, failed == 1 and wrong == 1, notes)
    vanswers[vhit] = [("ok", flipped)]
    failed, wrong, notes = run.check_answers(vmanifest, vtables, vanswers)
    report(problems, "flipped verify verdict", failed == 1 and wrong == 1, notes)


def report(problems, label, caught, notes):
    if caught:
        print(f"ok   planted {label}: {notes[0]}")
    else:
        problems.append(f"planted {label} was not reported as failed: {notes}")


def refuses_without_program(problems):
    """A directory with only BENCHMARK.json and perfbench/ must fail."""
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-ties", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"ran without the program: exit {proc.returncode}, {proc.stdout!r}")
    else:
        print(f"ok   refuses to run without the program: exit {proc.returncode}")


def main():
    problems = []
    tiny_runs(problems)
    planted_faults(problems)
    refuses_without_program(problems)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
