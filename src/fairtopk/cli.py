"""Command line front end.

Exit codes: 0 = question answered, 2 = no fair weight vector exists in
the region, 3 = a search budget ran out (select writes the best result
found so far, marked partial), 4 = an LP stalled, 1 = any other error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .core import BudgetExceededError, FairResult, FairTopkError, LpStallError, WeightVector
from .generators import random_ov, random_setcover, random_tov
from .pipeline import (
    RunConfig,
    bench,
    brute_select_2d,
    kskyband,
    load_csv,
    normalize,
    result_json,
    select,
    write_bench_csv,
    write_csv,
)
from .verify import fair_topk_witness, naive_verify_oracle


def _read_config(path):
    with open(path, encoding="utf-8") as fh:
        return RunConfig.from_json(json.load(fh))


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _weight_arg(raw, config, d):
    if raw:
        return WeightVector([float(v) for v in raw.split(",")])
    return config.region(d).reference


def cmd_verify(args):
    config = _read_config(args.config)
    data = load_csv(args.data, protected=config.names)
    w = _weight_arg(args.weight, config, data.d)
    witness = fair_topk_witness(data, config.k, config.spec, w)
    _emit(
        {
            "fair": witness is not None,
            "weight": list(w.weights),
            "k": config.k,
            "topk_ids": sorted(witness) if witness else [],
            "group_counts": config.group_counts(data, witness) if witness else {},
        },
        args.out,
    )
    return 0


def cmd_select(args):
    config = _read_config(args.config)
    data = load_csv(args.data, protected=config.names)
    t0 = time.perf_counter()
    try:
        result = select(data, config)
    except BudgetExceededError as exc:
        if isinstance(exc.partial, FairResult):
            elapsed = (time.perf_counter() - t0) * 1000.0
            _emit(dict(result_json(data, config, exc.partial, elapsed), partial=True), args.out)
        raise
    elapsed = (time.perf_counter() - t0) * 1000.0
    _emit(result_json(data, config, result, elapsed), args.out)
    return 0 if result is not None else 2


def cmd_preprocess(args):
    data = load_csv(args.data)
    n_in = len(data)
    if args.normalize:
        data = normalize(data)
    if args.kskyband:
        data = kskyband(data, args.kskyband)
    write_csv(args.out_data, data)
    _emit(
        {
            "n_in": n_in,
            "n_out": len(data),
            "normalized": bool(args.normalize),
            "kskyband": args.kskyband or 0,
        },
        None,
    )
    return 0


def cmd_gen(args):
    rng = np.random.default_rng(args.seed)
    if args.kind == "setcover":
        inst = random_setcover(rng, universe_size=args.universe, n_sets=args.sets)
    elif args.kind == "ov":
        inst = random_ov(rng, n_left=args.left, n_right=args.right, dim=args.dim)
    else:
        inst = random_tov(rng, t=args.t, per_set=args.per_set, dim=args.dim)
    write_csv(args.out_data, inst.dataset)
    if args.out_config:
        protected = [
            {
                "name": inst.dataset.group_names[j],
                "lower": inst.spec.lower[j] / inst.k,
                "upper": inst.spec.upper[j] / inst.k,
            }
            for j in range(inst.spec.n_protected)
        ]
        payload = {
            "k": inst.k,
            "epsilon": 0.1,
            "objective": "wdiff",
            "engine": "auto",
            "protected": protected,
            "seed": args.seed,
        }
        with open(args.out_config, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _emit(
        {
            "kind": args.kind,
            "n": len(inst.dataset),
            "k": inst.k,
            "expected": inst.expected,
        },
        None,
    )
    return 0


def _parse_cases(raw):
    cases = []
    for chunk in raw.split(","):
        parts = chunk.strip().split(":")
        if len(parts) not in (3, 4):
            raise ValueError(f"case {chunk!r} must be n:d:k or n:d:k:eps")
        case = {"n": int(parts[0]), "d": int(parts[1]), "k": int(parts[2])}
        if len(parts) == 4:
            case["epsilon"] = float(parts[3])
        cases.append(case)
    return cases


def cmd_bench(args):
    cases = _parse_cases(args.cases)
    engines = tuple(args.engines.split(","))
    objectives = tuple(args.objectives.split(","))
    for case in cases:
        case["engines"] = engines
        case["objectives"] = objectives
    rows = bench(cases, seed=args.seed, reps=args.reps)
    write_bench_csv(args.out, rows)
    _emit({"rows": len(rows), "out": args.out}, None)
    return 0


def cmd_oracle(args):
    config = _read_config(args.config)
    data = load_csv(args.data, protected=config.names)
    w = _weight_arg(args.weight, config, data.d)
    payload = {"fair": bool(naive_verify_oracle(data, config.k, config.spec, w))}
    if data.d == 2:
        result = brute_select_2d(data, config.k, config.spec, config.region(2))
        payload["brute"] = result_json(data, config, result, 0.0)
    _emit(payload, args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fair-topk",
        description="Fair top-k verification and weight synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check one weight vector for fairness")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--weight", help="comma separated components, default wo")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("select", help="synthesize the closest fair weight vector")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("preprocess", help="normalize and prune a candidate table")
    p.add_argument("--data", required=True)
    p.add_argument("--out-data", required=True)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--kskyband", type=int, default=0, metavar="K")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("gen", help="generate a reduction instance")
    p.add_argument("--kind", choices=("setcover", "ov", "tov"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-config")
    p.add_argument("--universe", type=int, default=5)
    p.add_argument("--sets", type=int, default=8)
    p.add_argument("--left", type=int, default=6)
    p.add_argument("--right", type=int, default=6)
    p.add_argument("--dim", type=int, default=5)
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--per-set", type=int, default=4, dest="per_set")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time engines over generated instances")
    p.add_argument("--out", required=True)
    p.add_argument("--cases", required=True, help="n:d:k[:eps],... list")
    p.add_argument("--engines", default="auto")
    p.add_argument("--objectives", default="wdiff,utility")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="brute-force cross checks (tests, small data)")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--weight")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FairTopkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {BudgetExceededError: 3, LpStallError: 4}.get(type(exc), 1)


if __name__ == "__main__":
    raise SystemExit(main())
