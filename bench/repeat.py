"""Repeat runs of the benchmark: median, quartiles and spread per metric.

    python3 bench/repeat.py [--runs 10] [--first-seed 1] [--seconds 30]
                            [--out FILE] [--against FILE]

Runs `bench/run.py --trace 0` once per (seed, workload) on all three
workloads, seeds first-seed ..
first-seed + runs - 1, workloads interleaved so that each sees the same
stretch of machine time. For each metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, which BENCHMARK.json's bounds are set from; and each
workload's share of failed operations, which must be the same in every
run. --out writes the summary as JSON; --against compares the medians with
an earlier summary, as a share of its medians, against the bounds.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 300
WORKLOADS = ("wide", "tall", "oracle")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(results):
    """{metric: {median, q1, q3, spread, unit, values}} of one workload."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": results[0]["metrics"][name]["unit"], "values": values}
    return out


def bounds():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    doc = json.loads(path.read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in doc.get("end_to_end", [])}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out")
    p.add_argument("--against")
    args = p.parse_args(argv)

    results = {w: [] for w in WORKLOADS}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in WORKLOADS:
            r = run_once(w, seed, args.seconds)
            results[w].append(r)
            print(f"# {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), file=sys.stderr)

    limits = bounds()
    summary = {}
    for w in WORKLOADS:
        runs = results[w]
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        summary[w] = {"metrics": summarize(runs),
                      "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
                      "failed_attempted": shares,
                      "correct": all(r["correct"] for r in runs)}
        print(f"{w}: correct={summary[w]['correct']} failed share={summary[w]['failed_share']}")
        for name, m in summary[w]["metrics"].items():
            bound = limits.get(name, (None,))[0]
            mark = ""
            if bound is not None and m["spread"] > bound:
                mark = "  SPREAD ABOVE BOUND"
            print(f"  {name:40s} median {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} spread {m['spread']:7.2%}"
                  + (f" (bound {bound:.0%})" if bound is not None else "") + mark)

    if args.against:
        earlier = json.loads(Path(args.against).read_text())
        print(f"medians against {args.against}:")
        for w in WORKLOADS:
            if w not in earlier:
                continue
            for name, m in summary[w]["metrics"].items():
                old = earlier[w]["metrics"][name]["median"]
                change = (m["median"] - old) / old if old else 0.0
                bound, better = limits.get(name, (None, "lower"))
                worse = change if better == "lower" else -change
                flag = "  WORSE THAN BOUND" if bound is not None and worse > bound else ""
                print(f"  {w:7s} {name:40s} {change:+8.2%}{flag}")
            if summary[w]["failed_share"] != earlier[w]["failed_share"]:
                print(f"  {w:7s} failed share {summary[w]['failed_share']} != "
                      f"{earlier[w]['failed_share']}")

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
