"""canal4 benchmark: one closed-loop workload per run, outputs checked.

    python3 bench/run.py --workload wide|tall|oracle --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src. One
client, one thread of load: each operation starts when the previous one has
returned. A run attempts whole rounds (one operation per family of the
workload); the first round is a warm-up and every later round is one timed
window. Next to every operation the run times a fixed piece of reference
work that uses no canal4 code, and scales the operation's time to the
reference work's speed (see `pace`). Output checks run between windows,
outside the timed time, and so do the set-up samples: fresh interpreters,
spread over the run, that import canal4 and set every family up.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1). Problems found by the checks go to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

# every process of the benchmark computes on one thread
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1", "CANAL_THREADS": "1"}

SETUP_SAMPLES = {0: 5, 1: 3}      # fresh-interpreter set-ups per run, by --trace
SETUP_TIMEOUT_S = 60
# the reference work's time at the speed ops_per_s is reported at (about its
# median on the 2-vCPU VM of the README's figures)
REFERENCE_S = 0.005

END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.canal4_s": "s", "import.modules": "count", "expr.compile_ms": "ms",
    "expr.interp_evals_per_node": "count", "curve.frame_us": "us",
    "curve.frames_per_node": "count", "canal.point_us": "us", "canal.validate_ms": "ms",
    "minkowski.vec4_per_node": "count", "curvature.cf_us_per_node": "us",
    "curvature.num_ms_per_node": "ms", "curvature.point_calls_per_num_node": "count",
    "analysis.kh_us_per_node": "us", "analysis.weingarten_us_per_node": "us",
    "analysis.kh_evals_per_weingarten_node": "count", "analysis.classify_ms": "ms",
    "io.json_write_mb_per_s": "MB/s", "io.json_read_mb_per_s": "MB/s",
    "io.obj_write_mb_per_s": "MB/s", "io.csv_rows_per_s": "1/s",
    "cli.self_ms_per_command": "ms",
    **{f"{layer}.self_s": "s" for layer in
       ("cli", "io", "analysis", "curvature", "canal", "curve", "expr")},
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["wide", "tall", "oracle"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def reference_work():
    """Fixed pure-Python work: float math, small tuples, a dict and a JSON
    round trip."""
    rows, seen = [], {}
    for i in range(3000):
        x = i * 1e-3
        v = (math.sin(x), math.cosh(x), x * x - 1.0, math.sqrt(x + 1.0))
        seen[i & 255] = v[0] * v[0] - v[1] * v[1] + v[2] * v[2] + v[3] * v[3]
        rows.append(v)
    return len(json.loads(json.dumps(rows[:400])))


def pace():
    """Seconds the reference work takes now. This machine runs the same code
    at speeds up to 1.7x apart from one stretch of seconds to the next, and
    the reference work slows and speeds up with the program. The collector
    is off meanwhile, so the time does not depend on the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def setup_sample(families):
    """Wall time from spawning a fresh interpreter to its ready line."""
    payload = "".join(json.dumps(dataclasses.asdict(f)) + "\n" for f in families)
    env = dict(os.environ, PYTHONPATH=str(SRC), **ONE_THREAD)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "prepare.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        err = proc.stderr.read()
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {err.strip()}")
    doc = json.loads(line)
    doc["setup_s"] = ready
    return doc


class Run:
    def __init__(self, args):
        import checks
        import inputs
        import prepare
        import workloads

        self.args = args
        self.checks, self.prepare, self.workloads = checks, prepare, workloads
        self.families = inputs.round_families(args.workload, args.seed)
        self.workdir = WORK / f"{args.workload}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.attempted = self.failed = self.wrong = 0
        self.reported = set()
        self.digests = {}
        self.windows = []           # (per-operation seconds, scaled seconds, traced)
        self.samples = []

    def build_ops(self):
        ready = [self.prepare.prepare(f) for f in self.families]
        op_cls = self.workloads.OPS[self.args.workload]
        return [(op_cls(r, self.args.seed, str(self.workdir), i), self.checks.Reference(r.family))
                for i, r in enumerate(ready)]

    def report(self, family, kind, problems):
        for problem in problems:
            key = (family.name, kind, problem)
            if key not in self.reported:
                self.reported.add(key)
                print(f"{kind}: {family.name}: {problem}", file=sys.stderr)

    def check(self, op, ref, out):
        failed, wrong, dig = op.check(out, ref)
        if dig is not None:
            first = self.digests.setdefault((type(op).__name__, op.family.name), dig)
            if dig != first:
                wrong = wrong + ["output differs from the first round's (not deterministic)"]
        self.report(op.family, "failed", failed)
        self.report(op.family, "wrong", wrong)
        self.attempted += 1
        self.failed += bool(failed)
        self.wrong += bool(wrong)

    def round(self, ops, traced=None):
        """One window: every operation of the round, each timed between two
        timings of the reference work, then the checks. Returns the
        operations' times in seconds and the same times scaled to the
        reference speed: times REFERENCE_S over the mean of the two."""
        if traced is not None:
            traced.install()
        times, paces, outs = [], [pace()], []
        for op, _ in ops:
            t0 = time.perf_counter()
            outs.append(op.run())
            times.append(time.perf_counter() - t0)
            paces.append(pace())
        if traced is not None:
            traced.uninstall()
        for (op, ref), out in zip(ops, outs):
            self.check(op, ref, out)
        scaled = [t * 2 * REFERENCE_S / (a + b) for t, a, b in zip(times, paces, paces[1:])]
        return times, scaled

    def execute(self):
        args = self.args
        start = time.perf_counter()
        n_samples = SETUP_SAMPLES[args.trace]
        due = [args.seconds * i / n_samples for i in range(n_samples)]

        def take_due_samples(final=False):
            while len(self.samples) < n_samples and (
                    final or time.perf_counter() - start >= due[len(self.samples)]):
                self.samples.append(setup_sample(self.families))

        take_due_samples()
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        ops = self.build_ops()
        if tracer is not None:
            tracer.uninstall()
            tracer.phase = "rounds"
        self.round(ops)                          # warm-up
        min_windows = 2
        while (time.perf_counter() - start < args.seconds
               or len(self.windows) < min_windows):
            take_due_samples()
            traced = tracer if (tracer is not None and len(self.windows) % 2 == 1) else None
            self.windows.append((*self.round(ops, traced), traced is not None))
        take_due_samples(final=True)
        if tracer is None:
            return self.end_to_end()
        return self.per_layer(tracer)

    def end_to_end(self):
        """ops_per_s is the median over the timed windows of the window's
        rate at the reference speed; setup_s is the upper quartile of the
        set-up samples, whose speed the reference work in this process does
        not track (the README gives the figures)."""
        print("window rates (ops/s): " + " ".join(
            f"{len(times) / sum(times):.4g}" for times, _, _ in self.windows), file=sys.stderr)
        print("window rates at the reference speed (ops/s): " + " ".join(
            f"{len(scaled) / sum(scaled):.4g}" for _, scaled, _ in self.windows), file=sys.stderr)
        print("set-up samples (s): " + " ".join(f"{s['setup_s']:.4g}" for s in self.samples),
              file=sys.stderr)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "ops_per_s": statistics.median(len(scaled) / sum(scaled)
                                           for _, scaled, _ in self.windows),
            "setup_s": statistics.quantiles([s["setup_s"] for s in self.samples], n=4,
                                            method="inclusive")[-1],
            "peak_rss_mb": rss_kb / 1024.0,
        }

    def per_layer(self, tracer):
        import tracing
        traced_ops = sum(len(times) for times, _, traced in self.windows if traced)
        metrics = layer_metrics(tracing.Profile(tracer, "rounds"), traced_ops)
        setup = tracing.Profile(tracer, "setup")
        metrics["expr.compile_ms"] = 1e3 * sum(
            setup.self_time[n] for n in ("expr.parse", "expr.differentiate", "expr.compile_expr"))
        metrics["import.canal4_s"] = statistics.median(s["import_s"] for s in self.samples)
        metrics["import.modules"] = self.samples[0]["import_modules"]
        traced = [sum(scaled) for _, scaled, t in self.windows if t]
        plain = [sum(scaled) for _, scaled, t in self.windows if not t]
        metrics["trace.overhead_pct"] = 100.0 * (statistics.mean(traced) / statistics.mean(plain) - 1.0)
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / f"trace-{self.args.workload}-seed{self.args.seed}.jsonl")
        return metrics

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def layer_metrics(p, ops):
    """Per-layer figures of one traced phase; 0.0 for a layer the workload
    never calls."""

    def ratio(a, b):
        return a / b if b else 0.0

    nodes = p.info["canal.sample_grid"]
    cf, num = "curvature.curvature_report[cf]", "curvature.curvature_report[num]"
    kh, wg = "analysis.check_kh_relation", "analysis.weingarten_check"
    flat, minimal = "analysis.classify_flat", "analysis.classify_minimal"
    jw, jr, obj, csv = "io.patch_to_json", "io.patch_from_json", "io.export_obj", "io.export_curvature_csv"
    m = {
        "expr.interp_evals_per_node": ratio(p.calls["expr.evaluate"], nodes),
        "curve.frame_us": ratio(1e6 * p.total["curve.frame"], p.calls["curve.frame"]),
        "curve.frames_per_node": ratio(p.calls["curve.frame"], nodes),
        "canal.point_us": ratio(1e6 * p.self_time["canal.sample_grid"], nodes),
        "canal.validate_ms": ratio(1e3 * p.total["canal.validate_config"],
                                   p.calls["canal.validate_config"]),
        "minkowski.vec4_per_node": ratio(p.counts[("minkowski.Vec4", "*")], nodes),
        "curvature.cf_us_per_node": ratio(1e6 * p.total[cf], p.calls[cf]),
        "curvature.num_ms_per_node": ratio(1e3 * p.total[num], p.calls[num]),
        "curvature.point_calls_per_num_node": ratio(p.counts[("canal.canal_point", num)],
                                                    p.calls[num]),
        "analysis.kh_us_per_node": ratio(1e6 * p.total[kh], p.info[kh]),
        "analysis.weingarten_us_per_node": ratio(1e6 * p.total[wg], p.info[wg]),
        "analysis.kh_evals_per_weingarten_node": ratio(
            p.counts[("curvature.gauss_mean_principal", wg)], p.info[wg]),
        "analysis.classify_ms": ratio(1e3 * (p.total[flat] + p.total[minimal]), p.calls[flat]),
        "io.json_write_mb_per_s": ratio(p.info[jw] / 1e6, p.total[jw]),
        "io.json_read_mb_per_s": ratio(p.info[jr] / 1e6, p.total[jr]),
        "io.obj_write_mb_per_s": ratio(p.info[obj] / 1e6, p.total[obj]),
        "io.csv_rows_per_s": ratio(p.info[csv], p.self_time[csv]),
        "cli.self_ms_per_command": ratio(1e3 * p.self_time["cli.main"], p.calls["cli.main"]),
    }
    for layer in ("cli", "io", "analysis", "curvature", "canal", "curve", "expr"):
        m[f"{layer}.self_s"] = ratio(p.module_self(layer), ops)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "canal4" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'canal4'}; run from a checkout root",
              file=sys.stderr)
        return 2
    os.environ.update(ONE_THREAD)
    sys.path.insert(0, str(SRC))
    run = Run(args)
    try:
        values = run.execute()
    finally:
        run.close()
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
