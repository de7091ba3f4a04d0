"""Benchmark: fixed refinement studies through hbplate's public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run times set-up in fresh processes, runs a short
untimed warm-up study, then repeats the whole study until the next repeat
would end after S seconds (always at least once), and reports the
study times as means over the repeats: seconds per study, the inverse of
the run's throughput.
With --trace 1 it runs the study once untraced and once with the per-module
wrappers of tracer.py installed, checks that both give the same records,
reports the per-layer metrics and writes a per-iteration JSONL trace.
Every study's output is checked (workloads.py). The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import os

if __name__ == "__main__":
    # One BLAS thread, set before numpy loads: the machine has 2 cores, and
    # the set-up probes inherit the setting.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 5
WARMUP_ITERATIONS = 2  # of the untimed study that loads lazy imports and fills caches
END_TO_END = {"setup_s": "s", "study_s": "s", "time_to_accuracy_s": "s", "peak_rss_mb": "MB"}


def load_hbplate():
    if not (SRC / "hbplate" / "__init__.py").is_file():
        raise SystemExit("hbplate sources not found at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import hbplate
    return hbplate


class Tally:
    """Operations attempted and failed: study iterations and checks."""

    def __init__(self):
        self.iterations = [0, 0]  # [attempted, failed]
        self.checks = [0, 0]  # [attempted, failed]
        self.lines = []

    def check(self, results):
        for name, ok, detail in results:
            self.checks[0] += 1
            self.checks[1] += not ok
            self.lines.append("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))

    @property
    def attempted(self):
        return self.iterations[0] + self.checks[0]

    @property
    def failed(self):
        return self.iterations[1] + self.checks[1]


class Study:
    """One call of hbplate.run to the end of the workload's budget."""

    def __init__(self, hb, wl, spec, tally, on_record=None):
        self.records = None
        self.final = None
        self.seconds = None
        self.to_accuracy = None
        space, config = wl.make_space(hb), wl.make_config(hb)
        done = []

        def on_iteration(space, u_h, record):
            done.append(record)
            if self.to_accuracy is None and wl.accuracy(record) <= wl.accuracy_target:
                self.to_accuracy = time.perf_counter() - t0
            self.final = (space, u_h)
            if on_record is not None:
                on_record(space, u_h, record)

        t0 = time.perf_counter()
        try:
            self.records = hb.run(spec.problem, space, config,
                                  exact_hessian=spec.exact_hessian,
                                  qoi_point=spec.qoi_point, on_iteration=on_iteration)
        except (hb.SolverError, hb.StagnationError, hb.RefinementLimitError) as exc:
            tally.iterations[0] += len(done) + 1
            tally.iterations[1] += 1
            tally.lines.append("FAIL iteration %d: %s: %s" % (len(done), type(exc).__name__, exc))
            return
        self.seconds = time.perf_counter() - t0
        tally.iterations[0] += len(self.records)

    def check(self, hb, wl, points, tally):
        results = []
        if self.to_accuracy is None:
            results.append(("accuracy_target", False, "target %.0e never reached"
                            % wl.accuracy_target))
        values = None
        if wl.benchmark != "point_load":
            space, u_h = self.final
            values = hb.evaluate(u_h, space, None, points)[0]
        self.final = None  # keep no mesh alive into the next repeat
        tally.check(results + workloads.study_checks(wl, self.records, values, points))


def measure_setup(wl):
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), wl.name],
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def untraced(hb, wl, seconds, points, tally, setup):
    spec = wl.make_spec(hb)
    Study(hb, replace(wl, max_iterations=WARMUP_ITERATIONS), spec, Tally())
    studies = []
    start = time.perf_counter()
    while True:
        gc.collect()
        study = Study(hb, wl, spec, tally)
        if study.records is not None:
            study.check(hb, wl, points, tally)
            studies.append(study)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / max(len(studies), 1) > seconds:
            break  # the next whole study would end after `seconds`
    metrics = {"setup_s": statistics.median(setup),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if studies:
        # Means, not medians: the shared machine slows down for tens of
        # seconds at a time, and a median flips between its fast and slow
        # repeats where a mean weighs them by the time they took.
        metrics["study_s"] = statistics.fmean(s.seconds for s in studies)
        reached = [s.to_accuracy for s in studies if s.to_accuracy is not None]
        if reached:
            metrics["time_to_accuracy_s"] = statistics.fmean(reached)
    detail = {"setup_s": setup, "study_s": [s.seconds for s in studies],
              "time_to_accuracy_s": [s.to_accuracy for s in studies]}
    return {m: (v, END_TO_END[m]) for m, v in metrics.items()}, detail


def traced(hb, wl, seed, points, tally):
    t0 = time.perf_counter()
    spec = wl.make_spec(hb)
    spec_s = time.perf_counter() - t0
    # traced first, so that its counts include filling the program's caches
    with tracer.installed(hb) as tr:
        study = Study(hb, wl, spec, tally, on_record=tr.on_record)
    plain = Study(hb, wl, spec, tally)
    if study.records is None or plain.records is None:
        return {}, {}
    study.check(hb, wl, points, tally)
    plain.check(hb, wl, points, tally)
    tally.check([workloads.check_records_identical(workloads.record_bytes(plain.records),
                                                   workloads.record_bytes(study.records))])
    metrics = tr.metrics(study.seconds)
    metrics["benchmarks.spec_s"] = (spec_s, "s")
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("trace-%s-seed%d.jsonl" % (wl.name, seed)), "w") as fh:
        for row in tr.per_iteration():
            fh.write(json.dumps(dict(workload=wl.name, seed=seed, **row)) + "\n")
    detail = {"untraced_study_s": plain.seconds, "traced_study_s": study.seconds,
              "tracing_overhead_s": study.seconds - plain.seconds}
    return metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    points = workloads.check_points(args.seed)
    tally = Tally()
    hb = load_hbplate()
    if args.trace:
        metrics, detail = traced(hb, wl, args.seed, points, tally)
    else:
        metrics, detail = untraced(hb, wl, args.seconds, points, tally, measure_setup(wl))
    for line in tally.lines:
        print(line, file=sys.stderr)
    result = {
        "correct": tally.checks[1] == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in sorted(metrics.items())},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("result-%s-seed%d-trace%d.json" % (wl.name, args.seed, args.trace)),
              "w") as fh:
        json.dump(dict(result, iterations=tally.iterations, checks=tally.checks,
                       detail=detail, log=tally.lines), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
