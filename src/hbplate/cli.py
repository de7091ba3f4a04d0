"""Command-line harness for the plate convergence studies.

Runs one benchmark with uniform or adaptive refinement, writes the
per-iteration records as CSV (17 significant digits, bit-reproducible),
optionally dumps the active mesh per iteration, and prints a summary line
with the fitted convergence slope and the final effectivity index.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .adaptivity import LoopConfig, StagnationError, run, slopes
from .assembly import SolverError
from .benchmarks import (
    benchmark_point_load,
    benchmark_singular,
    benchmark_smooth,
    check_manufactured_load,
)
from .hierarchy import HierarchicalSpace, RefinementLimitError, dump_mesh

CSV_COLUMNS = ("iteration", "dofs", "n_elements", "h_max",
               "error_h2", "eta_total", "theta", "qoi")

_BENCHMARKS = {
    "smooth": benchmark_smooth,
    "singular": benchmark_singular,
    "point_load": benchmark_point_load,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hbplate-bench",
        description="Adaptive hierarchical B-spline plate benchmark runner")
    parser.add_argument("--benchmark", required=True, choices=sorted(_BENCHMARKS))
    parser.add_argument("--degree", type=int, default=3, choices=(3, 4, 5))
    parser.add_argument("--n0", type=int, default=4,
                        help="elements per direction of the initial mesh")
    parser.add_argument("--refine", default="adaptive", choices=("uniform", "adaptive"))
    parser.add_argument("--estimator", default="bubble", choices=("bubble", "residual"))
    parser.add_argument("--gamma", type=float, default=0.5,
                        help="maximum-strategy marking threshold")
    parser.add_argument("--ca", type=float, default=3.0,
                        help="calibration constant of the bubble indicators")
    parser.add_argument("--admissibility", type=int, default=None,
                        help="admissibility class (default: degree - 1)")
    parser.add_argument("--max-iter", type=int, default=10)
    parser.add_argument("--max-dofs", type=int, default=100_000)
    parser.add_argument("--out", default="records.csv")
    parser.add_argument("--dump-mesh", action="store_true",
                        help="write one mesh dump file per iteration")
    return parser


def _fmt(value):
    if isinstance(value, int):
        return "%d" % value
    return "%.17g" % value


def records_to_csv(records):
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    spec = _BENCHMARKS[args.benchmark]()
    if spec.exact_value is not None:
        mismatch = check_manufactured_load(spec)
        if mismatch > 1e-4:
            print("error: manufactured load inconsistent with the exact solution "
                  "(relative deviation %.3e)" % mismatch, file=sys.stderr)
            return 1

    space = HierarchicalSpace.create(args.n0, args.degree)
    config = LoopConfig(
        max_iterations=args.max_iter,
        max_dofs=args.max_dofs,
        mode=args.refine,
        estimator=args.estimator,
        admissibility=args.admissibility,
        gamma=args.gamma,
        calibration=args.ca,
    )

    dumps = []
    def on_iteration(space_it, u_h, record):
        if args.dump_mesh:
            dumps.append((record.iteration, dump_mesh(space_it.mesh)))

    try:
        records = run(spec.problem, space, config,
                      exact_hessian=spec.exact_hessian,
                      qoi_point=spec.qoi_point,
                      on_iteration=on_iteration)
    except (SolverError, StagnationError, RefinementLimitError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    out_path = args.out
    with open(out_path, "w", newline="") as fh:
        fh.write(records_to_csv(records))
    stem, _ = os.path.splitext(out_path)
    for iteration, text in dumps:
        with open("%s_mesh_%03d.txt" % (stem, iteration), "w", newline="") as fh:
            fh.write(text)

    axis = "h" if args.refine == "uniform" else "sqrt_dofs"
    try:
        slope = slopes(records, axis)
    except ValueError:
        slope = math.nan
    theta = records[-1].theta
    extra = ""
    if spec.reference_qoi is not None and math.isfinite(records[-1].qoi):
        extra = " qoi_rel_err=%.6g" % abs(1.0 - records[-1].qoi / spec.reference_qoi)
    print("summary: benchmark=%s degree=%d refine=%s estimator=%s iterations=%d "
          "dofs=%d slope_vs_%s=%.6g theta=%.6g%s"
          % (args.benchmark, args.degree, args.refine, args.estimator,
             len(records), records[-1].dofs, axis, slope, theta, extra))
    return 0


if __name__ == "__main__":
    sys.exit(main())
