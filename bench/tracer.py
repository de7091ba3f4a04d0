"""Per-module timers and counters, wrapped from outside around hbplate's
public names.

Each wrapper replaces a name in the namespace of the module that calls it
(``adaptivity.solve`` is the name ``run`` calls; ``assembly.assemble_stiffness``
is the name ``assemble_system`` calls), records an inclusive span or a call
count, and is removed again when the study ends. Nothing under ``src/``
changes. Spans are tagged with the iteration they belong to, so that the
trace can be written one line per iteration.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# (module, name, span): inclusive wall time of every call
TIMED = (
    ("adaptivity", "assemble_system", "assembly.system"),
    ("assembly", "assemble_stiffness", "assembly.stiffness"),
    ("assembly", "assemble_load", "assembly.load"),
    ("adaptivity", "apply_dirichlet", "assembly.dirichlet"),
    ("adaptivity", "solve", "assembly.solve"),
    ("adaptivity", "h2_seminorm_error", "assembly.error"),
    ("adaptivity", "evaluate", "assembly.evaluate"),
    ("adaptivity", "estimate", "estimators.estimate"),
    ("estimators", "build_bubble_space", "estimators.bubble_space"),
    ("estimators", "assemble_blocks", "estimators.blocks"),
    ("estimators", "solve_blocks", "estimators.solve_blocks"),
    ("estimators", "eta_elements", "estimators.eta"),
    ("adaptivity", "mark_maximum", "adaptivity.mark"),
    ("adaptivity", "expand_marks", "adaptivity.expand"),
    ("hierarchy", "refine", "hierarchy.refine"),
    ("hierarchy", "rebuild_basis", "hierarchy.rebuild_basis"),
)

# (module, name, counter): calls only; these run too often to time each call
COUNTED = (
    ("assembly", "connectivity", "hierarchy.connectivity_calls"),
    ("assembly", "eval_ders", "splines.span_evals"),
    ("assembly", "eval_ders_in_span", "splines.span_evals"),
    ("estimators", "eval_ders_in_span", "splines.span_evals"),
    ("estimators", "eval_bernstein_ders", "splines.bernstein_evals"),
)

# spans that follow the record of the iteration whose estimates they act on
REFINE_SIDE = {"adaptivity.mark", "adaptivity.expand", "hierarchy.refine",
               "hierarchy.rebuild_basis"}


def _solve_counts(args, result):
    system = args[0]
    n = system.matrix.shape[0]
    return {"assembly.dofs": n, "assembly.free_dofs": n - len(system.constraints),
            "assembly.nnz": system.matrix.nnz}


def _refine_counts(args, result):
    mesh, marked = args[0], args[1]
    subdivided = (result.n_active - mesh.n_active) // 3  # one cell becomes four
    return {"hierarchy.subdivided": subdivided,
            "adaptivity.closure_added": subdivided - len(set(marked))}


DERIVED = {
    "assembly.solve": _solve_counts,
    "estimators.blocks": lambda args, result: {"estimators.blocks": len(result),
                                               "estimators.level_sweeps": 1},
    "adaptivity.mark": lambda args, result: {"adaptivity.marked": len(result)},
    "hierarchy.refine": _refine_counts,
}

# per-layer time metric -> the span it sums
TIME_METRICS = {
    "assembly.stiffness_s": "assembly.stiffness",
    "assembly.load_s": "assembly.load",
    "assembly.dirichlet_s": "assembly.dirichlet",
    "assembly.solve_s": "assembly.solve",
    "assembly.error_s": "assembly.error",
    "assembly.evaluate_s": "assembly.evaluate",
    "estimators.bubble_space_s": "estimators.bubble_space",
    "estimators.blocks_s": "estimators.blocks",
    "estimators.solve_blocks_s": "estimators.solve_blocks",
    "estimators.eta_s": "estimators.eta",
    "hierarchy.refine_s": "hierarchy.refine",
    "hierarchy.rebuild_basis_s": "hierarchy.rebuild_basis",
    "adaptivity.mark_s": "adaptivity.mark",
    "adaptivity.expand_s": "adaptivity.expand",
}
COUNT_METRICS = (
    "assembly.dofs", "assembly.free_dofs", "assembly.nnz",
    "estimators.blocks", "estimators.level_sweeps",
    "hierarchy.connectivity_calls", "hierarchy.subdivided",
    "splines.span_evals", "splines.bernstein_evals",
    "adaptivity.marked", "adaptivity.closure_added",
)


class Tracer:
    """Spans and counts of one study, tagged by iteration."""

    def __init__(self):
        self.spans = []  # (span, depth, seconds, iteration)
        self.counts = defaultdict(int)  # (counter, iteration) -> count
        self.iterations = []  # per record: dofs and levels
        self._depth = 0

    def on_record(self, space, u_h, record):
        self.iterations.append({"dofs": space.num_dofs, "levels": space.mesh.num_levels})

    def _tag(self, span):
        n = len(self.iterations)
        return n - 1 if span in REFINE_SIDE else n

    def timed(self, span, fn):
        derive = DERIVED.get(span)

        def wrapper(*args, **kwargs):
            depth = self._depth
            self._depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._depth = depth
            it = self._tag(span)
            self.spans.append((span, depth, elapsed, it))
            if derive is not None:
                for name, value in derive(args, result).items():
                    self.counts[(name, it)] += value
            return result
        return wrapper

    def counted(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(counter, len(self.iterations))] += 1
            return fn(*args, **kwargs)
        return wrapper

    def metrics(self, study_s):
        """Per-layer metrics of the finished study, whose wall time (with
        the wrappers installed) is study_s."""
        times = defaultdict(float)
        top = 0.0
        for span, depth, elapsed, _ in self.spans:
            times[span] += elapsed
            if depth == 0:
                top += elapsed
        counts = defaultdict(int)
        for (name, _), value in self.counts.items():
            counts[name] += value
        out = {m: (times[span], "s") for m, span in TIME_METRICS.items()}
        out.update({m: (counts[m], "count") for m in COUNT_METRICS})
        out["hierarchy.levels"] = (self.iterations[-1]["levels"], "count")
        out["adaptivity.iterations"] = (len(self.iterations), "count")
        out["adaptivity.loop_self_s"] = (study_s - top, "s")
        return out

    def per_iteration(self):
        """One dict per record: its dofs, levels, span times and counts."""
        rows = [dict(iteration=i, times_s=defaultdict(float), counts=defaultdict(int), **info)
                for i, info in enumerate(self.iterations)]
        for span, _, elapsed, it in self.spans:
            if 0 <= it < len(rows):
                rows[it]["times_s"][span] += elapsed
        for (name, it), value in self.counts.items():
            if 0 <= it < len(rows):
                rows[it]["counts"][name] += value
        return rows


@contextlib.contextmanager
def installed(hb):
    """Wrap the names in TIMED and COUNTED for the duration of the block."""
    tracer = Tracer()
    saved = []
    try:
        for module, name, span in TIMED:
            mod = getattr(hb, module)
            saved.append((mod, name, getattr(mod, name)))
            setattr(mod, name, tracer.timed(span, getattr(mod, name)))
        for module, name, counter in COUNTED:
            mod = getattr(hb, module)
            saved.append((mod, name, getattr(mod, name)))
            setattr(mod, name, tracer.counted(counter, getattr(mod, name)))
        yield tracer
    finally:
        for mod, name, fn in reversed(saved):
            setattr(mod, name, fn)
