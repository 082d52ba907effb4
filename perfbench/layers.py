"""Counting and span tracing at rootflow's layer boundaries, from outside.

rootflow is never edited.  An instrumented pass swaps the module attributes
through which one layer calls the next (``harness.run``, ``solvers.eval_f``,
``analysis.estimate_order``, ...) for wrappers, hands out copies of the
problems whose ``f`` and ``df`` are wrapped, and restores everything when
the pass ends.

With ``timed=False`` a wrapper only counts calls; that is the counted pass,
whose counts must repeat exactly.  With ``timed=True`` every wrapper is also
a span: it adds its duration to the span's total and its duration minus its
child spans to the span's self time.  Spans are aggregated per name in
memory rather than stored one by one, because a basin round makes millions
of evaluator calls.

Every solver outcome that crosses the ``run`` boundary is checked here, so
the correctness checks see every run without touching the timed code.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from contextlib import contextmanager

import rootflow.analysis as analysis
import rootflow.cli as cli
import rootflow.harness as harness
import rootflow.solvers as solvers

_now = time.perf_counter_ns

# A converged verdict this far from the known root is a false convergence.
FALSE_CONVERGENCE_TOL = 1e-6

VERDICT_REASONS = {
    solvers.VERDICT_CONVERGED: set(solvers.CONVERGED_REASONS),
    solvers.VERDICT_EXHAUSTED: {solvers.REASON_MAX_ITERS},
    solvers.VERDICT_DIVERGED: {solvers.REASON_DOMAIN, solvers.REASON_NONFINITE,
                               solvers.REASON_UNDERFLOW, solvers.REASON_ESCAPE},
}
REASONS = sorted(set().union(*VERDICT_REASONS.values()))


class Layers:
    """Counts, spans and outcome checks of one instrumented pass.

    ``spans[name]`` is ``[calls, total_ns, self_ns]`` for a boundary (the
    times stay 0 unless the pass is timed), ``counts`` holds counts taken
    from the outcomes, and ``violations`` maps an operation index (set by
    the caller in ``op``) to the first invariant it broke.
    """

    def __init__(self, timed: bool, last_point_check: bool = False):
        self.timed = timed
        self.last_point_check = last_point_check
        self.spans: dict[str, list[int]] = {}
        self.counts: Counter = Counter()
        self.violations: dict[int, str] = {}
        self.op = 0
        self._stack = [0]

    def wrap(self, name, fn, timed=None):
        """``fn`` counted under ``name``, and timed as a span in a timed pass."""
        cell = self.spans.setdefault(name, [0, 0, 0])
        if not (self.timed if timed is None else timed):
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return counted
        stack = self._stack

        def spanned(*args, **kwargs):
            cell[0] += 1
            stack.append(0)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                d = _now() - t0
                cell[2] += d - stack.pop()
                cell[1] += d
                stack[-1] += d
        return spanned

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0,))[0]

    def total_ns(self, name: str) -> int:
        return self.spans.get(name, (0, 0))[1]

    def self_ns(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[2]

    def violation(self, message: str) -> None:
        self.violations.setdefault(self.op, message)

    def problems(self, problems: dict) -> dict:
        """Copies of ``problems`` whose evaluators count (and time) their calls."""
        out = {}
        for name, p in problems.items():
            # f runs inside the problems.eval_f and problems.probe spans, so
            # it is only counted; df is called straight from two layers.
            f = self.wrap("problems.f", p.f, timed=False)
            df = None if p.df is None else self.wrap("problems.df", p.df)
            out[name] = dataclasses.replace(p, f=f, df=df)
        # ProblemSpec evaluates f at the known root once on construction.
        for cell in self.spans.values():
            cell[:] = [0, 0, 0]
        return out

    def _check(self, p, cfg, out) -> None:
        c = self.counts
        c["solvers.iterations"] += out.iterations
        c["solvers.reason." + out.reason] += 1
        if out.verdict == solvers.VERDICT_EXHAUSTED:
            c["solvers.exhausted_runs"] += 1
        if out.converged:
            c["solvers.useful_iterations"] += out.iterations
            root = p.known_root
            if root is not None and abs(out.final_x - root) > FALSE_CONVERGENCE_TOL * max(1.0, abs(root)):
                c["solvers.false_converged"] += 1
        if out.reason not in VERDICT_REASONS.get(out.verdict, ()):
            self.violation(f"verdict {out.verdict!r} with reason {out.reason!r}")
        if out.iterations > cfg.max_iters:
            self.violation(f"{out.iterations} iterations exceed max_iters {cfg.max_iters}")
        a, b = p.domain
        if not (a <= out.final_x <= b):
            self.violation(f"final_x {out.final_x!r} outside [{a!r}, {b!r}]")
        if self.last_point_check and out.final_x != out.trace.points[-1].x:
            self.violation(f"final_x {out.final_x!r} is not the last trace point")

    def _run(self, run):
        inner = self.wrap("solvers.run", run)
        stack = self._stack

        def checked_run(p, cfg, x0):
            out = inner(p, cfg, x0)
            t0 = _now()
            self._check(p, cfg, out)
            stack[-1] += _now() - t0  # keep the checks out of the caller's self time
            return out
        return checked_run

    def _estimate(self, estimate_order):
        counts = self.counts

        def estimate(trace):
            try:
                return estimate_order(trace)
            except analysis.InsufficientData:
                counts["analysis.insufficient"] += 1
                raise
        return self.wrap("analysis.estimate", estimate)

    def _trace(self, from_points):
        counts = self.counts

        def traced(cls, points, known_root):
            counts["solvers.trace_points"] += len(points)
            return from_points(points, known_root)
        return classmethod(self.wrap("solvers.trace", traced))

    def _csv(self, render):
        counts = self.counts

        def csv(*args, **kwargs):
            text = render(*args, **kwargs)
            counts["harness.csv_bytes"] += len(text)
            return text
        return csv

    @contextmanager
    def installed(self, problems: dict):
        """Patch every layer boundary for the duration of the block.

        ``problems`` (already instrumented) is also what the CLI and the
        benchmark table see from ``builtin_problems``.
        """
        run = self._run(solvers.run)
        verify = self.wrap("analysis.verify", analysis.verify_quadratic_convergence)
        csv = self.wrap("harness.csv", self._csv(harness.basin_to_csv))
        rows_csv = self.wrap("harness.csv", self._csv(harness.rows_to_csv))
        patches = [
            (solvers, "run", run), (harness, "run", run), (analysis, "run", run), (cli, "run", run),
            (solvers, "eval_f", self.wrap("problems.eval_f", solvers.eval_f)),
            (solvers, "eval_f_unchecked", self.wrap("problems.probe", solvers.eval_f_unchecked)),
            (solvers.IterationTrace, "from_points", self._trace(solvers.IterationTrace.from_points)),
            (analysis, "estimate_order", self._estimate(analysis.estimate_order)),
            (analysis, "verify_quadratic_convergence", verify),
            (cli, "verify_quadratic_convergence", verify),
        ]
        for module in (harness, cli):
            patches += [
                (module, "map_basin", self.wrap("harness.map_basin", harness.map_basin)),
                (module, "basin_to_csv", csv),
                (module, "rows_to_csv", rows_csv),
                (module, "basin_to_grid_text", self.wrap("harness.grid", harness.basin_to_grid_text)),
                (module, "run_benchmark", self.wrap("harness.sweep", harness.run_benchmark)),
                (module, "sweep_mu", self.wrap("harness.sweep", harness.sweep_mu)),
                (module, "sweep_h", self.wrap("harness.sweep", harness.sweep_h)),
                (module, "builtin_problems", lambda: dict(problems)),
            ]
        saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
        try:
            for obj, attr, value in patches:
                setattr(obj, attr, value)
            yield self
        finally:
            for obj, attr, value in reversed(saved):
                setattr(obj, attr, value)

    def round_counts(self) -> dict:
        """The exact work counts of the pass, as reported beside the times."""
        c = self.calls
        return {
            "problems.f_calls": c("problems.f") - c("problems.probe"),
            "problems.df_calls": c("problems.df"),
            "problems.probe_calls": c("problems.probe"),
            "solvers.run_calls": c("solvers.run"),
            "solvers.iterations": self.counts["solvers.iterations"],
            "solvers.trace_points": self.counts["solvers.trace_points"],
            "solvers.exhausted_runs": self.counts["solvers.exhausted_runs"],
            "solvers.false_converged": self.counts["solvers.false_converged"],
            "analysis.estimate_calls": c("analysis.estimate"),
            "analysis.verify_calls": c("analysis.verify"),
            "analysis.insufficient": self.counts["analysis.insufficient"],
            "harness.csv_bytes": self.counts["harness.csv_bytes"],
            **{f"solvers.reason.{r}": self.counts["solvers.reason." + r] for r in REASONS},
        }

    def evaluations(self) -> int:
        return self.calls("problems.f") + self.calls("problems.df")

    def layer_metrics(self) -> dict:
        """Per-layer values of a timed pass (times in ns, over the whole pass)."""
        t, s, c = self.total_ns, self.self_ns, self.counts
        run_ns = t("solvers.run")
        iters = c["solvers.iterations"]
        return {
            "problems.eval_ns": t("problems.eval_f") + t("problems.probe") + t("problems.df"),
            "solvers.run_ns": run_ns,
            "solvers.self_ns": s("solvers.run"),
            "solvers.trace_ns": t("solvers.trace"),
            "solvers.trace_share": t("solvers.trace") / run_ns if run_ns else 0.0,
            "solvers.useful_iter_frac": c["solvers.useful_iterations"] / iters if iters else 0.0,
            "analysis.estimate_ns": t("analysis.estimate"),
            "analysis.verify_ns": s("analysis.verify"),
            "harness.map_basin_self_ns": s("harness.map_basin"),
            "harness.sweep_self_ns": s("harness.sweep"),
            "harness.csv_ns": t("harness.csv"),
            "harness.grid_ns": t("harness.grid"),
        }
