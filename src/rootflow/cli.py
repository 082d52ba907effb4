"""Command-line front end: solve, bench, order, sweep-mu, sweep-h, basin.

All numerical failure modes print as verdicts; only usage errors exit
nonzero (code 2), through argparse or, for a bad option value, with one
``rootflow: ...`` line on stderr.  ``solve --expect-converge`` exits 1
when the run does not converge, and ``bench`` exits 1 when the verdict
pattern differs from the reference pattern.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import NoReturn

from .analysis import verify_quadratic_convergence
from .harness import (
    VERDICT_DIVERGENCE,
    basin_to_csv,
    basin_to_grid_text,
    benchmark_verdicts_match,
    default_x0_axis,
    map_basin,
    rows_to_csv,
    run_benchmark,
    sweep_h,
    sweep_mu,
)
from .problems import ProblemSpec, builtin_problems
from .solvers import SolverConfig, run

CLI_SCHEMES = {
    "newton": "newton",
    "euler": "euler_flow",
    "wu": "wu",
    "zheng": "zheng",
    "secant": "secant",
    "secant-dyn": "secant_dyn",
}
CLI_BOOTSTRAPS = {
    "zheng-first-step": "zheng_first_step",
    "offset-x0": "offset_x0",
}
CLI_STOP_RULES = {
    "step-size": "step_size",
    "residual": "residual",
    "either": "either",
}

SCHEME_HELP = (
    "newton: x - f(x)/f'(x);  "
    "euler: x - h*f(x)/(mu*f(x) + f'(x)), the Euler step of the continuation "
    "flow dx/dt = -f/(mu*f + f');  "
    "wu: euler with h = 1;  "
    "zheng: x - f(x)^2/(mu*f(x)^2 + f(x + f(x)) - f(x)), derivative-free;  "
    "secant-dyn: x - f(x)(x - x_prev)/(mu*(x - x_prev)*f(x) + f(x) - f(x_prev)), "
    "derivative-free;  "
    "secant: secant-dyn with mu = 0"
)


def _add_common(sub):
    sub.add_argument("--problem", required=True, choices=sorted(builtin_problems()),
                     help="registry problem name")
    sub.add_argument("--mu", type=float, default=0.0,
                     help="flow parameter mu (default 0)")
    sub.add_argument("--x0", type=float, default=None,
                     help="initial value (default: the problem's)")
    sub.add_argument("--epsilon", type=float, default=1e-5,
                     help="convergence precision (default 1e-5)")
    sub.add_argument("--max-iters", type=int, default=500,
                     help="iteration budget (default 500)")
    sub.add_argument("--bootstrap", choices=sorted(CLI_BOOTSTRAPS),
                     default="zheng-first-step",
                     help="second starting point policy for two-point schemes")
    sub.add_argument("--stop-rule", choices=sorted(CLI_STOP_RULES), default="step-size",
                     help="smallness test declaring convergence")
    sub.add_argument("--output", default=None, help="write to this file instead of stdout")
    sub.set_defaults(h=1.0)  # the Euler step for subcommands without --h
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootflow",
        description="Scalar nonlinear-equation solvers with an adjustable flow parameter.",
        epilog="Schemes: " + SCHEME_HELP,
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    solve = subs.add_parser("solve", help="run one scheme on one problem, print the trace")
    _add_common(solve)
    solve.add_argument("--scheme", required=True, choices=sorted(CLI_SCHEMES), help=SCHEME_HELP)
    solve.add_argument("--h", type=float, default=1.0, help="Euler step length (euler only)")
    solve.add_argument("--format", choices=("table", "csv"), default="table")
    solve.add_argument("--expect-converge", action="store_true",
                       help="exit 1 unless the run converges")

    bench = subs.add_parser("bench", help="run the 3x3 reference benchmark")
    bench.add_argument("--epsilon", type=float, default=1e-5)
    bench.add_argument("--max-iters", type=int, default=500)
    bench.add_argument("--output", default=None)
    bench.add_argument("--format", choices=("table", "csv"), default="table")

    order = subs.add_parser(
        "order", help="estimate the two-point scheme's convergence order and constant")
    _add_common(order)

    sweepmu = subs.add_parser("sweep-mu", help="run one scheme over a list of mu values")
    _add_common(sweepmu)
    sweepmu.add_argument("--scheme", required=True, choices=sorted(CLI_SCHEMES), help=SCHEME_HELP)
    sweepmu.add_argument("--mu-values", required=True,
                         help="comma-separated mu list, e.g. 0.1,0.5,1")

    sweeph = subs.add_parser("sweep-h", help="run the Euler scheme over a list of step lengths")
    _add_common(sweeph)
    sweeph.add_argument("--h-values", required=True,
                        help="comma-separated h list, e.g. 0.1,0.5,1")

    basin = subs.add_parser("basin", help="map convergence over initial values and mu")
    _add_common(basin)
    basin.add_argument("--scheme", required=True, choices=sorted(CLI_SCHEMES), help=SCHEME_HELP)
    basin.add_argument("--mu-values", required=True,
                       help="comma-separated mu axis")
    basin.add_argument("--x0-count", type=int, default=201,
                       help="number of evenly spaced initial values (default 201)")
    basin.add_argument("--grid-output", default=None,
                       help="also write the dense C<iters>/D matrix to this file")
    return parser


def _usage_error(message: str) -> NoReturn:
    print(f"rootflow: {message}", file=sys.stderr)
    raise SystemExit(2)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        _usage_error(f"cannot write {output}: {exc.strerror or exc}")


def _parse_values(raw: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        _usage_error(f"invalid {flag} list: {raw!r}")
    if not values:
        _usage_error(f"empty {flag} list")
    if not all(math.isfinite(v) for v in values):
        _usage_error(f"non-finite value in {flag} list: {raw!r}")
    return values


def _solver_config(**fields) -> SolverConfig:
    try:
        return SolverConfig(**fields)
    except ValueError as exc:
        _usage_error(str(exc))


def _config(args: argparse.Namespace, scheme: str) -> SolverConfig:
    return _solver_config(
        scheme=scheme,
        mu=args.mu,
        h=args.h,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        bootstrap=CLI_BOOTSTRAPS[args.bootstrap],
        stop_rule=CLI_STOP_RULES[args.stop_rule],
    )


def _x0(args: argparse.Namespace, p: ProblemSpec) -> float:
    if args.x0 is None:
        return p.default_x0
    a, b = p.domain
    if not (a <= args.x0 <= b):
        _usage_error(f"--x0 {args.x0!r} is outside the {p.name} domain [{a!r}, {b!r}]")
    return args.x0


def _bench_table(rows) -> str:
    lines = [f"{'problem':<8} {'scheme':<11} {'mu':<20} {'n':>4}  {'x_n':<9} verdict"]
    for r in rows:
        n = "-" if r.iterations is None else str(r.iterations)
        final = "-" if r.final_x is None else f"{r.final_x:.6f}"
        lines.append(f"{r.problem:<8} {r.scheme:<11} {r.mu:<20.12g} {n:>4}  {final:<9} {r.verdict}")
    return "\n".join(lines) + "\n"


def _cmd_solve(args) -> int:
    p = builtin_problems()[args.problem]
    outcome = run(p, _config(args, CLI_SCHEMES[args.scheme]), _x0(args, p))

    if args.format == "csv":
        lines = ["n,x,f"]
        for pt in outcome.trace.points:
            lines.append(f"{pt.n},{pt.x:.17g},{pt.fx:.17g}")
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"{'n':>4}  {'x_n':<24} f(x_n)"]
        for pt in outcome.trace.points:
            lines.append(f"{pt.n:>4}  {pt.x:<24.17g} {pt.fx:.17g}")
        verdict = outcome.verdict if outcome.converged else VERDICT_DIVERGENCE
        lines.append(f"verdict    : {verdict} ({outcome.reason})")
        lines.append(f"iterations : {outcome.iterations}")
        lines.append(f"final_x    : {outcome.final_x:.6f} ({outcome.final_x:.17g})")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    if args.expect_converge and not outcome.converged:
        return 1
    return 0


def _cmd_bench(args) -> int:
    _solver_config(epsilon=args.epsilon, max_iters=args.max_iters)  # rejects bad flags
    rows = run_benchmark(epsilon=args.epsilon, max_iters=args.max_iters)
    text = rows_to_csv(rows) if args.format == "csv" else _bench_table(rows)
    _emit(text, args.output)
    return 0 if benchmark_verdicts_match(rows) else 1


def _cmd_order(args) -> int:
    p = builtin_problems()[args.problem]
    report = verify_quadratic_convergence(p, args.mu, _x0(args, p), _config(args, "secant_dyn"))
    _emit(report.to_text() + "\n", args.output)
    return 0


def _cmd_sweep_mu(args) -> int:
    p = builtin_problems()[args.problem]
    scheme = CLI_SCHEMES[args.scheme]
    mu_values = _parse_values(args.mu_values, "--mu-values")
    rows = sweep_mu(p, scheme, mu_values, _x0(args, p), _config(args, scheme))
    _emit(rows_to_csv(rows), args.output)
    return 0


def _cmd_sweep_h(args) -> int:
    p = builtin_problems()[args.problem]
    h_values = _parse_values(args.h_values, "--h-values")
    if any(h <= 0.0 for h in h_values):
        _usage_error(f"--h-values must all be positive: {args.h_values!r}")
    rows = sweep_h(p, args.mu, h_values, _x0(args, p), _config(args, "euler_flow"))
    _emit(rows_to_csv(rows), args.output)
    return 0


def _cmd_basin(args) -> int:
    p = builtin_problems()[args.problem]
    scheme = CLI_SCHEMES[args.scheme]
    mu_values = _parse_values(args.mu_values, "--mu-values")
    if args.x0_count < 1:
        _usage_error(f"--x0-count must be at least 1, got {args.x0_count}")
    cfg = _config(args, scheme)
    grid = map_basin(p, scheme, mu_values, default_x0_axis(p, args.x0_count), cfg)
    _emit(basin_to_csv(grid), args.output)
    if args.grid_output is not None:
        _emit(basin_to_grid_text(grid), args.grid_output)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "order": _cmd_order,
    "sweep-mu": _cmd_sweep_mu,
    "sweep-h": _cmd_sweep_h,
    "basin": _cmd_basin,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.subcommand](args)


if __name__ == "__main__":
    sys.exit(main())
