"""Command-line front end: solve, bench, order, sweep-mu, sweep-h, basin.

All numerical failure modes print as verdicts; only usage errors exit
nonzero (code 2), through argparse or, for an option value the library
rejects, with its message on one ``rootflow: ...`` line on stderr and
nothing on stdout.  ``solve --expect-converge`` exits 1
when the run does not converge, and ``bench`` exits 1 when the verdict
pattern differs from the reference pattern.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
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
from .solvers import BOOTSTRAPS, STOP_RULES, SolverConfig, run

CLI_SCHEMES = {
    "newton": "newton",
    "euler": "euler_flow",
    "wu": "wu",
    "zheng": "zheng",
    "secant": "secant",
    "secant-dyn": "secant_dyn",
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

# Every flag, declared once.  Bootstrap and stop-rule choices are the
# library's names spelled with hyphens.
_FLAGS = {
    "--problem": dict(required=True, choices=sorted(builtin_problems()),
                      help="registry problem name"),
    "--scheme": dict(required=True, choices=sorted(CLI_SCHEMES), help=SCHEME_HELP),
    "--mu": dict(type=float, default=0.0, help="flow parameter mu (default 0)"),
    "--h": dict(type=float, default=1.0, help="Euler step length (euler only)"),
    "--x0": dict(type=float, default=None, help="initial value (default: the problem's)"),
    "--epsilon": dict(type=float, default=1e-5, help="convergence precision (default 1e-5)"),
    "--max-iters": dict(type=int, default=500, help="iteration budget (default 500)"),
    "--bootstrap": dict(choices=sorted(b.replace("_", "-") for b in BOOTSTRAPS),
                        default="zheng-first-step",
                        help="second starting point policy for two-point schemes"),
    "--stop-rule": dict(choices=sorted(r.replace("_", "-") for r in STOP_RULES),
                        default="step-size", help="smallness test declaring convergence"),
    "--output": dict(default=None, help="write to this file instead of stdout"),
    "--format": dict(choices=("table", "csv"), default="table"),
    "--expect-converge": dict(action="store_true", help="exit 1 unless the run converges"),
    "--mu-values": dict(required=True, help="comma-separated mu list, e.g. 0.1,0.5,1"),
    "--h-values": dict(required=True, help="comma-separated h list, e.g. 0.1,0.5,1"),
    "--x0-count": dict(type=int, default=201,
                       help="number of evenly spaced initial values (default 201)"),
    "--grid-output": dict(default=None, help="also write the dense C<iters>/D matrix to this file"),
}

# Each subcommand: its help line and the flags its handler reads, in usage order.
_SUBCOMMANDS = {
    "solve": ("run one scheme on one problem, print the trace",
              "--problem --mu --x0 --epsilon --max-iters --bootstrap --stop-rule --output"
              " --scheme --h --format --expect-converge"),
    "bench": ("run the 3x3 reference benchmark", "--epsilon --max-iters --output --format"),
    "order": ("estimate the two-point scheme's convergence order and constant",
              "--problem --mu --x0 --epsilon --max-iters --bootstrap --stop-rule --output"),
    "sweep-mu": ("run one scheme over a list of mu values",
                 "--problem --x0 --epsilon --max-iters --bootstrap --stop-rule --output"
                 " --scheme --mu-values"),
    "sweep-h": ("run the Euler scheme over a list of step lengths",
                "--problem --mu --x0 --epsilon --max-iters --stop-rule --output --h-values"),
    "basin": ("map convergence over initial values and mu",
              "--problem --epsilon --max-iters --bootstrap --stop-rule --output"
              " --scheme --mu-values --x0-count --grid-output"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootflow",
        description="Scalar nonlinear-equation solvers with an adjustable flow parameter.",
        epilog="Schemes: " + SCHEME_HELP,
    )
    # What a handler reads for a flag its subcommand does not take.
    parser.set_defaults(mu=0.0, h=1.0, bootstrap="zheng-first-step")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        # Without allow_abbrev=False, a removed or misspelt flag such as
        # --x0 or --max would be read as a longer flag it prefixes.
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        sub.set_defaults(subparser=sub)
        for flag in flags.split():
            sub.add_argument(flag, **_FLAGS[flag])
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
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        _usage_error(f"invalid {flag} list: {raw!r}")


def _config(args: argparse.Namespace, scheme: str) -> SolverConfig:
    return SolverConfig(
        scheme=scheme,
        mu=args.mu,
        h=args.h,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        bootstrap=args.bootstrap.replace("-", "_"),
        stop_rule=args.stop_rule.replace("-", "_"),
    )


def _x0(args: argparse.Namespace, p: ProblemSpec) -> float:
    return p.default_x0 if args.x0 is None else args.x0


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
    rows = sweep_h(p, args.mu, h_values, _x0(args, p), _config(args, "euler_flow"))
    _emit(rows_to_csv(rows), args.output)
    return 0


def _cmd_basin(args) -> int:
    p = builtin_problems()[args.problem]
    scheme = CLI_SCHEMES[args.scheme]
    mu_values = _parse_values(args.mu_values, "--mu-values")
    grid = map_basin(p, scheme, mu_values, default_x0_axis(p, args.x0_count), _config(args, scheme))
    # The grid file first: if it cannot be written, nothing has been output.
    if args.grid_output is not None:
        _emit(basin_to_grid_text(grid), args.grid_output)
    _emit(basin_to_csv(grid), args.output)
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
    args, unread = build_parser().parse_known_args(argv)
    if unread:
        # parse_args would report them with the top-level usage, not the subcommand's.
        args.subparser.error("unrecognized arguments: " + " ".join(unread))
    try:
        return _COMMANDS[args.subcommand](args)
    except ValueError as exc:  # the library rejected an option value
        _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
