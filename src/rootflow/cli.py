"""Command-line front end: solve, bench, order, sweep-mu, sweep-h, basin.

All numerical failure modes print as verdicts; only usage errors exit
nonzero (code 2), through argparse or, for an option value the library
rejects, with its message on one ``rootflow: ...`` line on stderr and
nothing on stdout.  ``solve --expect-converge`` exits 1
when the run does not converge, and ``bench`` exits 1 when the verdict
pattern differs from the reference pattern.  A solver setting whose flag is
not typed takes its SolverConfig default.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import NoReturn

from .analysis import verify_quadratic_convergence
from .harness import (
    DEFAULT_X0_COUNT,
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
from .problems import builtin_problems
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
# library's names spelled with hyphens.  A flag named after a SolverConfig
# field has no default here: _config leaves an untyped one at SolverConfig's.
_FLAGS = {
    "--problem": dict(required=True, choices=sorted(builtin_problems()),
                      help="registry problem name"),
    "--scheme": dict(required=True, choices=sorted(CLI_SCHEMES), help=SCHEME_HELP),
    "--mu": dict(type=float, help=f"flow parameter mu (default {SolverConfig.mu:g})"),
    "--h": dict(type=float, help="Euler step length (euler only)"),
    "--x0": dict(type=float, help="initial value (default: the problem's)"),
    "--epsilon": dict(type=float,
                      help=f"convergence precision (default {SolverConfig.epsilon:g})"),
    "--max-iters": dict(type=int, help=f"iteration budget (default {SolverConfig.max_iters})"),
    "--bootstrap": dict(choices=sorted(b.replace("_", "-") for b in BOOTSTRAPS),
                        help="second starting point policy for two-point schemes"),
    "--stop-rule": dict(choices=sorted(r.replace("_", "-") for r in STOP_RULES),
                        help="smallness test declaring convergence"),
    "--output": dict(help="write to this file instead of stdout"),
    "--format": dict(choices=("table", "csv"), default="table"),
    "--expect-converge": dict(action="store_true", help="exit 1 unless the run converges"),
    "--mu-values": dict(required=True, help="comma-separated mu list, e.g. 0.1,0.5,1"),
    "--h-values": dict(required=True, help="comma-separated h list, e.g. 0.1,0.5,1"),
    "--x0-count": dict(type=int, default=DEFAULT_X0_COUNT,
                       help=f"number of evenly spaced initial values (default {DEFAULT_X0_COUNT})"),
    "--grid-output": dict(help="also write the dense C<iters>/D matrix to this file"),
}


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


def _config(args: argparse.Namespace) -> SolverConfig:
    """SolverConfig's defaults, overridden by the flags that were typed."""
    typed = {f.name: getattr(args, f.name) for f in fields(SolverConfig)
             if getattr(args, f.name, None) is not None}
    if "scheme" in typed:
        typed["scheme"] = CLI_SCHEMES[typed["scheme"]]
    for name in ("bootstrap", "stop_rule"):
        if name in typed:
            typed[name] = typed[name].replace("-", "_")
    return SolverConfig(**typed)


def _bench_table(rows) -> str:
    lines = [f"{'problem':<8} {'scheme':<11} {'mu':<20} {'n':>4}  {'x_n':<9} verdict"]
    for r in rows:
        n = "-" if r.iterations is None else str(r.iterations)
        final = "-" if r.final_x is None else f"{r.final_x:.6f}"
        lines.append(f"{r.problem:<8} {r.scheme:<11} {r.mu:<20.12g} {n:>4}  {final:<9} {r.verdict}")
    return "\n".join(lines) + "\n"


# Each handler takes the parsed flags, the problem (None for bench), the
# config and the start point, and returns its output text and exit code.

def _cmd_solve(args, p, cfg, x0) -> tuple[str, int]:
    outcome = run(p, cfg, x0)
    if args.format == "csv":
        lines = ["n,x,f"]
        for pt in outcome.trace.points:
            lines.append(f"{pt.n},{pt.x:.17g},{pt.fx:.17g}")
    else:
        lines = [f"{'n':>4}  {'x_n':<24} f(x_n)"]
        for pt in outcome.trace.points:
            lines.append(f"{pt.n:>4}  {pt.x:<24.17g} {pt.fx:.17g}")
        verdict = outcome.verdict if outcome.converged else VERDICT_DIVERGENCE
        lines.append(f"verdict    : {verdict} ({outcome.reason})")
        lines.append(f"iterations : {outcome.iterations}")
        lines.append(f"final_x    : {outcome.final_x:.6f} ({outcome.final_x:.17g})")
    return "\n".join(lines) + "\n", 1 if args.expect_converge and not outcome.converged else 0


def _cmd_bench(args, p, cfg, x0) -> tuple[str, int]:
    rows = run_benchmark(epsilon=cfg.epsilon, max_iters=cfg.max_iters)
    text = rows_to_csv(rows) if args.format == "csv" else _bench_table(rows)
    return text, 0 if benchmark_verdicts_match(rows) else 1


def _cmd_order(args, p, cfg, x0) -> tuple[str, int]:
    return verify_quadratic_convergence(p, cfg.mu, x0, cfg).to_text() + "\n", 0


def _cmd_sweep_mu(args, p, cfg, x0) -> tuple[str, int]:
    mu_values = _parse_values(args.mu_values, "--mu-values")
    return rows_to_csv(sweep_mu(p, cfg.scheme, mu_values, x0, cfg)), 0


def _cmd_sweep_h(args, p, cfg, x0) -> tuple[str, int]:
    h_values = _parse_values(args.h_values, "--h-values")
    return rows_to_csv(sweep_h(p, cfg.mu, h_values, x0, cfg)), 0


def _cmd_basin(args, p, cfg, x0) -> tuple[str, int]:
    mu_values = _parse_values(args.mu_values, "--mu-values")
    grid = map_basin(p, cfg.scheme, mu_values, default_x0_axis(p, args.x0_count), cfg)
    # The grid file first: if it cannot be written, nothing has been output.
    if args.grid_output is not None:
        _emit(basin_to_grid_text(grid), args.grid_output)
    return basin_to_csv(grid), 0


# Each subcommand: its help line, its handler and the flags the handler
# reads, in usage order.
_SUBCOMMANDS = {
    "solve": ("run one scheme on one problem, print the trace", _cmd_solve,
              "--problem --mu --x0 --epsilon --max-iters --bootstrap --stop-rule --output"
              " --scheme --h --format --expect-converge"),
    "bench": ("run the 3x3 reference benchmark", _cmd_bench,
              "--epsilon --max-iters --output --format"),
    "order": ("estimate the two-point scheme's convergence order and constant", _cmd_order,
              "--problem --mu --x0 --epsilon --max-iters --bootstrap --stop-rule --output"),
    "sweep-mu": ("run one scheme over a list of mu values", _cmd_sweep_mu,
                 "--problem --x0 --epsilon --max-iters --bootstrap --stop-rule --output"
                 " --scheme --mu-values"),
    "sweep-h": ("run the Euler scheme over a list of step lengths", _cmd_sweep_h,
                "--problem --mu --x0 --epsilon --max-iters --stop-rule --output --h-values"),
    "basin": ("map convergence over initial values and mu", _cmd_basin,
              "--problem --epsilon --max-iters --bootstrap --stop-rule --output"
              " --scheme --mu-values --x0-count --grid-output"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootflow",
        description="Scalar nonlinear-equation solvers with an adjustable flow parameter.",
        epilog="Schemes: " + SCHEME_HELP,
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, handler, flags) in _SUBCOMMANDS.items():
        # Without allow_abbrev=False, a removed or misspelt flag such as
        # --x0 or --max would be read as a longer flag it prefixes.
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        sub.set_defaults(subparser=sub, handler=handler)
        for flag in flags.split():
            sub.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    # The top-level parser takes only -h.  Left to argparse, a leading flag
    # is set aside and its value is read as the subcommand.
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        parser.error(f"unrecognized arguments: {argv[0]}")
    args, unread = parser.parse_known_args(argv)
    if unread:
        # parse_args would report them with the top-level usage, not the subcommand's.
        args.subparser.error("unrecognized arguments: " + " ".join(unread))
    try:
        p = builtin_problems()[args.problem] if "problem" in args else None
        cfg = _config(args)
        x0 = getattr(args, "x0", None)
        if x0 is None and p is not None:
            x0 = p.default_x0
        text, code = args.handler(args, p, cfg, x0)
    except ValueError as exc:  # the library rejected an option value
        _usage_error(str(exc))
    _emit(text, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
