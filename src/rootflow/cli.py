"""Command-line front end: solve, bench, order, sweep-mu, sweep-h, basin.

All numerical failure modes print as verdicts: ``solve`` and ``order`` name
a run by its own (converged, divergence or exhausted), and table and CSV rows
fold exhausted into divergence, keeping the reason.  ``main(argv)`` holds all
output until its end and returns the exit code: 1 for a ``bench`` verdict
mismatch or a ``solve --expect-converge`` run that does not converge, 2 for a
usage error.  A well-formed command line is read from the flag table;
argparse is loaded only for any other, and it alone prints help and usage
errors.  An option value the library rejects, or an output file, stdout or
stderr that cannot be written (help included), prints one ``rootflow: ...``
line on stderr.  Output is deterministic.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import types

from .analysis import verify_quadratic_convergence
from .harness import (
    DEFAULT_X0_COUNT,
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
from .solvers import _DEFAULTS, BOOTSTRAPS, STOP_RULES, SolverConfig, run

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
    "--mu": dict(type=float, help=f"flow parameter mu (default {_DEFAULTS.mu:g})"),
    "--h": dict(type=float, help="Euler step length (euler only)"),
    "--x0": dict(type=float, help="initial value (default: the problem's)"),
    "--epsilon": dict(type=float,
                      help=f"convergence precision (default {_DEFAULTS.epsilon:g})"),
    "--max-iters": dict(type=int, help=f"iteration budget (default {_DEFAULTS.max_iters})"),
    "--bootstrap": dict(choices=sorted(b.replace("_", "-") for b in BOOTSTRAPS),
                        help="second starting point policy for two-point schemes"),
    "--stop-rule": dict(choices=sorted(r.replace("_", "-") for r in STOP_RULES),
                        help="smallness test declaring convergence"),
    "--output": dict(help="write to this file instead of stdout"),
    "--format": dict(choices=("table", "csv"), default="table"),
    "--expect-converge": dict(action="store_true", default=False,
                              help="exit 1 unless the run converges"),
    "--mu-values": dict(required=True, help="comma-separated mu list, e.g. 0.1,0.5,1"),
    "--h-values": dict(required=True, help="comma-separated h list, e.g. 0.1,0.5,1"),
    "--x0-count": dict(type=int, default=DEFAULT_X0_COUNT,
                       help=f"number of evenly spaced initial values (default {DEFAULT_X0_COUNT})"),
    "--grid-output": dict(help="also write the dense C<iters>/D matrix to this file"),
}

# The flags whose value is a number, or a comma-separated list of numbers.
_NUMERIC_FLAGS = {"--mu", "--h", "--x0", "--epsilon", "--max-iters", "--mu-values", "--h-values",
                  "--x0-count"}


def _emit(text: str, output: str) -> None:
    try:
        with open(output, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {output}: {exc.strerror or exc}")


def _parse_values(raw: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"invalid {flag} list: {raw!r}") from None


def _config(args) -> SolverConfig:
    """SolverConfig's defaults, overridden by the flags that were typed."""
    typed = {name: getattr(args, name) for name in SolverConfig.__slots__
             if getattr(args, name, None) is not None}
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
        lines.append(f"verdict    : {outcome.verdict} ({outcome.reason})")
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


def _is_negative_number(token: str) -> bool:
    """Whether token is a negative number, or a list whose first item is one."""
    try:
        float(token.split(",", 1)[0])
    except ValueError:
        return False
    return token.startswith("-")


def _well_formed(argv):
    """The flags argparse would parse from argv, read from _FLAGS, when argv is a subcommand and
    each of its flags exactly, with a value the flag accepts and every required flag present.
    None for any other line, --help or an abbreviation among them, which argparse then reads."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, handler, own = _SUBCOMMANDS[argv[0]]
    own = own.split()
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in own:
            return None
        spec = _FLAGS[flag]
        if "action" in spec:  # --expect-converge, which takes no value
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                return None
        # as _read_with_argparse would join it; argparse reads any other such value its own way
        if value.startswith("-") and not (flag in _NUMERIC_FLAGS and _is_negative_number(value)):
            return None
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    if any(_FLAGS[flag].get("required") and flag not in given for flag in own):
        return None
    return types.SimpleNamespace(
        subcommand=argv[0], handler=handler,
        **{flag[2:].replace("-", "_"): given.get(flag, _FLAGS[flag].get("default")) for flag in own})


def _read_with_argparse(argv):
    """The flags argparse parses from argv, for any line _well_formed does not read.  argparse
    prints help or a usage error instead, and raises SystemExit."""
    import argparse  # 3 ms, and the parser 4 ms more: only help and usage errors need them

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
        sub.set_defaults(handler=handler)
        for flag in flags.split():
            sub.add_argument(flag, **_FLAGS[flag])
    # The top-level parser takes only -h.  Left to argparse, a leading
    # flag is set aside and its value is read as the subcommand.
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        parser.error(f"unrecognized arguments: {argv[0]}")
    # argparse takes a token that starts with "-" for a flag unless it is a plain decimal such as
    # -1 or -.5, so each negative value after a numeric flag is joined to it, as --mu=-1e-3.
    joined = []
    for token in argv:
        if joined and joined[-1] in _NUMERIC_FLAGS and _is_negative_number(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    args, unread = parser.parse_known_args(joined)
    sub = subs.choices[args.subcommand]
    if unread:
        # parse_args would report them with the top-level usage, not the subcommand's.
        sub.error("unrecognized arguments: " + " ".join(unread))
    # An explicit "--" as a value, as in --output=--, is no value: argparse before
    # 3.13 strips it and stores [], and 3.13 stores "--".
    for name, value in vars(args).items():
        if value == [] or value == "--":
            sub.error(f"argument --{name.replace('_', '-')}: expected one argument")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out, err = io.StringIO(), io.StringIO()  # held until the loop at the end writes them
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _well_formed(argv) or _read_with_argparse(argv)
            p = builtin_problems()[args.problem] if "problem" in vars(args) else None
            cfg = _config(args)
            x0 = getattr(args, "x0", None)
            if x0 is None and p is not None:
                x0 = p.default_x0
            text, code = args.handler(args, p, cfg, x0)
            if args.output is None:
                print(text, end="")
            else:
                _emit(text, args.output)
    except SystemExit as exc:  # argparse's help (0) or usage error (2)
        code = exc.code
    except ValueError as exc:  # an option value the library rejected, or an unwritable file
        code = 2
        err.write(f"rootflow: {exc}\n")
    for stream, buffer in ((sys.stdout, out), (sys.stderr, err)):
        try:
            print(buffer.getvalue(), end="", file=stream, flush=True)
        except OSError as exc:
            code = 2
            if buffer is out:
                err.write(f"rootflow: cannot write stdout: {exc.strerror or exc}\n")
            with contextlib.suppress(OSError, AttributeError), open(os.devnull, "w") as null:
                os.dup2(null.fileno(), stream.fileno())  # so that the flush at exit cannot fail again
    return code


if __name__ == "__main__":
    sys.exit(main())
