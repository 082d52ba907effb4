import contextlib
import errno
import io
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rootflow import SolverConfig, builtin_problems, run, verify_quadratic_convergence
from rootflow.cli import _FLAGS, _SUBCOMMANDS, _read_with_argparse, _well_formed, main
from rootflow.harness import CSV_HEADER, rows_to_csv, run_benchmark, sweep_h, sweep_mu


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# bench

@pytest.mark.parametrize("form", [[], ["--format", "csv"]], ids=["table", "csv"])
def test_bench_exits_one_and_still_prints_its_rows_when_the_pattern_breaks(capsys, form):
    # 7 iterations are too few for log/zheng (8) and exp/secant_dyn (41)
    code, out, err = run_cli(capsys, ["bench", "--max-iters", "7", *form])
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("problem") and len(lines) == 10
    assert err == ""


# ---------------------------------------------------------------------------
# solve

@pytest.mark.parametrize("argv, verdict, reason, iterations", [
    # a two-point run takes its bootstrap and then all 3 budgeted steps
    (["--problem", "exp", "--scheme", "secant-dyn", "--mu", "1.18", "--max-iters", "3"],
     "exhausted", "max_iters_reached", 3),
    # the first candidate leaves the domain, so no step is taken
    (["--problem", "log", "--scheme", "newton"], "divergence", "domain_violation", 0),
    # a start on the root converges before any step, so --expect-converge exits 0
    (["--problem", "log", "--scheme", "zheng", "--mu", "1", "--x0", "1", "--expect-converge"],
     "converged", "step_below_epsilon", 0),
], ids=["exp-secant-dyn", "log-newton", "log-zheng-at-the-root"])
def test_solve_prints_the_accepted_steps(capsys, argv, verdict, reason, iterations):
    code, out, _ = run_cli(capsys, ["solve", *argv])
    assert code == 0
    assert f"verdict    : {verdict} ({reason})\niterations : {iterations}\n" in out


@pytest.mark.parametrize("argv, rows, reason", [
    # an overflowed denominator ends the run before its step, under the residual rule too,
    (["--problem", "log", "--scheme", "zheng", "--mu", "1e308", "--stop-rule", "residual"],
     1, "nonfinite"),
    # and in the zheng_first_step bootstrap;
    (["--problem", "log", "--scheme", "secant-dyn", "--mu", "1e308"], 1, "nonfinite"),
    # a huge but finite one rounds the bootstrap step to 0, and the next pair coincides
    (["--problem", "log", "--scheme", "secant-dyn", "--mu", "1e300"], 2, "denominator_underflow"),
    (["--problem", "log", "--scheme", "secant-dyn", "--mu", "1e20"], 2, "denominator_underflow"),
], ids=["zheng-residual", "secant-dyn-bootstrap", "secant-dyn-finite", "secant-dyn-1e20"])
def test_solve_huge_mu(capsys, argv, rows, reason):
    code, out, _ = run_cli(capsys, ["solve", *argv, "--expect-converge"])
    assert code == 1
    assert len(re.findall(r"^ +\d+  ", out, re.MULTILINE)) == rows
    assert f"verdict    : divergence ({reason})\niterations : 0\n" in out


def test_solve_csv_trace(capsys):
    code, out, _ = run_cli(capsys, [
        "solve", "--problem", "log", "--scheme", "zheng", "--mu", "1",
        "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,x,f"
    assert lines[1].startswith("0,5,")
    assert len(lines) == 10  # x0 plus eight accepted iterates


def test_solve_reads_hyphenated_bootstrap_and_stop_rule(capsys):
    code, out, _ = run_cli(capsys, [
        "solve", "--problem", "log", "--scheme", "secant-dyn", "--mu", "0.135",
        "--bootstrap", "offset-x0", "--stop-rule", "residual", "--format", "csv"])
    assert code == 0
    cfg = SolverConfig(scheme="secant_dyn", mu=0.135, bootstrap="offset_x0",
                       stop_rule="residual")
    outcome = run(builtin_problems()["log"], cfg, 5.0)
    assert out.split("\n")[1:-1] == [
        f"{n},{x:.17g},{fx:.17g}" for n, (x, fx) in enumerate(outcome.pairs)]


def test_solve_unknown_problem_is_a_usage_error(capsys):
    assert main(["solve", "--problem", "cubic", "--scheme", "newton"]) == 2


def test_solve_unknown_scheme_is_a_usage_error(capsys):
    assert main(["solve", "--problem", "log", "--scheme", "halley"]) == 2


# ---------------------------------------------------------------------------
# order

def test_order_names_a_failed_run_divergence(capsys):
    # mu = 0 on exp's flat tail: the two-point denominator is exactly zero
    code, out, _ = run_cli(capsys, ["order", "--problem", "exp", "--mu", "0", "--x0", "50"])
    assert code == 0
    assert "verdict      : divergence (denominator_underflow)\n" in out
    assert "order        : not estimable (not converged or too short)" in out


# ---------------------------------------------------------------------------
# sweeps and basin

def test_sweep_mu_bad_values_usage_error(capsys):
    assert run_cli(capsys, ["sweep-mu", "--problem", "log", "--scheme", "secant-dyn",
                            "--mu-values", "a,b"]) == (
        2, "", "rootflow: invalid --mu-values list: 'a,b'\n")


def test_basin_runs_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code = main(["basin", "--problem", "log", "--scheme", "newton",
                     "--mu-values", "0", "--x0-count", "51", "--output", str(path)])
        assert code == 0
        capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


# Each bad value, and how the library's message starts: it names the input.
USAGE_ERRORS = {
    "x0": (["solve", "--problem", "log", "--scheme", "newton", "--x0", "7"],
           "x0 = 7.0 is outside the legal domain [0.5, 5.0]"),
    "epsilon": (["solve", "--problem", "log", "--scheme", "newton", "--epsilon", "0"],
                "epsilon must"),
    "epsilon-inf": (["solve", "--problem", "exp", "--scheme", "zheng", "--mu", "1",
                     "--epsilon", "inf"], "epsilon must be positive and finite"),
    "h": (["solve", "--problem", "log", "--scheme", "euler", "--h", "-0.5"], "h must"),
    "max-iters": (["sweep-mu", "--problem", "log", "--scheme", "zheng", "--mu-values", "1",
                   "--max-iters", "0"], "max iters must be at least 1"),
    "x0-count": (["basin", "--problem", "log", "--scheme", "newton", "--mu-values", "0",
                  "--x0-count", "0"], "x0 count must be at least 1"),
    "mu": (["order", "--problem", "log", "--mu", "nan"], "mu must be finite"),
    "h-values": (["sweep-h", "--problem", "log", "--h-values", "0.5,0"], "h must"),
    "h-values-empty": (["sweep-h", "--problem", "log", "--h-values", ","],
                       "h values must be non-empty"),
    "bench-epsilon": (["bench", "--epsilon", "-1"], "epsilon must"),
    "mu-values": (["sweep-mu", "--problem", "log", "--scheme", "zheng", "--mu-values", "1,inf"],
                  "mu must be finite"),
    "mu-values-empty": (["sweep-mu", "--problem", "log", "--scheme", "zheng", "--mu-values", ","],
                        "mu values must be non-empty"),
    "basin-mu-values-empty": (["basin", "--problem", "log", "--scheme", "zheng",
                               "--mu-values", ","], "mu axis must be non-empty"),
    "x0-nan": (["order", "--problem", "log", "--x0", "nan"], "x0 = nan is outside"),
}


@pytest.mark.parametrize("flag", sorted(USAGE_ERRORS))
def test_bad_flag_values_are_usage_errors(capsys, flag):
    argv, message = USAGE_ERRORS[flag]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("rootflow: " + message)
    assert err.count("\n") == 1


# A negative value of each numeric flag that is not a plain decimal such as -1 or -.5, which
# argparse alone reads as a flag; the exit code and the start of stdout, or stderr on exit 2.
NEGATIVE_VALUES = {
    "--mu": (["solve", "--problem", "exp", "--scheme", "wu", "--mu", "-1e-3", "--x0", "3"],
             0, "   n  x_n"),
    "--h": (["solve", "--problem", "log", "--scheme", "euler", "--h", "-1e-3"],
            2, "rootflow: h must be positive and finite\n"),
    "--x0": (["solve", "--problem", "exp", "--scheme", "zheng", "--x0", "-5e-1"], 0, "   n  x_n"),
    "--epsilon": (["bench", "--epsilon", "-1e-3"], 2, "rootflow: epsilon must"),
    "--max-iters": (["order", "--problem", "log", "--max-iters", "-1_0"],
                    2, "rootflow: max iters must be at least 1\n"),
    "--mu-values": (["sweep-mu", "--problem", "log", "--scheme", "zheng", "--mu-values", "-0.5,1"],
                    0, CSV_HEADER + "\nlog,zheng,-0.5,"),
    "--h-values": (["sweep-h", "--problem", "log", "--h-values", "-1e-1,1"], 2, "rootflow: h must"),
    "--x0-count": (["basin", "--problem", "log", "--scheme", "newton", "--mu-values", "0",
                    "--x0-count", "-1_0"], 2, "rootflow: x0 count must be at least 1\n"),
}


@pytest.mark.parametrize("flag", sorted(NEGATIVE_VALUES))
def test_numeric_flags_take_negative_values(capsys, flag):
    argv, code, start = NEGATIVE_VALUES[flag]
    result = run_cli(capsys, argv)
    assert result[0] == code
    assert result[1 if code == 0 else 2].startswith(start)
    # the same as the flag=value form, which argparse reads whatever the value
    i = argv.index(flag)
    assert run_cli(capsys, [*argv[:i], f"{flag}={argv[i + 1]}", *argv[i + 2:]]) == result


UNWRITABLE_OUTPUTS = {
    "bench --output": ["bench", "--output"],
    "solve --output": ["solve", "--problem", "log", "--scheme", "newton", "--output"],
    "basin --grid-output": ["basin", "--problem", "log", "--scheme", "newton", "--mu-values", "0",
                            "--x0-count", "3", "--grid-output"],
}


@pytest.mark.parametrize("target", ["missing-dir", "a-directory", "empty"])
@pytest.mark.parametrize("command", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, command, target):
    path = {"missing-dir": tmp_path / "missing" / "out.txt", "a-directory": tmp_path,
            "empty": ""}[target]
    code, out, err = run_cli(capsys, UNWRITABLE_OUTPUTS[command] + [str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"rootflow: cannot write {path}: ")
    assert err.count("\n") == 1


# Commands whose stdout or stderr fails the write, each in a child process:
# a full device, or a pipe whose reader has gone, as in
# `rootflow basin ... | head -1`.  Buffered, the write fails at the flush;
# unbuffered, in the write itself.  Each case: argv, then where stdout and
# stderr go (None: a pipe read here).
SOLVE = ["solve", "--problem", "log", "--scheme", "newton"]
UNWRITABLE_STREAMS = {
    "/dev/full": (["bench"], "/dev/full", None),
    "closed-pipe": (["bench"], "closed-pipe", None),
    "--help >full": (["--help"], "/dev/full", None),
    "solve --help >full": (["solve", "--help"], "/dev/full", None),
    "--bogus 2>full": (["--bogus", "1", *SOLVE], None, "/dev/full"),
    "--max-iters 0 2>full": ([*SOLVE, "--max-iters", "0"], None, "/dev/full"),
    "bench >full 2>full": (["bench"], "/dev/full", "/dev/full"),
    "--output full 2>full": ([*SOLVE, "--output", "/dev/full"], None, "/dev/full"),
}


def unwritable_fd(target):
    if target == "/dev/full":
        return os.open(target, os.O_WRONLY)
    read_end, fd = os.pipe()
    os.close(read_end)
    return fd


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case", list(UNWRITABLE_STREAMS))
def test_unwritable_stdout_is_a_usage_error(case, unbuffered):
    argv, stdout, stderr = UNWRITABLE_STREAMS[case]
    if "/dev/full" in (stdout, stderr) and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    fds = [subprocess.PIPE if target is None else unwritable_fd(target)
           for target in (stdout, stderr)]
    try:
        child = subprocess.run([sys.executable, "-m", "rootflow.cli", *argv], stdout=fds[0],
                               stderr=fds[1], env=env, text=True)
    finally:
        for fd in fds:
            if fd != subprocess.PIPE:
                os.close(fd)
    assert child.returncode == 2
    if stdout is None:
        assert child.stdout == ""
    if stderr is None:  # so stdout is the stream that failed
        assert "Traceback" not in child.stderr and "Exception ignored" not in child.stderr
        assert child.stderr.startswith("rootflow: cannot write stdout: ")
        assert child.stderr.count("\n") == 1


# Values each flag accepts, and values some flag rejects.  Outputs go to the
# null device, or to a path that cannot be opened, so no draw writes a file.
VALID_VALUES = {
    **{flag: spec["choices"] for flag, spec in _FLAGS.items() if "choices" in spec},
    "--mu": ["0", "0.5", "2.65"], "--h": ["0.5", "1"], "--x0": ["0.6", "1.2"],
    "--epsilon": ["1e-5", "1e-13"], "--max-iters": ["3", "50"], "--x0-count": ["1", "5"],
    "--mu-values": ["0.5", "0.1,1"], "--h-values": ["0.5", "0.1,1"],
    "--output": [os.devnull], "--grid-output": [os.devnull], "--expect-converge": [None],
    "--help": [None],
}
INVALID_VALUES = ["0", "-1", "nan", "inf", "2.5", "x", ",", "a,b", "", "bogus", None]
UNOPENABLE = ["", os.path.join(os.devnull, "x"), None]


class Unwritable:
    """A stream whose every write fails, with no file descriptor."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        self.write("")


@st.composite
def command_lines(draw):
    """A subcommand with all its flags, some repeated, each with a value it
    accepts.  A faulty draw may also drop flags, pass values some flag
    rejects or none, add flags the subcommand does not read, lead with a
    flag, or name no subcommand or a bogus one."""
    faulty = draw(st.booleans())

    def fault():
        return faulty and draw(st.booleans())

    name = draw(st.sampled_from([*sorted(_SUBCOMMANDS), *(["bogus", None] if faulty else [])]))
    own = _SUBCOMMANDS[name][2].split() if name in _SUBCOMMANDS else []
    flags = [flag for flag in own if not fault()]
    extra = [*sorted(_FLAGS), "--help"] if faulty else own
    flags += draw(st.lists(st.sampled_from(extra), max_size=2)) if extra else []
    argv = [] if name is None else [name]
    for flag in flags:
        if not fault():
            value = draw(st.sampled_from(VALID_VALUES[flag]))
        else:
            value = draw(st.sampled_from(UNOPENABLE if flag.endswith("output") else INVALID_VALUES))
        argv += [flag] if value is None else [flag, value]
    if argv and fault():  # the subcommand last, so a flag leads
        argv = argv[1:] + argv[:1]
    return argv


@settings(deadline=None)
@given(argv=command_lines(), stdout_works=st.booleans(), stderr_works=st.booleans())
def test_main_returns_an_exit_code_whatever_its_streams(argv, stdout_works, stderr_works):
    stdout = io.StringIO() if stdout_works else Unwritable()
    stderr = io.StringIO() if stderr_works else Unwritable()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert type(code) is int and code in (0, 1, 2)
    if stdout_works and stderr_works:  # a usage error prints on stderr only, and only it does
        assert (stdout if code == 2 else stderr).getvalue() == ""


def argparse_flags(argv):
    """vars() of the namespace main's argparse path reads from argv, or None where argparse
    prints help or a usage error instead."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_read_with_argparse(argv))
        except SystemExit:
            return None


def assert_read_as_argparse_reads(argv):
    ours, theirs = _well_formed(argv), argparse_flags(argv)
    if theirs is None:
        assert ours is None
    if ours is not None:  # repr, so that nan equals nan and -0.0 differs from 0.0
        assert repr(sorted(vars(ours).items())) == repr(sorted(theirs.items()))
    return ours


@settings(deadline=None)
@given(argv=command_lines())
def test_well_formed_lines_read_as_argparse_reads_them(argv):
    assert_read_as_argparse_reads(argv)


SOLVE_LOG = ["solve", "--problem", "log", "--scheme", "zheng"]
# Each form the flag table reads or leaves to argparse, and whether it reads it.
FORMS = {
    "--mu=-1e-3": ([*SOLVE_LOG, "--mu=-1e-3"], True),
    "--mu -1e-3": ([*SOLVE_LOG, "--mu", "-1e-3"], True),
    "--output -": ([*SOLVE_LOG, "--output", "-"], False),
    "--output=--": ([*SOLVE_LOG, "--output=--"], False),
    "--expect-converge=1": ([*SOLVE_LOG, "--expect-converge=1"], False),
    "--mu twice": ([*SOLVE_LOG, "--mu", "1", "--mu=0.5"], True),
    "--format=csv": ([*SOLVE_LOG, "--format=csv"], True),
    "basin --x0-count=5": (["basin", "--problem", "trig", "--scheme", "secant-dyn",
                            "--mu-values=2.65", "--x0-count=5"], True),
    "a space": ([*SOLVE_LOG, "--output", "a b"], True),
    "bare --": ([*SOLVE_LOG, "--", "--mu", "1"], False),
    "--help": ([*SOLVE_LOG, "--help"], False),
    "no value": ([*SOLVE_LOG, "--output"], False),
    "--problem=": (["solve", "--problem=", "--scheme", "zheng"], False),
}


@pytest.mark.parametrize("form", sorted(FORMS))
def test_flag_forms_read_as_argparse_reads_them(tmp_path, monkeypatch, form):
    argv, read = FORMS[form]
    assert (assert_read_as_argparse_reads(argv) is not None) == read
    if read:  # and main runs the line it reads
        monkeypatch.chdir(tmp_path)
        code, _, err = main_result(argv)
        assert (code, err) == (0, "")


def main_result(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None)
@given(argv=command_lines())
def test_main_prints_the_same_when_argparse_reads_every_line(argv):
    result = main_result(argv)
    with mock.patch("rootflow.cli._well_formed", return_value=None):
        assert main_result(argv) == result


# Flags a subcommand does not read, an abbreviation of one it does, and a
# flag before the subcommand, whose value argparse would take for one.
UNKNOWN_FLAGS = {
    "leading --bogus": ["--bogus", "1", "solve", "--problem", "log", "--scheme", "newton"],
    "basin --x0": ["basin", "--problem", "log", "--scheme", "newton", "--mu-values", "0",
                   "--x0-count", "3", "--x0", "3"],
    "basin --mu": ["basin", "--problem", "log", "--scheme", "newton", "--mu-values", "0",
                   "--x0-count", "3", "--mu", "1"],
    "sweep-mu --mu": ["sweep-mu", "--problem", "log", "--scheme", "zheng", "--mu-values", "1",
                      "--mu", "1"],
    "sweep-h --bootstrap": ["sweep-h", "--problem", "log", "--h-values", "1",
                            "--bootstrap", "offset-x0"],
    "solve --max": ["solve", "--problem", "log", "--scheme", "newton", "--max", "3"],
}


@pytest.mark.parametrize("command", sorted(UNKNOWN_FLAGS))
def test_unread_and_abbreviated_flags_are_usage_errors(capsys, command):
    code, out, err = run_cli(capsys, UNKNOWN_FLAGS[command])
    assert code == 2
    assert out == ""
    # the usage of the parser that rejects the flag: the subcommand's, which
    # lists the flags it does take, or before a subcommand the top-level one
    first = UNKNOWN_FLAGS[command][0]
    assert err.startswith("usage: rootflow " + ("[-h]" if first.startswith("-") else first) + " ")
    assert "unrecognized arguments: " + command.split()[-1] in err


def test_a_value_for_a_flag_that_takes_none_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, [*SOLVE_LOG, "--expect-converge=1"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: rootflow solve ")
    assert "error: argument --expect-converge: ignored explicit argument '1'" in err


# An explicit "--" as a flag's value, which argparse before Python 3.13 stores as [] and 3.13
# as "--".
DASH_DASH_VALUES = {
    "solve --output": [*SOLVE_LOG, "--output=--"],
    "basin --grid-output": ["basin", "--problem", "log", "--scheme", "zheng", "--mu-values", "1",
                            "--x0-count", "3", "--grid-output=--"],
    "sweep-mu --mu-values": ["sweep-mu", "--problem", "log", "--scheme", "zheng",
                             "--mu-values=--"],
    "sweep-h --h-values": ["sweep-h", "--problem", "log", "--h-values=--"],
}


@pytest.mark.parametrize("command", sorted(DASH_DASH_VALUES))
def test_a_dash_dash_value_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    subcommand, flag = command.split()
    code, out, err = run_cli(capsys, DASH_DASH_VALUES[command])
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: rootflow {subcommand} ")
    assert err.count("usage:") == 1
    assert err.endswith(f"rootflow {subcommand}: error: argument {flag}: expected one argument\n")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the README commands, byte for byte against outputs captured from the
# implementation that built a full trace in every run

GOLDEN = Path(__file__).parent / "golden"
README_COMMANDS = {
    "bench.txt": ["bench"],
    "bench_csv.txt": ["bench", "--format", "csv"],
    "sweep_mu.txt": ["sweep-mu", "--problem", "log", "--scheme", "secant-dyn",
                     "--mu-values", "0.1,0.135,0.5"],
    "sweep_h.txt": ["sweep-h", "--problem", "log", "--mu", "0.135",
                    "--h-values", "0.05,0.1,0.5,1"],
    "solve.txt": ["solve", "--problem", "trig", "--scheme", "secant-dyn", "--mu", "2.65"],
    "order.txt": ["order", "--problem", "log", "--mu", "1", "--x0", "1.5", "--epsilon", "1e-13"],
}


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_command_output_is_pinned(capsys, name):
    # Twice, so that the second call in one process prints the same bytes,
    # whether or not this test is the process's first to run the command.
    for _ in range(2):
        code, out, _ = run_cli(capsys, README_COMMANDS[name])
        assert code == 0
        assert out.encode() == (GOLDEN / name).read_bytes()


def test_readme_basin_output_is_pinned(tmp_path, capsys):
    csv_path, grid_path = tmp_path / "basin.csv", tmp_path / "basin.grid"
    code, out, _ = run_cli(capsys, [
        "basin", "--problem", "log", "--scheme", "secant-dyn", "--mu-values", "0.135",
        "--output", str(csv_path), "--grid-output", str(grid_path)])
    assert code == 0
    assert out == ""
    assert csv_path.read_bytes() == (GOLDEN / "basin.csv").read_bytes()
    assert grid_path.read_bytes() == (GOLDEN / "basin.grid").read_bytes()


def test_basin_heads_that_change_between_rows_are_pinned(capsys):
    # Captured before the renderer formatted each head and x0 object once per
    # call: 0 and -0 are equal values with distinct heads.
    code, out, _ = run_cli(capsys, [
        "basin", "--problem", "exp", "--scheme", "zheng", "--mu-values", "0,-0,1.18",
        "--x0-count", "51"])
    assert code == 0
    assert out.encode() == (GOLDEN / "basin_signed_zero.csv").read_bytes()


def test_readme_examples_are_current(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    # The library snippet prints what its last line's comment says.
    snippet = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(snippet, {})
    printed = snippet.strip().splitlines()[-1].split("#", 1)[1].strip()
    assert capsys.readouterr().out == printed + "\n"
    # The flag table lists exactly the flags each subcommand takes.
    table = readme.split("| subcommand | flags |", 1)[1].split("\n\n", 1)[0]
    rows = dict(re.findall(r"^\| `([\w-]+)` +\| `([^`]+)` \|$", table, re.M))
    assert rows == {name: flags for name, (_, _, flags) in _SUBCOMMANDS.items()}


# Each command with only its required flags, and the library call it must
# equal when every solver setting is SolverConfig's default.
DEFAULTS = SolverConfig()
PROBLEMS = builtin_problems()
BARE_COMMANDS = {
    "bench": (["bench", "--format", "csv"],
              lambda: rows_to_csv(run_benchmark(DEFAULTS.epsilon, DEFAULTS.max_iters))),
    "sweep-mu": (["sweep-mu", "--problem", "log", "--scheme", "secant-dyn",
                  "--mu-values", "0.5,1.18,2.65"],
                 lambda: rows_to_csv(sweep_mu(PROBLEMS["log"], "secant_dyn", [0.5, 1.18, 2.65],
                                              PROBLEMS["log"].default_x0, DEFAULTS))),
    # mu 0.5 uses up the whole iteration budget
    "sweep-mu zheng": (["sweep-mu", "--problem", "exp", "--scheme", "zheng",
                        "--mu-values", "0.5,3"],
                       lambda: rows_to_csv(sweep_mu(PROBLEMS["exp"], "zheng", [0.5, 3.0],
                                                    PROBLEMS["exp"].default_x0, DEFAULTS))),
    "sweep-h": (["sweep-h", "--problem", "log", "--h-values", "0.5,1"],
                lambda: rows_to_csv(sweep_h(PROBLEMS["log"], DEFAULTS.mu, [0.5, 1.0],
                                            PROBLEMS["log"].default_x0, DEFAULTS))),
    "order": (["order", "--problem", "log"],
              lambda: verify_quadratic_convergence(PROBLEMS["log"], DEFAULTS.mu,
                                                   PROBLEMS["log"].default_x0,
                                                   DEFAULTS).to_text() + "\n"),
}


@pytest.mark.parametrize("command", sorted(BARE_COMMANDS))
def test_cli_adds_no_solver_defaults_of_its_own(capsys, command):
    argv, library = BARE_COMMANDS[command]
    _, out, _ = run_cli(capsys, argv)
    assert out == library()


@pytest.mark.parametrize("command", ["", *sorted(_SUBCOMMANDS)])
def test_help_exits_zero(capsys, command):
    # argparse formats every help string with %, so a stray % would crash here
    argv = [command, "--help"] if command else ["--help"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert out.startswith(f"usage: rootflow {command}".rstrip() + " ")
    assert err == ""


def test_missing_subcommand_is_a_usage_error():
    assert main([]) == 2
