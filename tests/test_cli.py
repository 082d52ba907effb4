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


def run_cli(argv):
    """main's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# bench

@pytest.mark.parametrize("form", [[], ["--format", "csv"]], ids=["table", "csv"])
def test_bench_exits_one_and_still_prints_its_rows_when_the_pattern_breaks(form):
    # 7 iterations are too few for log/zheng (8) and exp/secant_dyn (41)
    code, out, err = run_cli(["bench", "--max-iters", "7", *form])
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
def test_solve_prints_the_accepted_steps(argv, verdict, reason, iterations):
    code, out, _ = run_cli(["solve", *argv])
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
def test_solve_huge_mu(argv, rows, reason):
    code, out, _ = run_cli(["solve", *argv, "--expect-converge"])
    assert code == 1
    assert len(re.findall(r"^ +\d+  ", out, re.MULTILINE)) == rows
    assert f"verdict    : divergence ({reason})\niterations : 0\n" in out


def test_solve_csv_trace():
    code, out, _ = run_cli([
        "solve", "--problem", "log", "--scheme", "zheng", "--mu", "1",
        "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,x,f"
    assert lines[1].startswith("0,5,")
    assert len(lines) == 10  # x0 plus eight accepted iterates


def test_solve_reads_hyphenated_bootstrap_and_stop_rule():
    code, out, _ = run_cli([
        "solve", "--problem", "log", "--scheme", "secant-dyn", "--mu", "0.135",
        "--bootstrap", "offset-x0", "--stop-rule", "residual", "--format", "csv"])
    assert code == 0
    cfg = SolverConfig(scheme="secant_dyn", mu=0.135, bootstrap="offset_x0",
                       stop_rule="residual")
    outcome = run(builtin_problems()["log"], cfg, 5.0)
    assert out.split("\n")[1:-1] == [
        f"{n},{x:.17g},{fx:.17g}" for n, (x, fx) in enumerate(outcome.pairs)]


# ---------------------------------------------------------------------------
# order

def test_order_names_a_failed_run_divergence():
    # mu = 0 on exp's flat tail: the two-point denominator is exactly zero
    code, out, _ = run_cli(["order", "--problem", "exp", "--mu", "0", "--x0", "50"])
    assert code == 0
    assert "verdict      : divergence (denominator_underflow)\n" in out
    assert "order        : not estimable (not converged or too short)" in out


# ---------------------------------------------------------------------------
# sweeps and basin

def test_basin_runs_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert run_cli(["basin", "--problem", "log", "--scheme", "newton",
                        "--mu-values", "0", "--x0-count", "51", "--output", str(path)])[0] == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


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
def test_numeric_flags_take_negative_values(flag):
    argv, code, start = NEGATIVE_VALUES[flag]
    result = run_cli(argv)
    assert result[0] == code
    assert result[1 if code == 0 else 2].startswith(start)
    # the same as the flag=value form, which argparse reads whatever the value
    i = argv.index(flag)
    assert run_cli([*argv[:i], f"{flag}={argv[i + 1]}", *argv[i + 2:]]) == result


UNWRITABLE_OUTPUTS = {
    "bench --output": ["bench", "--output"],
    "solve --output": ["solve", "--problem", "log", "--scheme", "newton", "--output"],
    "basin --grid-output": ["basin", "--problem", "log", "--scheme", "newton", "--mu-values", "0",
                            "--x0-count", "3", "--grid-output"],
}


@pytest.mark.parametrize("target", ["missing-dir", "a-directory", "empty"])
@pytest.mark.parametrize("command", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_is_a_usage_error(tmp_path, command, target):
    path = {"missing-dir": tmp_path / "missing" / "out.txt", "a-directory": tmp_path,
            "empty": ""}[target]
    code, out, err = run_cli(UNWRITABLE_OUTPUTS[command] + [str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"rootflow: cannot write {path}: ")
    assert err.count("\n") == 1


# The CLI's process contract, each case in a child process: its exit code,
# buffered or not, and never a traceback.  `python -m rootflow.cli` ends in the
# same `sys.exit(main())` as the installed `rootflow` script.  One case per
# exit code, and help; then commands whose stdout or stderr fails the write, a
# usage error: a full device, or a pipe whose reader has gone, as in
# `rootflow basin ... | head -1`.  Buffered, the write fails at the flush;
# unbuffered, in the write itself.  Each case: argv, where stdout and stderr go
# (None: a pipe read here), then the exit code.
SOLVE = ["solve", "--problem", "log", "--scheme", "newton"]
CHILD_RUNS = {
    "bench": (["bench"], None, None, 0),
    "--expect-converge": ([*SOLVE, "--expect-converge"], None, None, 1),
    "--bogus": (["--bogus", "1", *SOLVE], None, None, 2),
    "--help": (["--help"], None, None, 0),
    "/dev/full": (["bench"], "/dev/full", None, 2),
    "closed-pipe": (["bench"], "closed-pipe", None, 2),
    "--help >full": (["--help"], "/dev/full", None, 2),
    "solve --help >full": (["solve", "--help"], "/dev/full", None, 2),
    "--bogus 2>full": (["--bogus", "1", *SOLVE], None, "/dev/full", 2),
    "--max-iters 0 2>full": ([*SOLVE, "--max-iters", "0"], None, "/dev/full", 2),
    "bench >full 2>full": (["bench"], "/dev/full", "/dev/full", 2),
    "--output full 2>full": ([*SOLVE, "--output", "/dev/full"], None, "/dev/full", 2),
}


def unwritable_fd(target):
    if target == "/dev/full":
        return os.open(target, os.O_WRONLY)
    read_end, fd = os.pipe()
    os.close(read_end)
    return fd


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case", list(CHILD_RUNS))
def test_unwritable_stdout_is_a_usage_error(case, unbuffered):
    argv, stdout, stderr, code = CHILD_RUNS[case]
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
    assert child.returncode == code
    if stdout is None:  # a usage error prints nothing there, and any other run does
        assert (child.stdout == "") == (code == 2)
    if stderr is None:
        assert "Traceback" not in child.stderr and "Exception ignored" not in child.stderr
        assert sum(line.startswith("rootflow") for line in child.stderr.splitlines()) <= 1
        if stdout is not None:  # so stdout is the stream that failed
            assert child.stderr.startswith("rootflow: cannot write stdout: ")
            assert child.stderr.count("\n") == 1


def test_console_script_runs_main():
    # pyproject.toml read as text: Python 3.10 has no tomllib.
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip().splitlines() == ['rootflow = "rootflow.cli:main"']


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
        code, _, err = run_cli(argv)
        assert (code, err) == (0, "")


@settings(deadline=None)
@given(argv=command_lines())
def test_main_prints_the_same_when_argparse_reads_every_line(argv):
    result = run_cli(argv)
    with mock.patch("rootflow.cli._well_formed", return_value=None):
        assert run_cli(argv) == result


# Each command line the CLI refuses, with exit 2, nothing on stdout and no file written: (argv,
# the subcommand or "[-h]" whose usage argparse prints, or None for a value the library refuses,
# then the library's whole message, which names the input, or argparse's whole error line).
CLI_REFUSALS = {
    "x0": ("solve --problem log --scheme newton --x0 7", None,
           "x0 = 7.0 is outside the legal domain [0.5, 5.0]"),
    "x0-nan": ("order --problem log --x0 nan", None,
               "x0 = nan is outside the legal domain [0.5, 5.0]"),
    "epsilon": ("solve --problem log --scheme newton --epsilon 0", None,
                "epsilon must be positive and finite"),
    "epsilon-inf": ("solve --problem exp --scheme zheng --mu 1 --epsilon inf", None,
                    "epsilon must be positive and finite"),
    "bench-epsilon": ("bench --epsilon -1", None, "epsilon must be positive and finite"),
    "h": ("solve --problem log --scheme euler --h -0.5", None, "h must be positive and finite"),
    "mu": ("order --problem log --mu nan", None, "mu must be finite"),
    "max-iters": ("sweep-mu --problem log --scheme zheng --mu-values 1 --max-iters 0", None,
                  "max iters must be at least 1"),
    "x0-count": ("basin --problem log --scheme newton --mu-values 0 --x0-count 0", None,
                 "x0 count must be at least 1"),
    "mu-values": ("sweep-mu --problem log --scheme zheng --mu-values 1,inf", None,
                  "mu must be finite"),
    "mu-values-not-numbers": ("sweep-mu --problem log --scheme secant-dyn --mu-values a,b", None,
                              "invalid --mu-values list: 'a,b'"),
    "mu-values-empty": ("sweep-mu --problem log --scheme zheng --mu-values ,", None,
                        "mu values must be non-empty"),
    "basin-mu-values-empty": ("basin --problem log --scheme zheng --mu-values ,", None,
                              "mu axis must be non-empty"),
    "h-values": ("sweep-h --problem log --h-values 0.5,0", None, "h must be positive and finite"),
    "h-values-empty": ("sweep-h --problem log --h-values ,", None, "h values must be non-empty"),
    # when more than one value is bad, solver settings are checked before value lists and x0
    "epsilon-before-mu-values": ("sweep-mu --problem log --scheme zheng --mu-values , --epsilon 0",
                                 None, "epsilon must be positive and finite"),
    "max-iters-before-x0": ("solve --problem log --scheme newton --x0 7 --max-iters 0", None,
                            "max iters must be at least 1"),
    # argparse's choice list, which the test reads unquoted
    "unknown-problem": ("solve --problem cubic --scheme newton", "solve",
                        "rootflow solve: error: argument --problem: invalid choice: 'cubic' "
                        "(choose from exp, log, trig)"),
    "unknown-scheme": ("solve --problem log --scheme halley", "solve",
                       "rootflow solve: error: argument --scheme: invalid choice: 'halley' "
                       "(choose from euler, newton, secant, secant-dyn, wu, zheng)"),
    "no-subcommand": ("", "[-h]",
                      "rootflow: error: the following arguments are required: subcommand"),
    # A flag the subcommand does not read, or an abbreviation of one it does, gets the
    # subcommand's usage, which lists the flags it takes; a flag before the subcommand, whose
    # value argparse would take for one, gets the top-level usage.
    "leading --bogus": ("--bogus 1 solve --problem log --scheme newton", "[-h]",
                        "rootflow: error: unrecognized arguments: --bogus"),
    **{f"{sub} {flag}": (f"{sub} {rest} {flag} {value}", sub,
                         f"rootflow {sub}: error: unrecognized arguments: {flag} {value}")
       for sub, rest, flag, value in (
           ("basin", "--problem log --scheme newton --mu-values 0 --x0-count 3", "--x0", "3"),
           ("basin", "--problem log --scheme newton --mu-values 0 --x0-count 3", "--mu", "1"),
           ("sweep-mu", "--problem log --scheme zheng --mu-values 1", "--mu", "1"),
           ("sweep-h", "--problem log --h-values 1", "--bootstrap", "offset-x0"),
           ("solve", "--problem log --scheme newton", "--max", "3"))},
    "--expect-converge=1": ("solve --problem log --scheme zheng --expect-converge=1", "solve",
                            "rootflow solve: error: argument --expect-converge: ignored explicit "
                            "argument '1'"),
    # An explicit "--" as a flag's value, which argparse before Python 3.13 stores as [] and 3.13
    # as "--".
    **{f"{sub} {flag}=--": (f"{sub} {rest} {flag}=--", sub,
                            f"rootflow {sub}: error: argument {flag}: expected one argument")
       for sub, rest, flag in (
           ("solve", "--problem log --scheme zheng", "--output"),
           ("basin", "--problem log --scheme zheng --mu-values 1 --x0-count 3", "--grid-output"),
           ("sweep-mu", "--problem log --scheme zheng", "--mu-values"),
           ("sweep-h", "--problem log", "--h-values"))},
}


def unquoted_choices(err):
    """err with argparse's choice list unquoted: Python 3.10-3.12 quote each choice, 3.13 none."""
    head, sep, choices = err.partition(" (choose from ")
    return head + sep + choices.replace("'", "")


@pytest.mark.parametrize("case", sorted(CLI_REFUSALS))
def test_cli_refusals(tmp_path, monkeypatch, case):
    argv, usage, error = CLI_REFUSALS[case]
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv.split())
    assert (code, out) == (2, "")
    if usage is None:
        assert err == f"rootflow: {error}\n"
    else:
        assert err.startswith(f"usage: rootflow {usage} ")
        assert err.count("usage:") == 1
        assert unquoted_choices(err).endswith(f"\n{error}\n")
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
def test_readme_command_output_is_pinned(name):
    # Twice, so that the second call in one process prints the same bytes,
    # whether or not this test is the process's first to run the command.
    for _ in range(2):
        code, out, _ = run_cli(README_COMMANDS[name])
        assert code == 0
        assert out.encode() == (GOLDEN / name).read_bytes()


def test_readme_basin_output_is_pinned(tmp_path):
    csv_path, grid_path = tmp_path / "basin.csv", tmp_path / "basin.grid"
    code, out, _ = run_cli([
        "basin", "--problem", "log", "--scheme", "secant-dyn", "--mu-values", "0.135",
        "--output", str(csv_path), "--grid-output", str(grid_path)])
    assert code == 0
    assert out == ""
    assert csv_path.read_bytes() == (GOLDEN / "basin.csv").read_bytes()
    assert grid_path.read_bytes() == (GOLDEN / "basin.grid").read_bytes()


def test_basin_heads_that_change_between_rows_are_pinned():
    # Captured before the renderer formatted each head and x0 object once per
    # call: 0 and -0 are equal values with distinct heads.
    code, out, _ = run_cli([
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
def test_cli_adds_no_solver_defaults_of_its_own(command):
    argv, library = BARE_COMMANDS[command]
    _, out, _ = run_cli(argv)
    assert out == library()


@pytest.mark.parametrize("command", ["", *sorted(_SUBCOMMANDS)])
def test_help_exits_zero(command):
    # argparse formats every help string with %, so a stray % would crash here
    argv = [command, "--help"] if command else ["--help"]
    code, out, err = run_cli(argv)
    assert code == 0
    assert out.startswith(f"usage: rootflow {command}".rstrip() + " ")
    assert err == ""
