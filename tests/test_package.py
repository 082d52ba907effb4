"""The package's public surface, and what importing its CLI costs."""

import os
import subprocess
import sys
from inspect import ismodule
from pathlib import Path

import rootflow
from rootflow import analysis, harness, problems, solvers

SUBMODULES = (problems, solvers, analysis, harness)


def test_all_has_no_duplicates():
    assert len(rootflow.__all__) == len(set(rootflow.__all__))


def test_all_is_every_public_name_the_package_binds_but_its_modules():
    public = {name for name, value in vars(rootflow).items()
              if not name.startswith("_") and not ismodule(value)}
    assert set(rootflow.__all__) == public


def test_each_name_is_the_object_its_submodule_defines():
    for name in rootflow.__all__:
        value = getattr(rootflow, name)
        homes = [module for module in SUBMODULES if name in vars(module)]
        assert homes, name
        assert all(vars(module)[name] is value for module in homes), name
        if hasattr(value, "__qualname__"):  # a class or function: where it was written
            assert value.__module__ in {module.__name__ for module in homes}, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rootflow import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(rootflow.__all__)


# Standard-library and third-party modules that would each add a few
# milliseconds to every CLI command if importing rootflow.cli loaded them.
# dataclasses loads inspect, ast, dis and tokenize, some 10 ms together; the
# inputs build their dataclass fields only when something asks for them.
# argparse loads gettext and locale, and it is needed only for help and usage errors.
SLOW_IMPORTS = ("numpy", "mpmath", "decimal", "fractions", "statistics", "json", "csv",
                "logging", "subprocess", "tempfile", "dataclasses", "inspect", "ast", "dis",
                "tokenize", "argparse", "gettext", "locale")


def loaded_modules(code):
    """The modules a fresh interpreter holds after running `code`."""
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sorted(sys.modules), sep='\\n')"],
        capture_output=True, text=True, env=env, check=True)
    return set(child.stdout.split())


def test_cli_import_loads_no_slow_module():
    added = loaded_modules("import rootflow.cli") - loaded_modules("")
    assert "rootflow.cli" in added
    assert sorted(added & set(SLOW_IMPORTS)) == []


# One well-formed command per subcommand.
COMMANDS = [
    ["solve", "--problem", "log", "--scheme", "zheng", "--mu", "1"],
    ["bench", "--format", "csv"],
    ["order", "--problem", "log", "--mu", "1"],
    ["sweep-mu", "--problem", "log", "--scheme", "zheng", "--mu-values", "0.5,1"],
    ["sweep-h", "--problem", "log", "--h-values", "0.5,1"],
    ["basin", "--problem", "log", "--scheme", "zheng", "--mu-values", "1", "--x0-count", "5"],
]


def test_well_formed_commands_load_no_slow_module():
    added = loaded_modules(
        f"import os\nfrom rootflow.cli import main\nfor argv in {COMMANDS!r}:\n"
        "    assert main([*argv, '--output', os.devnull]) == 0") - loaded_modules("")
    assert sorted(added & set(SLOW_IMPORTS)) == []
    # help still comes from argparse, which the same check sees load
    added = loaded_modules(
        "import contextlib, io\nfrom rootflow.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    assert main(['solve', '--help']) == 0\n"
        "assert out.getvalue().startswith('usage: rootflow solve [-h] --problem ')")
    assert {"argparse", "gettext", "locale"} <= added
