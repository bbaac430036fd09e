"""The README's examples run as written, so they name only live API and flags."""

import ast
import inspect
import re
import shlex
from pathlib import Path

import kickedspec
from kickedspec.cli import _READS, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    section = README.read_text().split("## Library overview", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, f"{README}:library-overview", "exec"), namespace)
    assert len(namespace["table"]) == namespace["stats"]["count"]


def _parameter(text):
    """(name, default) of one documented parameter, `inspect.Parameter.empty` for no default."""
    name, _, default = text.partition("=")
    return name.strip(), ast.literal_eval(default.strip()) if default else inspect.Parameter.empty


def test_readme_module_signatures_are_live():
    # each backticked `name(args)` of the Modules list that names a kickedspec attribute; args may wrap a line
    section = README.read_text().split("Modules:", 1)[1].split("\n## ", 1)[0]
    documented = [(name, [_parameter(arg) for arg in args.split(",") if arg.strip()])
                  for name, args in re.findall(r"`(\w+)\(([^`]*)\)`", section) if hasattr(kickedspec, name)]
    assert sorted(name for name, _ in documented) == ["KickedSystem", "eigensolve", "general_su2_hamiltonian",
                                                      "heff_delta_kicked", "heff_general", "micromotion_kick"]
    for name, params in documented:
        signature = inspect.signature(getattr(kickedspec, name))
        assert params == [(p.name, p.default) for p in signature.parameters.values()], name


def test_readme_cli_examples_parse():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("kickedspec ")]
    assert len(commands) == 5
    for argv in commands:
        assert parse_config(argv).command == argv[0]


def test_readme_parameter_table_is_reads():
    # one row per line of the table, a system or command in backticks -> the parameters read, in order
    section = README.read_text().split("| `--system`, or command | parameters read |", 1)[1]
    documented = {}
    for line in section.strip().splitlines()[1:]:
        if not line.startswith("|"):
            break
        names, params = (cell.strip() for cell in line.strip("|").split("|"))
        read = tuple(re.sub(r"\s*\(.*\)$", "", p.strip()).replace("-", "_") for p in params.split(","))
        for name in re.findall(r"`([^`]+)`", names):
            documented[name] = read
    assert documented == _READS
