"""The runtime imports nothing but the standard library and itself, starts
without the heavy stdlib modules, and loads only the layers a command runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "poissonhopf"


def imported_top_levels(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_stdlib():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"poissonhopf"}
    foreign = {
        (path.name, name)
        for path in sources
        for name in imported_top_levels(path)
        if name not in allowed
    }
    assert not foreign, sorted(foreign)


def modules_added_by(statement: str) -> set:
    """The modules a fresh interpreter loads while running ``statement``.

    Counted against the modules loaded before it, since site differs between
    hosts; a statement that exits (``--help``) still reports them.
    """
    code = (
        "import sys; before = set(sys.modules)\n"
        f"try:\n    {statement}\n"
        "finally:\n    sys.stderr.write('\\n' + ' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    return set(proc.stderr.splitlines()[-1].split())


def run_module(*argv: str) -> str:
    """The statement ``python -m poissonhopf.cli ARGV`` runs, exit included."""
    return (f"import runpy; sys.argv = ['poissonhopf.cli', *{list(argv)!r}]; "
            "runpy.run_module('poissonhopf.cli', run_name='__main__', alter_sys=True)")


def package_modules(added: set) -> set:
    return {name for name in added if name.partition(".")[0] == "poissonhopf"}


def test_cli_import_loads_no_heavy_stdlib_modules():
    added = modules_added_by("import poissonhopf.cli")
    assert "poissonhopf.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, sorted(added)


def test_cli_import_loads_no_layer():
    assert package_modules(modules_added_by("import poissonhopf.cli")) == {"poissonhopf", "poissonhopf.cli"}


def test_help_loads_no_layer():
    assert package_modules(modules_added_by(run_module("--help"))) == {"poissonhopf"}


def test_induce_loads_only_the_layers_it_runs():
    loaded = package_modules(modules_added_by(run_module("induce", "builtin:trig", "--degree", "2")))
    assert "poissonhopf.bialgebra" in loaded
    assert not loaded & {"poissonhopf.free_hopf", "poissonhopf.exprs", "poissonhopf.targets"}, sorted(loaded)
