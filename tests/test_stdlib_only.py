"""The runtime imports nothing but the standard library and itself, and
starts without the heavy stdlib modules."""

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


def test_cli_import_loads_no_heavy_stdlib_modules():
    # against the modules loaded before the import, since site differs between hosts
    code = (
        "import sys; before = set(sys.modules); import poissonhopf.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    added = set(proc.stdout.split())
    assert "poissonhopf.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, sorted(added)
