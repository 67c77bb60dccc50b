"""The README describes the package as it is: its library example runs, the package
root exports exactly what the example imports, and its module table lists every module."""

import ast
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import bimanual_icl

SRC = Path(bimanual_icl.__file__).resolve().parents[1]
README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def library_example() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, "the README holds one python block, the library example"
    return blocks[0]


def test_library_example_runs():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", library_example()], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
                         timeout=120)
    assert out.stdout.strip() == "True 15 calls"


def test_package_root_exports_the_names_the_example_imports():
    imported = {alias.name for node in ast.walk(ast.parse(library_example()))
                if isinstance(node, ast.ImportFrom) and node.module == "bimanual_icl"
                for alias in node.names}
    exported = {name for name, value in vars(bimanual_icl).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == imported


def test_module_table_lists_every_module():
    table = README.split("| module | purpose |\n| --- | --- |\n")[1].split("\n\n")[0]
    documented = [name for row in table.splitlines()
                  for name in re.findall(r"`(\w+)`", row.split(" | ")[0])]
    modules = [module.name for module in pkgutil.iter_modules(bimanual_icl.__path__)]
    assert sorted(documented) == sorted(modules)
