"""The package source carries no dead imports.

pyflakes and ruff are not dependencies, so the check walks each module's
syntax tree: every name a `src/lflow` module binds by an import must be
read somewhere in that module.
"""

import ast
import glob
import os

import pytest

from conftest import REPO_ROOT

MODULES = sorted(glob.glob(os.path.join(REPO_ROOT, "src", "lflow", "*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b as c, d\nos.sep\nd()\n") == ["line 2: c"]


@pytest.mark.parametrize("module", MODULES, ids=os.path.basename)
def test_module_uses_every_name_it_imports(module):
    with open(module, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
